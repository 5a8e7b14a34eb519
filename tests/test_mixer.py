import numpy as np
import pytest

from paramix.errors import NumericalError
from paramix.mixer import (
    JpcParams,
    JrmParams,
    PRIMARY_LOBE_RAD,
    RHO_5050,
    amplitudes_of_frequency,
    amplitudes_on_resonance,
    chi_inv,
    flux_tuning_curve,
    mixer_2port,
    n_g,
    r_a_of_frequency,
    t_of_frequency,
    turn_phasor,
)
from paramix.network import check_unitarity


def _params(rho=0.3):
    return JpcParams(f_a_ghz=6.84, f_b_ghz=9.567, gamma_a_mhz=40.0, gamma_b_mhz=100.0, rho=rho)


def _r_on_resonance(rho):
    """Reflection amplitude (1 - rho^2) / (1 + rho^2) at zero detuning."""
    return r_a_of_frequency(6.84, _params(rho=rho))


def test_on_resonance_extremes():
    assert amplitudes_on_resonance(0.0) == (0.0, 1.0)
    assert _r_on_resonance(0.0) == 1.0
    assert amplitudes_on_resonance(1.0) == (1.0, 0.0)
    assert _r_on_resonance(1.0) == 0.0


def test_fifty_fifty_point():
    c = 1.0 / np.sqrt(2.0)
    t, r = amplitudes_on_resonance(RHO_5050)
    assert abs(t - c) < 1e-12 and abs(r - c) < 1e-12
    assert abs(_r_on_resonance(RHO_5050) - c) < 1e-12
    # independent root of t = 2 rho / (1 + rho^2) = 1/sqrt2 on the rising
    # branch, rho = t / (1 + sqrt(1 - t^2))
    root = c / (1.0 + np.sqrt(1.0 - c * c))
    assert abs(root - RHO_5050) < 1e-12


def test_energy_split_on_resonance(rng):
    for rho in rng.uniform(0.0, 1.0, size=50):
        t, r = amplitudes_on_resonance(rho)
        assert abs(t**2 + r**2 - 1.0) < 1e-12
        assert abs(_r_on_resonance(rho) - r) < 1e-15


def test_rho_bounds():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            amplitudes_on_resonance(bad)


def test_chi_inv_halfwidth_points():
    f_a, gamma = 6.84, 40.0
    # detuning of +/- half a linewidth puts the response at 1 -/+ i
    assert chi_inv(f_a + gamma / 2e3, f_a, gamma) == pytest.approx(1.0 - 1j)
    assert chi_inv(f_a - gamma / 2e3, f_a, gamma) == pytest.approx(1.0 + 1j)
    assert chi_inv(f_a, f_a, gamma) == 1.0
    with pytest.raises(ValueError):
        chi_inv(f_a, f_a, 0.0)


def test_frequency_response_reduces_on_resonance(rng):
    for rho in rng.uniform(0.0, 1.0, size=10):
        p = _params(rho=rho)
        assert t_of_frequency(p.f_a_ghz, p) == pytest.approx(amplitudes_on_resonance(rho)[0], abs=1e-15)
        assert r_a_of_frequency(p.f_a_ghz, p) == pytest.approx((1.0 - rho**2) / (1.0 + rho**2), abs=1e-15)


def test_frequency_response_is_lossless(rng):
    for _ in range(50):
        p = _params(rho=rng.uniform(0.0, 1.0))
        f1 = p.f_a_ghz + rng.uniform(-0.2, 0.2)
        t, r_a, r_b = amplitudes_of_frequency(f1, p)
        for refl in (r_a, r_b):
            assert abs(abs(refl) ** 2 + abs(t) ** 2 - 1.0) < 1e-9


def test_conversion_line_shape_is_a_dip_peak(rng):
    p = _params(rho=0.4)
    f = p.f_a_ghz + np.linspace(-0.15, 0.15, 301)
    mag = np.abs([t_of_frequency(x, p) for x in f])
    assert int(np.argmax(mag)) == 150
    assert mag[0] < mag[150] and mag[-1] < mag[150]


def test_n_g_and_pump_phase():
    assert n_g(0.0) == 0
    assert n_g(-1.0) == 0
    assert n_g(1.0) == 1
    assert n_g(PRIMARY_LOBE_RAD) == 1
    with pytest.raises(ValueError):
        n_g(PRIMARY_LOBE_RAD + 0.1)


def test_jpc_params_validation():
    # both bounds are strict: a zero frequency or linewidth, or equal modes, is refused
    for f_a, f_b in ((9.567, 6.84), (0.0, 9.567), (6.84, 6.84)):
        with pytest.raises(ValueError, match="f_a"):
            JpcParams(f_a, f_b, 40.0, 100.0, 0.3)
    for gamma_a, gamma_b in ((-1.0, 100.0), (0.0, 100.0), (40.0, 0.0)):
        with pytest.raises(ValueError, match="linewidths"):
            JpcParams(6.84, 9.567, gamma_a, gamma_b, 0.3)
    with pytest.raises(ValueError, match="rho"):
        JpcParams(6.84, 9.567, 40.0, 100.0, 1.5)


def test_mixer_2port_matrix():
    # off resonance r_a != r_b, so each reflection must sit at its own port
    t, r_a, r_b = amplitudes_of_frequency(6.86, _params(rho=1.0 / 3.0))
    for k in range(-5, 6):
        m = mixer_2port(t, r_a, r_b, k)
        assert m.entry("a", "a") == r_a and m.entry("b", "b") == -r_b
        # conversion a->b picks up +k quarter turns, b->a -k, each exactly
        assert m.entry("b", "a") == -t * turn_phasor(k) and m.entry("a", "b") == -t * turn_phasor(-k)
        assert check_unitarity(m) < 1e-15
        # a gyrator's zeros are +0.0, as calibrate() reads its phase
        parts = mixer_2port(1.0, 0.0, 0.0, k).s.view(float)
        assert not np.any(np.signbit(parts[parts == 0.0]))
    # a phase is a whole number of quarter turns, nothing else
    for bad in (0.5, 1.0, np.nan, np.inf, True, np.array([True]), [1, 0.5], "1"):
        with pytest.raises(ValueError, match="quarter_turns"):
            mixer_2port(0.6, 0.8, 0.8, bad)


def test_mixer_2port_stacks_a_phase_array():
    # any argument may be a stack; each member is the matrix of its own arguments
    rng = np.random.default_rng(11)
    turns = rng.integers(-9, 10, 16)
    t, r_a, r_b = amplitudes_of_frequency(6.84 + rng.uniform(-0.3, 0.3, 16), _params(rho=0.6))
    stacks = [(t, r_a, r_b, turns), (t, r_a, r_b, 3), (1.0, 0.0, 0.0, turns.astype(np.int32))]
    for args in stacks + [(t[0], r_a, r_b[0], list(map(int, turns)))]:
        stack = mixer_2port(*args)
        assert stack.s.shape == (16, 2, 2) and stack.ports == ("a", "b")
        for n in range(16):
            assert np.array_equal(stack.s[n], mixer_2port(*(a[n] if np.ndim(a) else a for a in args)).s)
    assert mixer_2port(1.0, 0.0, 0.0, np.array([1], dtype=np.uint8)).entry("b", "a") == [-1j]
    with pytest.raises(ValueError, match="quarter_turns"):
        mixer_2port(1.0, 0.0, 0.0, [0.0, np.nan])


def test_jrm_defaults_and_validation():
    jrm = JrmParams()
    assert jrm.z_res_ohm == 51.1
    assert jrm.f_max_ghz == 7.0232
    with pytest.raises(ValueError):
        JrmParams(i0_ua=0.0)
    with pytest.raises(ValueError):
        JrmParams(lj0_over_l=-1.0)
    for ratio in ("lj0_over_l", "lj0_over_ls"):
        with pytest.raises(ValueError, match="inductance ratios"):
            JrmParams(**{ratio: 0.0})


def test_flux_tuning_curve_shape():
    assert flux_tuning_curve(0.0) == 7.0232
    phis = np.linspace(0.0, PRIMARY_LOBE_RAD, 100)
    vals = np.array([flux_tuning_curve(p) for p in phis])
    assert np.all(np.diff(vals) < 0.0), "must tune downward away from zero flux"
    for p in phis[::9]:
        assert flux_tuning_curve(-p) == flux_tuning_curve(p)
    assert vals[-1] == pytest.approx(6.8818, abs=1e-3)


def test_flux_tuning_curve_divergence():
    # a weak shunt lets the ring inductance blow up inside the lobe
    weak = JrmParams(lj0_over_l=1.0)
    assert flux_tuning_curve(2.0, weak) < weak.f_max_ghz
    with pytest.raises(NumericalError, match="diverges"):
        flux_tuning_curve(8.6, weak)
    with pytest.raises(NumericalError, match="diverges"):
        flux_tuning_curve(np.array([0.0, 2.0, 8.6]), weak)
    # 2 pi i0 in amperes rounds to 0, so L_J0 has no finite value
    with pytest.raises(NumericalError, match="junction inductance diverges"):
        flux_tuning_curve(0.0, JrmParams(i0_ua=1e-320))


def test_flux_tuning_curve_on_an_array_matches_each_point():
    phis = np.linspace(-PRIMARY_LOBE_RAD, PRIMARY_LOBE_RAD, 20001)
    want = np.array([flux_tuning_curve(float(p)) for p in phis])
    assert np.array_equal(flux_tuning_curve(phis), want)
