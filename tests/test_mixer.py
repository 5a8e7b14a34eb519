import numpy as np
import pytest
from scipy import optimize

from paramix.errors import NumericalError
from paramix.mixer import (
    JpcParams,
    JrmParams,
    PRIMARY_LOBE_RAD,
    RHO_5050,
    chi_inv,
    flux_tuning_curve,
    g3_magnitude,
    g3_sign,
    generalized_pump_phase,
    mixer_2port,
    n_g,
    r_a_of_frequency,
    r_b_of_frequency,
    r_on_resonance,
    t_of_frequency,
    t_on_resonance,
)


def _params(rho=0.3, phi_ext=0.0, pump_phase=0.0):
    return JpcParams(
        f_a_ghz=6.84,
        f_b_ghz=9.567,
        gamma_a_mhz=40.0,
        gamma_b_mhz=100.0,
        rho=rho,
        pump_phase_rad=pump_phase,
        phi_ext_rad=phi_ext,
    )


def test_on_resonance_extremes():
    assert t_on_resonance(0.0) == 0.0
    assert r_on_resonance(0.0) == 1.0
    assert t_on_resonance(1.0) == 1.0
    assert r_on_resonance(1.0) == 0.0


def test_fifty_fifty_point():
    c = 1.0 / np.sqrt(2.0)
    assert abs(t_on_resonance(RHO_5050) - c) < 1e-12
    assert abs(r_on_resonance(RHO_5050) - c) < 1e-12
    # independent root of t(rho) = 1/sqrt2 on the rising branch
    root = optimize.brentq(lambda r: t_on_resonance(r) - c, 0.0, 0.5, xtol=1e-14)
    assert abs(root - RHO_5050) < 1e-12


def test_energy_split_on_resonance(rng):
    for rho in rng.uniform(0.0, 1.0, size=50):
        t = t_on_resonance(rho)
        r = r_on_resonance(rho)
        assert abs(t**2 + r**2 - 1.0) < 1e-12


def test_rho_bounds():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            t_on_resonance(bad)


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
        assert t_of_frequency(p.f_a_ghz, p) == pytest.approx(t_on_resonance(rho), abs=1e-15)
        assert r_a_of_frequency(p.f_a_ghz, p) == pytest.approx(r_on_resonance(rho), abs=1e-15)


def test_frequency_response_is_lossless(rng):
    for _ in range(50):
        p = _params(rho=rng.uniform(0.0, 1.0))
        f1 = p.f_a_ghz + rng.uniform(-0.2, 0.2)
        t = t_of_frequency(f1, p)
        for refl in (r_a_of_frequency(f1, p), r_b_of_frequency(f1, p)):
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
    assert generalized_pump_phase(0.25, -1.0) == 0.25
    assert generalized_pump_phase(0.25, 1.0) == 0.25 + np.pi
    p = _params(phi_ext=2.0, pump_phase=np.pi / 2.0)
    assert p.n_g == 1
    assert p.generalized_pump_phase_rad == np.pi / 2.0 + np.pi


def test_g3_sign():
    assert g3_sign(0.0) == 0
    assert g3_sign(1.0) == -1
    assert g3_sign(-1.0) == 1
    with pytest.raises(ValueError):
        g3_sign(100.0)


def test_g3_magnitude_scaling():
    args = dict(p_a=0.1, p_b=0.2, p_c=0.05, f_a_ghz=6.84, f_b_ghz=9.567, f_c_ghz=16.4, ej_eff_over_h_ghz=800.0)
    assert g3_magnitude(0.0, **args) == 0.0
    base = g3_magnitude(2.0, **args)
    assert base > 0.0
    # |sin(phi/4)| scaling and sqrt participation scaling
    assert g3_magnitude(4.0, **args) / base == pytest.approx(
        abs(np.sin(1.0)) / abs(np.sin(0.5))
    )
    doubled = g3_magnitude(2.0, **{**args, "p_a": 0.2})
    assert doubled / base == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        g3_magnitude(2.0, **{**args, "p_b": 1.5})
    with pytest.raises(ValueError):
        g3_magnitude(2.0, **{**args, "ej_eff_over_h_ghz": 0.0})


def test_jpc_params_validation():
    with pytest.raises(ValueError, match="f_a"):
        JpcParams(9.567, 6.84, 40.0, 100.0, 0.3)
    with pytest.raises(ValueError, match="linewidths"):
        JpcParams(6.84, 9.567, -1.0, 100.0, 0.3)
    with pytest.raises(ValueError, match="rho"):
        JpcParams(6.84, 9.567, 40.0, 100.0, 1.5)
    with pytest.raises(ValueError, match="lobe"):
        JpcParams(6.84, 9.567, 40.0, 100.0, 0.3, phi_ext_rad=10.0)


def test_mixer_2port_matrix():
    t = 0.6
    phi = 0.7
    m = mixer_2port(t, phi)
    r = np.sqrt(1.0 - t**2)
    assert m.entry("a", "a") == pytest.approx(r)
    assert m.entry("b", "b") == pytest.approx(-r)
    assert m.entry("b", "a") == pytest.approx(-t * np.exp(1j * phi))
    assert m.entry("a", "b") == pytest.approx(-t * np.exp(-1j * phi))
    dev = np.max(np.abs(m.s.conj().T @ m.s - np.eye(2)))
    assert dev < 1e-12
    with pytest.raises(ValueError):
        mixer_2port(1.2, 0.0)


def test_jrm_defaults_and_validation():
    jrm = JrmParams()
    assert jrm.z_res_ohm == 51.1
    assert jrm.f_max_ghz == 7.0232
    with pytest.raises(ValueError):
        JrmParams(i0_ua=0.0)
    with pytest.raises(ValueError):
        JrmParams(lj0_over_l=-1.0)


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
