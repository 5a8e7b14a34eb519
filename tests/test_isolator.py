import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paramix.isolator import (
    JisConfig,
    added_noise,
    closed_form_from_config,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    make_jis,
    on_resonance_amplitudes,
    reference_device,
    turn_phasor,
)
from paramix.mixer import PRIMARY_LOBE_RAD, JpcParams, RHO_5050, n_g
from paramix.network import check_unitarity

SQ2 = np.sqrt(2.0)


def test_turn_phasor_quarter_turns_are_exact():
    exact = [complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0)]
    for k in range(-9, 10):
        # repr tells -0.0 from 0.0: equal parts and no -0.0 part
        assert repr(turn_phasor(k)) == repr(exact[k % 4])


def test_fifty_fifty_matrix():
    # t = r = 1/sqrt2, alpha = 1/sqrt2, P1 at zero flux: phi = -pi/2, phi_s = pi/2
    s = closed_form_from_config(make_jis(6.84, 9.567, 40.0, 100.0, RHO_5050, 1.0 / SQ2)).s
    expected = np.array(
        [
            [0.0, 0.0, -1.0 / SQ2, -1.0 / SQ2],
            [2j * SQ2 / 3.0, 0.0, -1j / (3.0 * SQ2), 1j / (3.0 * SQ2)],
            [-1.0 / (3.0 * SQ2), -1j / SQ2, -SQ2 / 3.0, SQ2 / 3.0],
            [1.0 / (3.0 * SQ2), -1j / SQ2, SQ2 / 3.0, -SQ2 / 3.0],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(s - expected)) < 1e-12
    assert abs(abs(s[1, 0]) - 2.0 * SQ2 / 3.0) < 1e-12


def test_pump_off_is_exactly_transparent():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1j
    expected[2, 2] = expected[3, 3] = -1.0
    for alpha in (0.0, 0.3, 0.7, 1.0):
        for pump in ("P1", "P2"):
            for fx1, fx2 in ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)):
                cfg = make_jis(6.84, 9.567, 40.0, 100.0, 0.0, alpha, pump, fx1, fx2)
                assert np.array_equal(closed_form_from_config(cfg).s, expected)


def test_closed_form_validation():
    # the config checks rho and alpha_mag (test_jis_config_validation); the
    # 4-port itself raises nowhere. At |alpha| = 1 with no line its loop
    # denominator L = t^2 cancels, and the taps see each other only: S21 =
    # i, S12 = -i and S34 = S43 = 1 at zero flux on P1, exactly where L
    # underflows (rho below about 4e-155) and within eps above
    for rho in (1e-160, 1e-170, 5e-324, 1e-150, 1e-20, 0.3, 1.0):
        s = closed_form_from_config(make_jis(6.84, 9.567, 40.0, 100.0, rho=rho, alpha_mag=1.0)).s
        expected = np.array([[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.max(np.abs(s - expected)) <= (np.finfo(float).eps if rho > 4e-155 else 0.0), rho
        assert np.count_nonzero(s) == 4 and not np.signbit(s[s == 0].real).any()


def test_the_4port_signal_block_is_the_forward_model():
    # with no line, S21, S12 = i (refl -+ conv sin phi) of the fit's forward
    # model, also at |alpha| = 1 where L = t^2 underflows: both take the
    # pump-off limit (1, 0) at rho = 0 and the decoupled line (0, 1) above it
    rhos, alphas = (0.0, 5e-324, 1e-170, 7e-163, 8e-163, 1e-160), (0.0, 0.5, 1.0)
    for rho, alpha, pump in itertools.product(rhos, alphas, ("P1", "P2")):
        config = make_jis(6.84, 9.567, 40.0, 100.0, rho, alpha, pump)
        s = closed_form_from_config(config).s
        refl, conv = on_resonance_amplitudes(rho, alpha)
        assert abs(s[1, 0] - 1j * (refl - conv * config.sin_phi)) <= 1e-15, (rho, alpha, pump)
        assert abs(s[0, 1] - 1j * (refl + conv * config.sin_phi)) <= 1e-15, (rho, alpha, pump)


# the on-resonance config space: both feeds, all four flux-parity pairs (only
# a flux's sign sets its parity), rho in [0, 1] and |alpha| in [0, 1), with
# a share of the draws on the edges
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
ON_RESONANCE = st.builds(
    lambda rho, alpha, pump, fx1, fx2: make_jis(6.84, 9.567, 40.0, 100.0, rho, alpha, pump, fx1, fx2),
    st.sampled_from((0.0, RHO_5050, 1.0 - 2.0**-40, 1.0)) | st.floats(0.0, 1.0),
    st.sampled_from((0.0, 1.0 / SQ2, 1.0 - 2.0**-27, 1.0 - 2.0**-53)) | st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(("P1", "P2")),
    st.sampled_from((-1.0, 1.0)),
    st.sampled_from((-1.0, 1.0)),
)


@PROPERTY
@given(ON_RESONANCE)
def test_closed_form_unitary(config):
    assert check_unitarity(closed_form_from_config(config)) <= 1e-12


# configs at and next to the schema's bounds: rho from the smallest
# subnormal to 1, |alpha| to 1, lines from 5e-324 um to 5 mm, eps_eff to
# 1e6, f_b from just above f_a to 1e6 GHz, and fluxes at the lobe's edges
AT_THE_SCHEMA_EDGES = st.builds(
    lambda rho, alpha, f_b, length, eps_eff, pump, fx1, fx2: make_jis(
        6.84, f_b, 40.0, 100.0, rho, alpha, pump, fx1, fx2, length, eps_eff
    ),
    st.sampled_from((0.0, 5e-324, 1e-170, 1e-20, RHO_5050, 1.0 - 1e-16, 1.0)),
    st.sampled_from((0.0, 1e-300, 0.51, 1.0 - 1e-8, 1.0 - 2.0**-53, 1.0)),
    st.sampled_from((6.84 * (1.0 + 1e-15), 9.567, 50.0, 1e6)),
    st.sampled_from((0.0, 5e-324, 1e-300, 1e-6, 11.283, 5000.0)),
    st.sampled_from((1.0, 7.418, 1e6)),
    st.sampled_from(("P1", "P2")),
    st.sampled_from((-PRIMARY_LOBE_RAD, 0.0, 5e-324, PRIMARY_LOBE_RAD)),
    st.sampled_from((-PRIMARY_LOBE_RAD, 0.0, 5e-324, PRIMARY_LOBE_RAD)),
)


@settings(PROPERTY, max_examples=300)
@given(AT_THE_SCHEMA_EDGES)
# L subnormal but not 0: |alpha| = 1, rho^2 near the underflow and a line
# whose phase is subnormal; the 4-port takes the corner's taps there
@example(make_jis(6.84, 9.567, 40.0, 100.0, 1e-158, 1.0, delay_length_um=1e-310, delay_eps_eff=7.418))
def test_the_4port_is_finite_and_unitary_at_the_schema_edges(config):
    # within 8 eps flat: L and S34 take 1 - l from the line's phase, so a
    # short line as |alpha| -> 1 costs no digits (5 eps the worst over the
    # whole space drawn here)
    matrix = closed_form_from_config(config)
    assert np.isfinite(matrix.s).all()
    assert check_unitarity(matrix) <= 8 * np.finfo(float).eps


@PROPERTY
@given(ON_RESONANCE)
def test_a_double_flux_flip_negates_only_the_cross_entries(config):
    # flipping both fluxes turns phi_s or phi by a whole turn, and sin phi
    # stays: only the half phases in the cross entries turn, by a half turn
    s = closed_form_from_config(config).s
    flipped = replace(config, phi_ext1_rad=-config.phi_ext1_rad, phi_ext2_rad=-config.phi_ext2_rad)
    f = closed_form_from_config(flipped).s
    assert f[:2, :2].tobytes() == s[:2, :2].tobytes()
    assert f[2:, 2:].tobytes() == s[2:, 2:].tobytes()
    # array_equal, as a model zero is written 0.0 either way
    assert np.array_equal(f[:2, 2:], -s[:2, 2:]) and np.array_equal(f[2:, :2], -s[2:, :2])


def test_composed_matches_closed_form_as_rho_goes_to_1():
    # both take the stage's r = (1 - rho)(1 + rho) / (1 + rho^2) from rho;
    # sqrt(1 - t^2) cancels here, 6e-14 relative at rho = 0.975 and 4e-4 at
    # 0.9999999, and S33 = S44 = -r/d is that small
    for rho in (0.975, 0.9999999, 1.0 - 2.0**-40):
        for alpha in (0.3, 0.51, 0.9):
            for pump in ("P1", "P2"):
                cfg = make_jis(6.84, 9.567, 40.0, 100.0, rho, alpha, pump)
                closed, composed = closed_form_from_config(cfg).s, composed_4port(cfg).s
                assert np.max(np.abs(composed - closed)) < 2e-15
                for k in (2, 3):
                    assert abs(composed[k, k] / closed[k, k] - 1.0) < 1e-15


def test_make_jis_and_config_properties():
    cfg = make_jis(6.84, 9.567, 40.0, 100.0, rho=0.3)
    assert cfg.rho == 0.3
    assert cfg.f_a_ghz == 6.84
    assert cfg.f_p_ghz == pytest.approx(2.727)
    # P1 feeds (0, pi/2): quarter turns (0, 1), difference -pi/2 at zero flux
    assert cfg.quarter_turns == (0, 1)
    assert cfg.phi_rad == -np.pi / 2.0
    assert cfg.isolated_direction == "s12"
    # odd flux parity shifts the difference by pi, and so turns the isolation around
    odd = make_jis(6.84, 9.567, 40.0, 100.0, 0.3, phi_ext1_rad=-1.0, phi_ext2_rad=1.0)
    assert odd.phi_rad == -np.pi / 2.0 - np.pi
    assert odd.isolated_direction == "s21"
    # the one stage is the shared fields
    assert cfg.jpc1 == JpcParams(6.84, 9.567, 40.0, 100.0, 0.3)


def _bits(x: float) -> str:
    return float(x).hex()


def test_stage_phases_are_the_float_sums_bit_for_bit():
    # each stage phase is its pump phase q plus 2 n_g quarter turns, and phi
    # is, bit for bit, the float difference of the two stage phases q pi/2 +
    # n_g pi, for both feeds and every pair of flux parities
    for pump, (q1, q2) in (("P1", (0, 1)), ("P2", (1, 0))):
        for fx1, fx2 in ((-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)):
            cfg = make_jis(6.84, 9.567, 40.0, 100.0, 0.3, 0.6, pump, fx1, fx2)
            ph1 = float(q1 * (np.pi / 2.0)) + n_g(fx1) * np.pi
            ph2 = float(q2 * (np.pi / 2.0)) + n_g(fx2) * np.pi
            assert cfg.quarter_turns == (q1 + 2 * n_g(fx1), q2 + 2 * n_g(fx2))
            assert _bits(cfg.phi_rad) == _bits(ph1 - ph2)
            assert cfg.sin_phi == np.sin(ph1 - ph2)


def test_jis_config_validation():
    with pytest.raises(ValueError, match="alpha_mag"):
        JisConfig(6.84, 9.567, 40.0, 100.0, 0.3, alpha_mag=1.5)
    with pytest.raises(ValueError, match="pump_port"):
        JisConfig(6.84, 9.567, 40.0, 100.0, 0.3, alpha_mag=1.5, pump_port="P3")
    # a bad stage field is reported before a bad alpha_mag
    with pytest.raises(ValueError, match="rho"):
        JisConfig(6.84, 9.567, 40.0, 100.0, 1.5, alpha_mag=1.5)
    with pytest.raises(ValueError, match="lobe"):
        JisConfig(6.84, 9.567, 40.0, 100.0, 0.3, phi_ext2_rad=10.0)
    with pytest.raises(ValueError, match="delay"):
        make_jis(6.84, 9.567, 40.0, 100.0, 0.3, delay_length_um=-1.0)
    # the stages are derived, never set
    with pytest.raises(ValueError, match="jpc1"):
        replace(reference_device(), jpc1=reference_device().jpc1)
    with pytest.raises(ValueError, match="quarter_turns"):
        replace(reference_device(), quarter_turns=(1, 0))


def test_with_rho_replaces_both_stages():
    cfg = replace(reference_device(), rho=0.2)
    assert cfg.jpc1.rho == 0.2
    assert cfg.alpha_mag == 0.51
    fresh = reference_device(rho=0.2)
    assert (cfg, cfg.jpc1, cfg.quarter_turns) == (fresh, fresh.jpc1, fresh.quarter_turns)


# the device at f_a over the whole config space: both feeds, all four
# flux-sign pairs, rho and |alpha| over [0, 1] with their edges (rho^2
# underflowing, |alpha| = 1), and no line or lines from subnormal to 5 mm
AT_F_A = st.builds(
    lambda rho, alpha, pump, fx1, fx2, length: make_jis(
        6.84, 9.567, 40.0, 100.0, rho, alpha, pump, fx1, fx2, length, 7.418
    ),
    st.sampled_from((0.0, 5e-324, 1e-170, 1e-160, 1e-20, RHO_5050, 1.0 - 1e-16, 1.0)) | st.floats(0.0, 1.0),
    st.sampled_from((0.0, 0.51, 1.0 - 1e-8, 1.0 - 2.0**-53, 1.0)) | st.floats(0.0, 1.0),
    st.sampled_from(("P1", "P2")),
    st.sampled_from((-1.0, 1.0)),
    st.sampled_from((-1.0, 1.0)),
    st.just(0.0) | st.sampled_from((5e-324, 1e-300, 1e-6, 11.283, 5000.0)) | st.floats(0.0, 5000.0),
)


@settings(PROPERTY, max_examples=400)
@given(AT_F_A)
def test_the_4port_is_the_sweep_at_f_a(config):
    # one signal block: at f = f_a, the centre of the grid, the sweep's S21
    # and S12 are the 4-port's bit for bit (the 4-port writes a zero as
    # 0.0), and S11 = S22 are exact zeros in both
    f = default_grid(config, 600.0, 21)
    assert f[10] == config.f_a_ghz
    sw, four = effective_2port_sweep(config, f), closed_form_from_config(config).s
    assert (np.array([sw.s21[10], sw.s12[10]]) + 0.0).tobytes() == np.array([four[1, 0], four[0, 1]]).tobytes()
    assert four[0, 0] == four[1, 1] == sw.s11[10] == sw.s22[10] == 0.0


def test_pump_off_sweep_is_transparent(reference):
    cfg = replace(reference, rho=0.0)
    sw = effective_2port_sweep(cfg, default_grid(cfg))
    assert np.max(np.abs(np.abs(sw.s21) - 1.0)) < 1e-12
    assert np.max(np.abs(sw.s21 - sw.s12)) < 1e-12
    assert np.max(np.abs(sw.s11)) < 1e-12


def test_reference_sweep_regression(reference):
    sw = effective_2port_sweep(reference, np.array([6.84, 6.90]))
    assert sw.s21[0] == pytest.approx(-0.0008487250866177228 + 0.8945194993502583j, abs=1e-12)
    assert sw.s12[0] == pytest.approx(0.003843384117214062 + 0.3083053377973363j, abs=1e-12)
    assert sw.s21[1] == pytest.approx(-0.5969624048612837 - 0.7900403302176902j, abs=1e-12)
    assert sw.s12[1] == pytest.approx(-0.617036623376534 - 0.7770611547779169j, abs=1e-12)
    assert np.array_equal(sw.s22, sw.s11)


def test_reference_sweep_is_passive(reference):
    sw = effective_2port_sweep(reference, default_grid(reference))
    for entry in (sw.s11, sw.s12, sw.s21, sw.s22):
        assert np.max(np.abs(entry)) <= 1.0 + 1e-12


def test_internal_loop_singularity():
    # pumped just enough that the loop forms: L = 1 - r_b^2 |alpha|^2 is
    # about 4 rho^2 at f_a, formed as a product, so the sweep is finite and
    # passive there; at f_a itself the line is fully coupled, S21 = -S12 = i
    cfg = make_jis(6.84, 9.567, 40.0, 100.0, rho=1e-7, alpha_mag=1.0)
    for f in (default_grid(cfg), default_grid(cfg, 1e-3, 2001), np.array([6.84])):
        sw = effective_2port_sweep(cfg, f)
        for s in (sw.s21, sw.s12):
            assert np.isfinite(s).all() and np.max(np.abs(s)) <= 1.0 + 2 * np.finfo(float).eps
    assert (sw.s21[0], sw.s12[0]) == (1j, -1j)


def test_default_grid():
    cfg = reference_device()
    g = default_grid(cfg, span_mhz=100.0, points=11)
    assert g.shape == (11,)
    assert g[0] == pytest.approx(6.79)
    assert g[-1] == pytest.approx(6.89)
    assert g[5] == pytest.approx(6.84)
    assert default_grid(cfg, points=2).shape == (2,)
    with pytest.raises(ValueError):
        default_grid(cfg, points=1)
    with pytest.raises(ValueError, match=r"less than 13680\)"):
        default_grid(cfg, span_mhz=13680.0)


def test_added_noise_values():
    assert added_noise(1.0) == 0.0
    assert added_noise(8.0 / 9.0) == 0.0625
    assert added_noise(10.0 ** -0.2) == pytest.approx(0.2924, abs=5e-4)
    assert added_noise(0.5) == 0.5
    # monotone: more loss, more added noise
    ts = np.linspace(0.05, 1.0, 50)
    vals = [added_noise(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            added_noise(bad)
