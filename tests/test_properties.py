"""Invariants of the swept signal 2-port over the whole device config space.

Hypothesis draws full `jis` devices over the ranges the benchmark draws
from (delay 0-20 um, eps_eff 1-10, |alpha| 0.05-0.95, any rho, both pump
feeds, either flux sign in each stage) and sweeps each on a 201-point grid
spanning 600 MHz around f_a. The draws are derandomized, so every run sees
the same configs.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paramix.isolator import default_grid, effective_2port_sweep, make_jis
from paramix.mixer import PRIMARY_LOBE_RAD, amplitudes_of_frequency
from paramix.network import delay_phase_rad

TOL = 1e-12
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# a nonzero flux inside the primary lobe: only its sign sets the stage's
# parity, and an exact zero counts as negative, so negating it flips nothing
FLUX = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.floats(1e-3, 0.95 * PRIMARY_LOBE_RAD),
    st.booleans(),
)


@st.composite
def devices(draw):
    f_a = draw(st.floats(5.0, 8.0))
    return make_jis(
        f_a_ghz=f_a,
        f_b_ghz=f_a + draw(st.floats(1.5, 4.0)),
        gamma_a_mhz=draw(st.floats(20.0, 80.0)),
        gamma_b_mhz=draw(st.floats(50.0, 200.0)),
        rho=draw(st.floats(0.0, 1.0)),
        alpha_mag=draw(st.floats(0.05, 0.95)),
        pump_port=draw(st.sampled_from(["P1", "P2"])),
        phi_ext1_rad=draw(FLUX),
        phi_ext2_rad=draw(FLUX),
        delay_length_um=draw(st.floats(0.0, 20.0)),
        delay_eps_eff=draw(st.floats(1.0, 10.0)),
    )


def sweep(config):
    return effective_2port_sweep(config, default_grid(config, 600.0, 201))


@PROPERTY
@given(devices())
def test_the_swept_2port_is_passive(config):
    s = sweep(config)
    # the power leaving ports 1 and 2 per unit drive into either port
    assert np.max(np.abs(s.s11) ** 2 + np.abs(s.s21) ** 2) <= 1.0 + TOL
    assert np.max(np.abs(s.s12) ** 2 + np.abs(s.s22) ** 2) <= 1.0 + TOL


@PROPERTY
@given(devices())
def test_swapping_the_pump_feed_swaps_the_transmissions(config):
    s = sweep(config)
    swapped = sweep(replace(config, pump_port="P2" if config.pump_port == "P1" else "P1"))
    np.testing.assert_allclose(np.abs(swapped.s21), np.abs(s.s12), rtol=0, atol=TOL)
    np.testing.assert_allclose(np.abs(swapped.s12), np.abs(s.s21), rtol=0, atol=TOL)


@PROPERTY
@given(devices())
def test_flipping_both_fluxes_changes_nothing(config):
    s = sweep(config)
    flipped = sweep(replace(config, phi_ext1_rad=-config.phi_ext1_rad, phi_ext2_rad=-config.phi_ext2_rad))
    for name in ("s11", "s12", "s21", "s22"):
        np.testing.assert_allclose(getattr(flipped, name), getattr(s, name), rtol=0, atol=TOL)


def general_phase_transmissions(config, f):
    """(S21, S12) of the sweep written for any phase phi, through e^{+-i phi}."""
    t, r_a, r_b = amplitudes_of_frequency(f, config.jpc1)
    alpha = config.alpha_mag * np.exp(
        1j * delay_phase_rad(config.delay_length_um, config.delay_eps_eff, f + config.f_p_ghz)
    )
    loop = 1.0 - r_b**2 * alpha**2
    phi = config.phi_rad
    s12_in = -alpha * t**2 * np.exp(-1j * phi) / loop
    s21_in = -alpha * t**2 * np.exp(1j * phi) / loop
    s11_in = r_a - r_b * alpha**2 * t**2 / loop
    return 1j * s11_in + (s21_in - s12_in) / 2.0, 1j * s11_in + (s12_in - s21_in) / 2.0


@PROPERTY
@given(devices())
def test_the_quarter_turn_kernel_is_the_general_phase_form(config):
    f = default_grid(config, 600.0, 201)
    s = effective_2port_sweep(config, f)
    assert np.all(s.s11 == 0.0) and np.all(s.s22 == 0.0)
    s21, s12 = general_phase_transmissions(config, f)
    scale = 1e-14 * max(np.max(np.abs(s21)), np.max(np.abs(s12)))
    np.testing.assert_allclose(s.s21, s21, rtol=0, atol=scale)
    np.testing.assert_allclose(s.s12, s12, rtol=0, atol=scale)
    assert config.isolated_direction == ("s21" if np.sin(config.phi_rad) > 0.0 else "s12")
