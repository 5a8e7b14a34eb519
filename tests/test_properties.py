"""Invariants of the swept signal 2-port and the on-resonance 4-port over
the whole device config space, on derandomized hypothesis draws of full
`jis` devices swept on 201 points over 600 MHz around f_a: the benchmark's
ranges (delay 0-20 um, eps_eff 1-10, |alpha| 0.05-0.95, any rho, both
feeds, either flux sign per stage), and for the network-composed checks
|alpha| up to 0.99 and delays up to 5 mm.
"""

import itertools
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramix import cli
from paramix.isolator import (
    _composed,
    _line,
    closed_form_from_config,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    grid_chunks,
    make_jis,
    reference_device,
)
from paramix.mixer import PRIMARY_LOBE_RAD, amplitudes_of_frequency
from paramix.network import delay_phase_rad
from paramix.schemas import SCHEMA_TAG

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
def device_fields(draw):
    """The fields of a full `jis` config, as make_jis and the CLI take them."""
    f_a = draw(st.floats(5.0, 8.0))
    return dict(
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


def devices():
    return device_fields().map(lambda fields: make_jis(**fields))


def sweep(config):
    return effective_2port_sweep(config, default_grid(config, 600.0, 201))


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


def composed_sweep(config, f):
    """(F, 4, 4) stack of _composed over the grid f, a graph per chunk, its line at the phase of f + f_p."""
    out = np.empty((f.size, 4, 4), dtype=complex)
    for part in grid_chunks(f.size):
        line = np.exp(1j * delay_phase_rad(config.delay_length_um, config.delay_eps_eff, f[part] + config.f_p_ghz))
        out[part] = _composed(config, *amplitudes_of_frequency(f[part], config.jpc1), line).s
    return out


# |alpha| up to 0.99 and delays up to 5 mm, so the line turns the loop by
# several radians: the kernel is checked away from resonance and zero delay
@settings(PROPERTY, max_examples=50)
@given(device_fields(), st.floats(0.0, 0.99), st.just(0.0) | st.floats(0.0, 5000.0))
def test_the_sweep_kernel_is_the_network_composed_sweep(fields, alpha, delay_um):
    config = make_jis(**{**fields, "alpha_mag": alpha, "delay_length_um": delay_um})
    f = default_grid(config, 600.0, 201)
    sweep = effective_2port_sweep(config, f)
    s = composed_sweep(config, f)
    np.testing.assert_allclose(s[:, 1, 0], sweep.s21, rtol=0, atol=TOL)
    np.testing.assert_allclose(s[:, 0, 1], sweep.s12, rtol=0, atol=TOL)
    assert np.max(np.abs(s[:, 0, 0])) < TOL and np.max(np.abs(s[:, 1, 1])) < TOL


# both feeds and all four flux-parity pairs (the signs of the two fluxes)
@pytest.mark.parametrize("pump, sign1, sign2", itertools.product(("P1", "P2"), (-1.0, 1.0), (-1.0, 1.0)))
@settings(PROPERTY, max_examples=10)
@given(device_fields(), st.floats(0.0, 0.99), st.floats(0.0, 5000.0))
def test_the_composed_sweep_is_unitary_and_the_closed_form_at_f_a(pump, sign1, sign2, fields, alpha, delay_um):
    fluxes = dict(phi_ext1_rad=sign1 * abs(fields["phi_ext1_rad"]), phi_ext2_rad=sign2 * abs(fields["phi_ext2_rad"]))
    config = make_jis(**{**fields, **fluxes, "pump_port": pump, "alpha_mag": alpha, "delay_length_um": delay_um})
    # passivity off resonance, of every port and not only the signal ones
    s = composed_sweep(config, default_grid(config, 600.0, 201))
    assert np.max(np.abs(s.conj().transpose(0, 2, 1) @ s - np.eye(4))) <= TOL
    free = replace(config, delay_length_um=0.0)
    s = composed_sweep(free, np.array([free.f_a_ghz]))[0]
    np.testing.assert_allclose(s, closed_form_from_config(free).s, rtol=0, atol=TOL)


def test_the_4port_is_the_composed_device_at_f_a_with_its_line():
    for pump, delay_um in itertools.product(("P1", "P2"), (1e-3, 11.283, 700.0, 5000.0)):
        config = replace(reference_device(pump_port=pump), delay_length_um=delay_um)
        s = composed_sweep(config, np.array([config.f_a_ghz]))[0]
        np.testing.assert_allclose(closed_form_from_config(config).s, s, rtol=0, atol=TOL)


def model_zero_parts(s, line):
    """The parts of the 4-port at f_a that are zero in the model.

    S11 and S22 whole. With no line also the real parts of S21 and S12, the
    imaginary parts of the port 3/4 block, and of each cross entry between
    the signal ports and ports 3/4 the smaller part (the larger one is
    checked against composed_4port).
    """
    zeros = [s[0, 0].real, s[0, 0].imag, s[1, 1].real, s[1, 1].imag]
    if line:
        return zeros
    cross = [s[i, j] for i in range(4) for j in range(4) if (i < 2) != (j < 2)]
    return (
        zeros
        + [s[1, 0].real, s[0, 1].real]
        + [s[i, j].imag for i in (2, 3) for j in (2, 3)]
        + [min(z.real, z.imag, key=abs) for z in cross]
    )


# delays drawn from 0.0 up, so a share of them are subnormal lengths: their
# phases are tiny nonzero values, not zeros, and only S11 and S22 are model
# zeros there as for any line
@PROPERTY
@given(devices(), st.booleans())
def test_the_closed_form_4port_has_exact_model_zeros(config, delay):
    if not delay:
        config = replace(config, delay_length_um=0.0)
    s = closed_form_from_config(config).s
    np.testing.assert_allclose(s, composed_4port(config).s, rtol=0, atol=1e-12)
    zeros = model_zero_parts(s, _line(config, config.f_a_ghz)[0] != 1.0)
    assert zeros == [0.0] * len(zeros)
    parts = np.concatenate([s.real.ravel(), s.imag.ravel()])
    assert not np.any(np.signbit(parts[parts == 0.0])), "a model zero is -0.0"


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


# rho 0 or at least 1e-6: with no line a smaller rho gives entries of order
# t ~ 2 rho that the model does not zero and that print below 1e-15; the
# matrix test above draws every rho. With a line only S11 and S22 are model
# zeros, and any part may be small.
@settings(PROPERTY, max_examples=25)
@given(device_fields(), st.just(0.0) | st.floats(1e-6, 1.0), st.booleans())
def test_the_4port_files_print_model_zeros_as_zero(fields, rho, delay):
    fields["rho"] = rho
    if not delay:
        fields["delay_length_um"] = 0.0
    config = make_jis(**fields)
    line = _line(config, config.f_a_ghz)[0] != 1.0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"schema": SCHEMA_TAG, "jis": fields}))
        for fmt in ("touchstone", "csv", "json"):
            assert cli.main(["jis-4port", "--config", str(cfg), "--out", tmp, "--format", fmt]) == 0
        rows = [row.split(",") for row in (Path(tmp) / "jis_4port.csv").read_text().splitlines()[1:]]
        assert [row[2:] for row in rows if row[0] == row[1] in ("1", "2")] == [["0", "0"]] * 2
        for name in ("jis_4port.s4p", "jis_4port.csv", "jis_4port.json"):
            for text in NUMBER.findall((Path(tmp) / name).read_text()):
                value = float(text)
                assert (value == 0.0 and not text.startswith("-")) or line or abs(value) >= 1e-15, (name, text)
