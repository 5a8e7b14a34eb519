"""Acceptance battery: one test per shipped criterion.

The criteria live in paramix.acceptance so `paramix selftest` and this
module exercise the identical checks; the suite here runs them once and
reports each verdict as its own pass/fail line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramix import acceptance
from paramix.analysis import _refl_conv


@pytest.fixture(scope="module")
def results():
    out = {r.number: r for r in acceptance.run_all()}
    assert sorted(out) == list(range(1, 13))
    return out


def _check(results, number):
    r = results[number]
    assert r.passed, f"criterion {number} ({r.name}) failed: {r.detail}"


def test_criterion_01_closed_form_working_point(results):
    _check(results, 1)


def test_criterion_02_pump_off_transparency(results):
    _check(results, 2)


def test_criterion_03_unitarity_sampling(results):
    _check(results, 3)


def test_criterion_04_model_cross_equivalence(results):
    _check(results, 4)


def test_criterion_05_directionality(results):
    _check(results, 5)


def test_criterion_06_added_noise(results):
    _check(results, 6)


def test_criterion_07_bandwidth_attenuation_law(results):
    _check(results, 7)


def test_criterion_08_fit_round_trip(results):
    _check(results, 8)


def test_criterion_09_readout_backaction(results):
    _check(results, 9)


def test_criterion_10_parity_chains(results):
    _check(results, 10)


def test_criterion_11_sweep_properties(results):
    _check(results, 11)


def test_criterion_12_determinism(results):
    _check(results, 12)


def test_rendered_table_shape(results):
    text = acceptance.render_table(sorted(results.values(), key=lambda r: r.number))
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("#")
    assert sum(1 for ln in lines if " PASS " in ln or " FAIL " in ln) == 12
    assert lines[-1] == "12/12 criteria passed"


# rho stays 0.01 clear of 0: (rho, alpha) = (0, 1) is a path-dependent 0/0
# of both amplitudes, and the round trip recovers rho from r = 1 - O(rho^2),
# which loses about eps / rho in double precision.
@settings(derandomize=True, max_examples=400, deadline=None)
@given(rho=st.floats(0.01, 1.0), alpha=st.floats(0.0, 1.0))
def test_swap_twin_exchanges_reflected_and_converted(rho, alpha):
    refl, conv = _refl_conv(rho, alpha)
    twin = acceptance._swap_twin(rho, alpha)
    refl_t, conv_t = _refl_conv(*twin)
    assert abs(refl_t - conv) < 1e-12 and abs(conv_t - refl) < 1e-12
    back = acceptance._swap_twin(*twin)
    assert abs(back[0] - rho) < 1e-12 and abs(back[1] - alpha) < 1e-12
