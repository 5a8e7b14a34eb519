"""Acceptance battery: one test per shipped criterion.

The criteria live in paramix.acceptance so `paramix selftest` and this
module exercise the identical checks; the session's `battery` fixture
(conftest.py) runs them once and each verdict is its own pass/fail line.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from paramix import acceptance
from paramix.analysis import _refl_conv


def _check(battery, number):
    r = battery[number]
    assert r.passed, f"criterion {number} ({r.name}) failed: {r.detail}"


def test_criterion_01_closed_form_working_point(battery):
    _check(battery, 1)


def test_criterion_02_pump_off_transparency(battery):
    _check(battery, 2)


def test_criterion_03_unitarity_sampling(battery):
    _check(battery, 3)


def test_criterion_04_model_cross_equivalence(battery):
    _check(battery, 4)


def test_criterion_05_directionality(battery):
    _check(battery, 5)


def test_criterion_06_added_noise(battery):
    _check(battery, 6)


def test_criterion_07_bandwidth_attenuation_law(battery):
    _check(battery, 7)


def test_criterion_08_fit_round_trip(battery):
    _check(battery, 8)


def test_criterion_09_readout_backaction(battery):
    _check(battery, 9)


def test_criterion_10_parity_chains(battery):
    _check(battery, 10)


def test_criterion_11_sweep_properties(battery):
    _check(battery, 11)


def test_criterion_12_determinism(battery):
    _check(battery, 12)


def test_rendered_table_shape(battery):
    text = acceptance.render_table(sorted(battery.values(), key=lambda r: r.number))
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
