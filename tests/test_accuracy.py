"""Accuracy contracts of the phasor constants, against 40-digit re-derivations.

Each reference value is computed with mpmath from the model equations, never
by calling the float code it checks. A float x is correctly rounded to a
real value v when |x - v| < ulp(x) / 2 (v is irrational here, so no tie).
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st
from mpmath import mp

from paramix.isolator import _EIGHTH_PHASOR
from paramix.mixer import t_on_resonance, turn_phasor
from paramix.network import HYBRID
from paramix.parity import ChainSpec, GyratorSpec, chain_transmission


def _ulps(x: float, exact) -> float:
    """Distance of x from exact, in units of x's last place."""
    return float(abs(mpmath.mpf(x) - exact) / mpmath.mpf(math.ulp(x)))


def test_the_quarter_table_is_exact():
    with mp.workdps(40):
        for k in range(4):
            true = mpmath.expjpi(mpmath.mpf(k) / 2)
            for part, value in ((turn_phasor(k).real, true.real), (turn_phasor(k).imag, true.imag)):
                # an integer float within 1e-35 of the true part is that part
                assert part == mpmath.nint(value) and abs(value - part) < mpmath.mpf("1e-35")


def test_the_oracle_eighth_turn_is_root_half_correctly_rounded():
    with mp.workdps(40):
        root_half = mpmath.sqrt(mpmath.mpf(1) / 2)
        assert _EIGHTH_PHASOR.real == _EIGHTH_PHASOR.imag
        assert _ulps(_EIGHTH_PHASOR.real, root_half) < 0.5


def test_the_hybrid_entry_is_one_ulp_below_root_half():
    with mp.workdps(40):
        c = float(HYBRID.s[0, 2].real)
        assert np.all(np.abs(HYBRID.s[HYBRID.s != 0]) == c)
        assert mpmath.mpf(c) < mpmath.sqrt(mpmath.mpf(1) / 2)
        assert math.nextafter(c, 1.0) == _EIGHTH_PHASOR.real
    # so an odd chain, which carries 2 c^2, has |t| = 1 - 2^-52 and not 1
    assert 2.0 * c * c == 1.0 - 2.0**-52
    odd = chain_transmission([ChainSpec((GyratorSpec("odd"),))])[0]
    assert abs(odd) == 1.0 - 2.0**-52


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.floats(0.0, 1.0))
def test_t_on_resonance_is_within_two_ulp(rho):
    with mp.workdps(40):
        r = mpmath.mpf(rho)
        assert _ulps(t_on_resonance(rho), 2 * r / (1 + r * r)) <= 2.0
