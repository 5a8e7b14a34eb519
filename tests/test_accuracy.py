"""Accuracy contracts against 40-digit re-derivations.

Each reference value is computed with mpmath from the model equations, never
by calling the float code it checks. A float x is correctly rounded to a
real value v when |x - v| < ulp(x) / 2 (v is irrational here, so no tie).
Each bound holds over the whole input domain named in its test; the draws
are derandomized and weighted toward the domain's edges.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st
from mpmath import mp

from paramix.analysis import _lower_twin, gamma0, nbar_from_dephasing, t_phi, to_power_dB
from paramix.errors import NumericalError, SingularResponseError
from paramix.isolator import (
    JisConfig,
    closed_form_from_config,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    on_resonance_amplitudes,
    on_resonance_powers,
    swap_twin,
)
from paramix.mixer import RHO_5050, JpcParams, JrmParams, amplitudes_of_frequency, amplitudes_on_resonance, flux_tuning_curve, turn_phasor
from paramix.network import HYBRID, delay_phase_rad, lossy_coupler
from paramix.parity import GyratorSpec, chain_transmission


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


def test_the_hybrid_entry_is_one_ulp_below_root_half():
    with mp.workdps(40):
        root_half = mpmath.sqrt(mpmath.mpf(1) / 2)
        c = float(HYBRID.s[0, 2].real)
        assert np.all(np.abs(HYBRID.s[HYBRID.s != 0]) == c)
        # the float above c is root half correctly rounded
        assert mpmath.mpf(c) < root_half
        assert _ulps(math.nextafter(c, 1.0), root_half) < 0.5
    # so an odd chain, which carries 2 c^2, has |t| = 1 - 2^-52 and not 1
    assert 2.0 * c * c == 1.0 - 2.0**-52
    odd = chain_transmission([(GyratorSpec("odd"),)])[0]
    assert abs(odd) == 1.0 - 2.0**-52


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.floats(0.0, 1.0))
def test_t_on_resonance_is_within_two_ulp(rho):
    with mp.workdps(40):
        r = mpmath.mpf(rho)
        assert _ulps(amplitudes_on_resonance(rho)[0], 2 * r / (1 + r * r)) <= 2.0


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from((0.975, 0.9999999, 1.0 - 2.0**-40, 1.0)) | st.floats(0.0, 1.0))
def test_the_stage_reflection_is_within_3_ulp(rho):
    # (1 - rho)(1 + rho) keeps its digits as rho -> 1, where sqrt(1 - t^2)
    # is 4e-4 off at rho = 0.9999999; rho = 1 gives exactly r = 0
    r = amplitudes_on_resonance(rho)[1]
    with mp.workdps(40):
        x = mpmath.mpf(rho)
        exact = (1 - x * x) / (1 + x * x)
        assert r == 0.0 if exact == 0 else _ulps(r, exact) <= 3.0


CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def _weighted(lo: float, hi: float, *edges: float):
    """Floats in [lo, hi], a share of them drawn from the ends and the given edges."""
    return st.one_of(st.sampled_from((lo, hi) + edges), st.floats(lo, hi))


def _rho():
    # 1 - rho^2 cancels in sqrt(1 - t^2) as rho -> 1
    return _weighted(0.0, 1.0, RHO_5050, 1e-9, 0.975, 0.9999999, 1.0 - 2.0**-40)


def _four_port(rho, alpha, k1, k2, theta):
    """The 4-port at f_a, in mpmath, from rho, |alpha|, the quarter turns and the line's phase theta.

    With l = e^{i theta}, alpha_c = |alpha| l, beta^2 = (1 - |alpha|)(1 + |alpha|)
    and the loop denominator L = 1 - r^2 alpha_c^2, returned beside the rows
    (None where L = 0).
    """
    rho, alpha = mpmath.mpf(rho), mpmath.mpf(alpha)
    t, r = 2 * rho / (1 + rho**2), (1 - rho) * (1 + rho) / (1 + rho**2)
    beta2 = (1 - alpha) * (1 + alpha)
    ell = mpmath.expj(theta)
    a_c = alpha * ell
    loop = 1 - (r * a_c) ** 2
    if loop == 0:
        return None, loop
    phi = (k1 - k2) * mpmath.pi / 2
    s11, sin_phi = -1j * a_c * t**2 * mpmath.cos(phi) / loop, mpmath.sin(phi)
    s21 = 1j * (r * (1 - a_c**2) - a_c * t**2 * sin_phi) / loop
    s12 = 1j * (r * (1 - a_c**2) + a_c * t**2 * sin_phi) / loop
    conv = alpha * (1 - (r * ell) ** 2) / loop
    # each stage's conversion phasor e^{i k pi/2}; the cross entries carry t beta / (sqrt2 L)
    q1, q2 = mpmath.expjpi(mpmath.mpf(k1) / 2), mpmath.expjpi(mpmath.mpf(k2) / 2)
    pre = -t * mpmath.sqrt(beta2 / 2) / loop
    ra, c = r * a_c, mpmath.conj
    rows = [
        [s11, s12, ell * pre * (c(q1) + 1j * ra * c(q2)), pre * (ra * c(q1) + 1j * c(q2))],
        [s21, s11, ell * pre * (1j * c(q1) + ra * c(q2)), pre * (1j * ra * c(q1) + c(q2))],
        [ell * pre * (q1 + 1j * ra * q2), ell * pre * (1j * q1 + ra * q2), -r * beta2 * ell**2 / loop, conv],
        [pre * (1j * q2 + ra * q1), pre * (q2 + 1j * ra * q1), conv, -r * beta2 / loop],
    ]
    return rows, loop


@settings(CONTRACT, max_examples=120)
@given(
    _rho(),
    st.sampled_from((0.0, 0.51, 0.99, 1.0 - 1e-6, 1.0)),
    st.sampled_from(("P1", "P2")),
    st.sampled_from((0.0, 11.283)),
)
def test_the_4port_takes_r_from_rho(rho, alpha, pump_port, delay_um):
    # over rho in [0, 1], |alpha| in [0, 1] and the preset's line or none,
    # given the line's float phase (delay_phase_rad, pinned below): with no
    # line every entry is within 6.7e-16 (3 ulp of 1) of the model and
    # S33 = S44 = -r beta^2 / L, which is small as rho -> 1, within 2e-15
    # relative. With the line the bound holds up to |alpha| = 0.51; from
    # 0.99 on it is 4 eps / |L| (5.6e-15 at 0.99, 8.5e-15 at 1 - 1e-6), as
    # the rounding of alpha_c = |alpha| l, absolute, is divided by |L|.
    config = JisConfig(6.84, 9.567, 40.0, 100.0, rho, alpha, pump_port, delay_length_um=delay_um, delay_eps_eff=7.418)
    theta = delay_phase_rad(delay_um, 7.418, config.f_a_ghz + config.f_p_ghz)
    s = closed_form_from_config(config).s
    with mp.workdps(40):
        exact, loop = _four_port(rho, alpha, *config.quarter_turns, theta)
        if loop == 0:
            # rho = 0 with |alpha| = 1 and no line: the pump-off transparency
            assert s[0, 1] == s[1, 0] == 1j and s[2, 2] == s[3, 3] == -1.0
            return
        bound = 6.7e-16 if theta == 0.0 or alpha <= 0.51 else 4 * np.finfo(float).eps / abs(loop)
        for i in range(4):
            for j in range(4):
                assert abs(mpmath.mpc(complex(s[i, j])) - exact[i][j]) <= bound, (i, j)
        for k in (2, 3):
            if exact[k][k] == 0:
                assert s[k, k] == 0.0
            elif theta == 0.0:
                assert abs(mpmath.mpc(complex(s[k, k])) / exact[k][k] - 1) <= 2e-15


def test_the_composed_4port_keeps_its_digits_as_alpha_nears_1():
    # with beta = sqrt(1 - alpha^2) the coupler was 5.5e-12 relative off at
    # |alpha| = 1 - 1e-6, and composed_4port 9.5e-15 off the model here
    config = JisConfig(6.84, 9.567, 40.0, 100.0, 0.58, 1.0 - 1e-6)
    s = composed_4port(config).s
    with mp.workdps(40):
        exact, _ = _four_port(0.58, 1.0 - 1e-6, *config.quarter_turns, 0)
        assert max(abs(mpmath.mpc(complex(s[i, j])) - exact[i][j]) for i in range(4) for j in range(4)) <= 1e-15


@settings(CONTRACT)
@given(_weighted(0.0, 1.0, 0.51, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53))
def test_the_coupler_branch_is_within_2_ulp(alpha):
    # beta = sqrt((1 - alpha)(1 + alpha)) keeps its digits as alpha -> 1
    beta = lossy_coupler(alpha).s[0, 2].real
    with mp.workdps(40):
        a = mpmath.mpf(alpha)
        exact = mpmath.sqrt(1 - a * a)
        assert beta == 0.0 if exact == 0 else _ulps(beta, exact) <= 2.0


def _unit():
    """[0, 1] with a share drawn from 1e-16 to 1 away from either edge, and both edges exactly."""
    near = st.floats(-16.0, 0.0).map(lambda e: 10.0**e)
    return st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0), near, near.map(lambda d: 1.0 - d))


@settings(CONTRACT, max_examples=300)
@given(_unit(), _unit(), st.sampled_from((1, -1)))
def test_the_on_resonance_powers_are_within_6_eps(rho, alpha, sin_phi):
    # the fit's forward model over [0, 1]^2 (3.8 eps the worst seen over
    # 40,000 edge-weighted draws). Exactly (rho, |alpha|) = (0, 1) is a
    # decoupled line with powers (1, 1), the limit of every path into it.
    got = on_resonance_powers(rho, alpha, sin_phi)
    with mp.workdps(40):
        x, a = mpmath.mpf(rho), mpmath.mpf(alpha)
        t, r = 2 * x / (1 + x * x), (1 - x * x) / (1 + x * x)
        # 1 - r^2 a^2 with r^2 = 1 - t^2: 40 digits hold where it cancels to 4e-32
        loop = (1 - a * a) + a * a * t * t
        if loop == 0:
            assert rho == 0.0 and alpha == 1.0 and got == (1.0, 1.0)
            assert on_resonance_amplitudes(rho, alpha) == (1.0, 0.0)
            return
        refl, conv = r * (1 - a * a) / loop, a * t * t / loop
        for p, exact in zip(got, ((refl - sin_phi * conv) ** 2, (refl + sin_phi * conv) ** 2)):
            assert abs(mpmath.mpf(p) - exact) <= 6 * np.finfo(float).eps


@settings(CONTRACT, max_examples=200)
@given(_unit(), _unit())
def test_the_swap_twin_is_within_3_ulp(rho, alpha):
    # (rho of r = |alpha|, r of rho): 1.2 and 2.4 ulp the worst seen
    twin = swap_twin(rho, alpha)
    with mp.workdps(40):
        x, a = mpmath.mpf(rho), mpmath.mpf(alpha)
        for got, exact in zip(twin, (mpmath.sqrt((1 - a) / (1 + a)), (1 - x * x) / (1 + x * x))):
            assert got == 0.0 if exact == 0 else _ulps(float(got), exact) <= 3.0


@settings(CONTRACT, max_examples=300)
@given(_unit().map(lambda p: min(p, 1.0 - 1e-16)), _unit().map(lambda p: min(p, 1.0 - 1e-16)))
def test_the_fit_inverse_is_within_2_eps(u, v):
    # the fit's exact inverse of an on-image pair 0 <= I <= P < 1: with A, B
    # = atanh sqrt P, atanh sqrt I, the lower twin is rho = e^-(A + B)/2 and
    # |alpha| = tanh((A - B)/2); rho within 2 eps relative and |alpha| within
    # 2 eps absolute (1.24 and 1.20 the worst seen over 30,000 edge-weighted
    # pairs). P = 1 - 1e-16 is the float below 1, where the fit clamps P = 1.
    p_pass, p_iso = max(u, v), min(u, v)
    rho, alpha = _lower_twin(p_pass, p_iso)
    eps = np.finfo(float).eps
    with mp.workdps(40):
        a, b = mpmath.atanh(mpmath.sqrt(p_pass)), mpmath.atanh(mpmath.sqrt(p_iso))
        exact = mpmath.exp(-(a + b) / 2)
        assert abs(rho - exact) <= 2 * eps * exact
        assert abs(alpha - mpmath.tanh((a - b) / 2)) <= 2 * eps


def _stage(f1, params):
    """(t, r_a, r_b) of one stage at signal frequency f1, in mpmath."""
    x = (mpmath.mpf(f1) - mpmath.mpf(params.f_a_ghz)) * 1000
    ca = 1 - 2j * x / mpmath.mpf(params.gamma_a_mhz)
    cb = 1 - 2j * x / mpmath.mpf(params.gamma_b_mhz)
    r2 = mpmath.mpf(params.rho) ** 2
    den = ca * cb + r2
    return 2 * mpmath.mpf(params.rho) / den, (mpmath.conj(ca) * cb - r2) / den, (ca * mpmath.conj(cb) - r2) / den


@settings(CONTRACT, max_examples=100)
@given(_rho(), _weighted(-300.0, 300.0, 0.0, 1e-9, -1e-9))
def test_the_stage_amplitudes_are_within_8e_16(rho, detuning_mhz):
    # t, r_a and r_b, each of magnitude at most 1, over +-300 MHz around
    # f_a of the preset stage
    params = JpcParams(6.84, 9.567, 40.0, 100.0, rho)
    f1 = params.f_a_ghz + detuning_mhz * 1e-3
    got = amplitudes_of_frequency(f1, params)
    with mp.workdps(40):
        for g, e in zip(got, _stage(f1, params)):
            assert abs(mpmath.mpc(complex(g)) - e) <= 8e-16


@settings(CONTRACT, max_examples=40)
@given(
    _rho(),
    _weighted(0.0, 1.0, 0.51, 0.99, 1.0 - 1e-6),
    st.booleans(),
    st.sampled_from(("P1", "P2")),
    _weighted(0.0, 5000.0, 11.283),
)
def test_the_sweep_kernel_is_within_6_eps_over_its_loop(rho, alpha, at_null, pump_port, delay_um):
    # S21 and S12 of effective_2port_sweep on a 21-point grid over 600 MHz
    # centred on f_a, given the line's float phase at f + f_p: within
    # 6 eps / |L| absolute, L = 1 - r_b^2 alpha_c^2 the loop denominator
    # (3.1 eps / |L| seen over 6,000 random points). No relative bound holds
    # at a null: with no line, rho = sqrt((1 - a) / (1 + a)) darkens the
    # isolated direction at f_a, the grid's centre point.
    if at_null:
        rho = math.sqrt((1.0 - alpha) / (1.0 + alpha))
    config = JisConfig(6.84, 9.567, 40.0, 100.0, rho, alpha, pump_port, delay_length_um=delay_um, delay_eps_eff=7.418)
    f = default_grid(config, 600.0, 21)
    try:
        s = effective_2port_sweep(config, f)
    except SingularResponseError:
        # the loop clamp: |alpha| = 1 with the pump off and no line
        assert alpha == 1.0 and rho == 0.0
        return
    if at_null and delay_um == 0.0:
        assert abs(getattr(s, config.isolated_direction)[10]) < 1e-15
    theta = delay_phase_rad(delay_um, 7.418, f + config.f_p_ghz)
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for k in range(f.size):
            t, r_a, r_b = _stage(f[k], config.jpc1)
            a_c = alpha * mpmath.expj(theta[k])
            loop = 1 - r_b**2 * a_c**2
            refl = r_a - r_b * a_c**2 * t**2 / loop
            conv = config.sin_phi * a_c * t**2 / loop
            bound = 6 * eps / abs(loop)
            assert abs(mpmath.mpc(complex(s.s21[k])) - 1j * (refl - conv)) <= bound, k
            assert abs(mpmath.mpc(complex(s.s12[k])) - 1j * (refl + conv)) <= bound, k


@settings(CONTRACT)
@given(_weighted(0.0, 5000.0, 1e-6, 11.283), _weighted(1.0, 20.0, 7.418), _weighted(0.01, 50.0, 9.567))
def test_the_delay_phase_is_within_6_ulp(length_um, eps_eff, freq_ghz):
    # a length below about 1e-302 um is subnormal in metres and keeps only
    # its leading bits; there the bound is 1e-300 rad absolute
    got = delay_phase_rad(length_um, eps_eff, freq_ghz)
    with mp.workdps(40):
        f, l = mpmath.mpf(freq_ghz) * 10**9, mpmath.mpf(length_um) / 10**6
        exact = 2 * mpmath.pi * f * mpmath.sqrt(mpmath.mpf(eps_eff)) * l / 299792458
        assert abs(mpmath.mpf(got) - exact) <= 6 * math.ulp(got) + 1e-300


@settings(CONTRACT, max_examples=120)
@given(_weighted(1e-3, 1.999, 1.0), _weighted(-16.0, 0.0, -15.0), st.sampled_from((1.0, -1.0)), _weighted(0.05, 10.0, 0.1))
def test_the_flux_tuning_curve_near_its_divergence(lj0_over_l, log_gap, sign, i0_ua):
    # phi where d = lj0_over_l / 2 + cos(phi / 4) is about 10^log_gap: within eps (1 + 1/d)
    # relative, raising only for d < 4 eps; below i0_ua ~ 0.18 no geometric inductance
    jrm, eps = JrmParams(i0_ua=i0_ua, lj0_over_l=lj0_over_l), np.finfo(float).eps
    phi = sign * 4.0 * math.acos(10.0**log_gap - lj0_over_l / 2.0)
    with mp.workdps(40):
        half, i0 = mpmath.mpf(lj0_over_l) / 2, mpmath.mpf(jrm.i0_ua) / 10**6
        lj0 = mpmath.mpf("2.067833848e-15") / (2 * mpmath.pi * i0) * 10**9
        # the loop's inductance at zero flux: geometric (at least 0), stray and ring
        l_ring0 = lj0 / (half + 1)
        l_zero = max(lj0 / mpmath.mpf(jrm.lj0_over_ls) + l_ring0, jrm.z_res_ohm / (4 * mpmath.mpf(jrm.f_max_ghz)))
        d = half + mpmath.cos(mpmath.mpf(phi) / 4)
        try:
            got = flux_tuning_curve(phi, jrm)
        except NumericalError:
            assert d < 4 * eps
            return
        assert d > -4 * eps
        if d > 0:
            exact = jrm.f_max_ghz * mpmath.sqrt(l_zero / (l_zero - l_ring0 + lj0 / d))
            assert abs(mpmath.mpf(got) - exact) <= eps * (1 + 1 / d) * exact


@settings(CONTRACT)
@given(_weighted(1e-6, 1e6, 40.0), _weighted(1e-6, 1e6, 100.0))
def test_gamma0_is_within_3_ulp(gamma_a_mhz, gamma_b_mhz):
    with mp.workdps(40):
        a, b = mpmath.mpf(gamma_a_mhz), mpmath.mpf(gamma_b_mhz)
        assert _ulps(gamma0(gamma_a_mhz, gamma_b_mhz), 2 * a * b / (a + b)) <= 3.0


@settings(CONTRACT)
@given(_weighted(-150.0, 150.0, 0.0, 1e-9, -1e-9), st.floats(-math.pi, math.pi))
def test_the_power_in_dB_is_within_5e_15_plus_2_ulp(log10_mag, angle):
    # |s| from 1e-150 to 1e150; near 0 dB the error is absolute, not relative
    s = complex(10.0**log10_mag * math.cos(angle), 10.0**log10_mag * math.sin(angle))
    got = to_power_dB(s)
    with mp.workdps(40):
        exact = 10 * mpmath.log10(abs(mpmath.mpc(s)) ** 2)
        assert abs(mpmath.mpf(got) - exact) <= 5e-15 + 2 * math.ulp(got)
    assert to_power_dB(0j) == -math.inf


@settings(CONTRACT)
@given(_weighted(1e-3, 1e6, 60.0), _weighted(1e-6, 1.0, 0.45, 0.5, 1.0 - 1e-9))
def test_t_phi_is_within_3_ulp(t1_us, fraction):
    # T2E from 1e-6 of the 2 T1 ceiling up to the float just below it, where
    # 1/T2E - 1/(2 T1) cancels to nothing
    t2e_us = min(2.0 * t1_us * fraction, math.nextafter(2.0 * t1_us, 0.0))
    with mp.workdps(40):
        t1, t2e = mpmath.mpf(t1_us), mpmath.mpf(t2e_us)
        assert _ulps(t_phi(t1_us, t2e_us), 2 * t1 * t2e / (2 * t1 - t2e)) <= 3.0
    assert t_phi(math.inf, t2e_us) == t2e_us


@settings(CONTRACT)
@given(_weighted(1e-3, 1e6, 98.0), _weighted(1e-3, 1e3, 1.1), _weighted(1e-3, 1e3, 0.94))
def test_nbar_from_dephasing_is_within_8_ulp(t_phi_us, kappa_mhz, chi_mhz):
    with mp.workdps(40):
        kappa, chi = 2 * mpmath.pi * mpmath.mpf(kappa_mhz), 2 * mpmath.pi * mpmath.mpf(chi_mhz)
        exact = (kappa**2 + chi**2) / (mpmath.mpf(t_phi_us) * kappa * chi**2)
        assert _ulps(nbar_from_dephasing(t_phi_us, kappa_mhz, chi_mhz), exact) <= 8.0
