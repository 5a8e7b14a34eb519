import math
from dataclasses import replace

import numpy as np
import pytest

from paramix import analysis
from paramix.analysis import (
    ReadoutChainRecord,
    backaction_report,
    bandwidth_3dB,
    bandwidth_attenuation_scan,
    dip_bandwidth,
    eta_from_separation,
    fit_rho_alpha,
    gamma0,
    isolation_estimate_dB,
    nbar_from_dephasing,
    t_phi,
    theta_from_chi_kappa,
    to_power_dB,
)
from paramix.errors import NoDipError, NumericalError
from paramix.isolator import (
    SweepResult,
    default_grid,
    effective_2port_sweep,
    feed_sin_phi,
    on_resonance_amplitudes,
    on_resonance_powers,
    reference_device,
    swap_twin,
)
from paramix.mixer import RHO_5050


def test_to_power_dB():
    assert to_power_dB(1.0) == 0.0
    assert to_power_dB(0.5) == pytest.approx(-6.020599913279624)
    assert to_power_dB(0.0) == -np.inf
    # a scalar gives numpy's float64, which is a float
    assert isinstance(to_power_dB(0.5j), float)
    arr = to_power_dB(np.array([1.0, 1j, 0.0]))
    assert arr.shape == (3,)
    assert arr[1] == 0.0 and arr[2] == -np.inf


def test_gamma0():
    assert gamma0(40.0, 100.0) == pytest.approx(400.0 / 7.0, abs=1e-12)
    assert gamma0(100.0, 40.0) == gamma0(40.0, 100.0)
    assert gamma0(80.0, 80.0) == 80.0
    for bad in ((0.0, 50.0), (50.0, 0.0)):
        with pytest.raises(ValueError, match="positive"):
            gamma0(*bad)


def _synthetic_sweep(f, power):
    amp = np.sqrt(power)
    one = np.ones_like(amp)
    return SweepResult(f_ghz=f, s11=one, s12=amp, s21=one)


def test_bandwidth_on_piecewise_linear_dip():
    # power L (1 + |f - f0| / w) crosses 2 L exactly at f0 +/- w, and the
    # linear interpolation reproduces that without discretization error
    f0, w, floor = 5.0, 0.01, 0.04
    f = np.linspace(4.95, 5.05, 101)
    power = floor * (1.0 + np.abs(f - f0) / w)
    bw = bandwidth_3dB(_synthetic_sweep(f, power), "s12")
    assert bw.f_dip_ghz == 5.0
    assert bw.floor == pytest.approx(floor, rel=1e-12)
    assert bw.gamma_mhz == pytest.approx(20.0, abs=1e-9)
    # the shortest grid: three points, the outer two exactly at 2 L, which
    # count as reaching it
    bw = dip_bandwidth([4.99, 5.0, 5.01], [0.2, 0.1, 0.2])
    assert (bw.f_dip_ghz, bw.floor) == (5.0, 0.1)
    assert bw.gamma_mhz == pytest.approx(20.0, abs=1e-9)


def test_bandwidth_failure_modes():
    f = np.linspace(4.95, 5.05, 101)
    with pytest.raises(NoDipError, match="grid too short"):
        bandwidth_3dB(_synthetic_sweep(f[:2], f[:2]), "s12")
    for rising in (0.1 + 0.01 * (f - 4.95), 0.1 + 0.01 * (5.05 - f)):
        with pytest.raises(NoDipError, match="edge"):
            bandwidth_3dB(_synthetic_sweep(f, rising), "s12")
    shallow = 0.04 * (1.0 + np.abs(f - 5.0) / 1.0)  # never reaches 2 L
    with pytest.raises(NoDipError, match="not bracketed"):
        bandwidth_3dB(_synthetic_sweep(f, shallow), "s12")
    # 2 L is reached on one side of the dip only, either side
    steep_right = 0.04 * (1.0 + np.where(f > 5.0, (f - 5.0) / 0.01, (5.0 - f) / 1.0))
    for trace in (steep_right, steep_right[::-1]):
        with pytest.raises(NoDipError, match="not bracketed"):
            bandwidth_3dB(_synthetic_sweep(f, trace), "s12")
    with pytest.raises(ValueError, match="direction"):
        bandwidth_3dB(_synthetic_sweep(f, shallow), "s13")


def test_only_a_transmission_is_a_direction(reference):
    # the sweep's reflections are exact zeros, so a reflection "dip" is refused
    # even where a SweepResult carries one
    f = np.linspace(4.95, 5.05, 101)
    dip = np.sqrt(0.04 * (1.0 + np.abs(f - 5.0) / 0.01))
    sweep = SweepResult(f_ghz=f, s11=dip, s12=dip, s21=dip)
    for direction in ("s11", "s22"):
        with pytest.raises(ValueError, match="direction must be s12 or s21"):
            bandwidth_3dB(sweep, direction)
        with pytest.raises(ValueError, match="direction must be s12 or s21"):
            bandwidth_attenuation_scan(reference, [0.3], direction)


def test_a_trace_flat_to_rounding_has_no_dip():
    f = np.linspace(4.95, 5.05, 401)
    # a constant trace with +-1 ulp noise, its minimum inside the grid
    ulp = np.spacing(1.0)
    flat = 1.0 + ulp * np.random.default_rng(7).integers(0, 2, f.size)
    flat[200] = 1.0 - ulp
    with pytest.raises(NoDipError, match="no dip: the trace is flat"):
        dip_bandwidth(f, flat)
    # a spread of exactly _FLAT_ULPS ulps of the maximum is still flat
    flat = np.ones(5)
    flat[2] = 1.0 - analysis._FLAT_ULPS * ulp
    with pytest.raises(NoDipError, match="no dip: the trace is flat"):
        dip_bandwidth(f[:5], flat)


def test_reference_dip_regression(reference):
    sweep = effective_2port_sweep(reference, default_grid(reference, 200.0, 401))
    bw = bandwidth_3dB(sweep, "s12")
    assert abs(bw.f_dip_ghz - 6.84) < 2e-3
    assert bw.gamma_mhz == pytest.approx(17.1325424, abs=1e-6)
    assert bw.floor == pytest.approx(0.0950669529, abs=1e-9)


def test_scan_matches_single_extractions(reference):
    rhos = [0.30, 0.40]
    scan = bandwidth_attenuation_scan(reference, rhos, "s12", default_grid(reference, 300.0, 1001))
    assert len(scan) == 2
    for rho, (sqrt_l, gamma) in zip(rhos, scan):
        cfg = replace(reference, rho=rho)
        bw = bandwidth_3dB(
            effective_2port_sweep(cfg, default_grid(cfg, 300.0, 1001)), "s12"
        )
        assert sqrt_l == pytest.approx(math.sqrt(bw.floor), abs=1e-15)
        assert gamma == pytest.approx(bw.gamma_mhz, abs=1e-12)
    # deeper dip (larger rho here) is narrower
    assert scan[1][0] < scan[0][0]
    assert scan[1][1] < scan[0][1]


def test_scan_defaults_to_the_isolated_direction():
    # the P2 feed isolates S21; its S12 has no dip to bracket
    device = reference_device(pump_port="P2")
    f = default_grid(device, 300.0, 1001)
    scan = bandwidth_attenuation_scan(device, [0.3, 0.4], f_ghz=f)
    assert scan == bandwidth_attenuation_scan(device, [0.3, 0.4], "s21", f)
    with pytest.raises(NoDipError, match="not bracketed"):
        bandwidth_attenuation_scan(device, [0.3], "s12", f)


def test_fit_recovers_reference_point():
    p21, p12 = on_resonance_powers(RHO_5050, 0.51, -1)
    fit = fit_rho_alpha(float(p21), float(p12))
    assert fit.rho == pytest.approx(RHO_5050, abs=1e-6)
    assert fit.alpha_mag == pytest.approx(0.51, abs=1e-6)
    assert fit.residual < 1e-15
    assert fit.alpha_identifiable


def test_fit_round_trip_reproduces_measurements(rng):
    for _ in range(10):
        rho, alpha = rng.uniform(0.1, 0.9, size=2)
        p21, p12 = on_resonance_powers(rho, alpha, -1)
        fit = fit_rho_alpha(float(p21), float(p12))
        m21, m12 = on_resonance_powers(fit.rho, fit.alpha_mag, -1)
        assert abs(m21 - p21) < 1e-9 and abs(m12 - p12) < 1e-9
        assert fit.residual < 1e-15


def test_fit_pump_port_two():
    p21, p12 = on_resonance_powers(0.3, 0.6, 1)
    fit = fit_rho_alpha(float(p21), float(p12), pump_port="P2")
    assert fit.rho == pytest.approx(0.3, abs=1e-6)
    assert fit.alpha_mag == pytest.approx(0.6, abs=1e-6)


def test_fit_returns_the_canonical_twin_for_both_feeds():
    # (0.5, 0.9) and its swap twin (0.2294157, 0.6) give the same powers;
    # the fit returns the twin that sorts lower, whichever feed made them
    p21, p12 = on_resonance_powers(0.5, 0.9, -1)
    fits = [fit_rho_alpha(float(p21), float(p12), "P1"), fit_rho_alpha(float(p12), float(p21), "P2")]
    for fit in fits:
        assert fit.rho == pytest.approx(0.2294157, abs=1e-6)
        assert fit.alpha_mag == pytest.approx(0.6, abs=1e-6)


class _NoSearch:
    """Stands in for `analysis.optimize`: any use of the search fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the fit searched: optimize.{name}")


def _edge_weighted(rng, n):
    """n draws from [0, 1]: uniform, log-uniform toward 0, toward 1, and 0 or 1 exactly."""
    kind = rng.integers(0, 4, n)
    near = 10.0 ** rng.uniform(-12.0, 0.0, n)
    return np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.uniform(0.0, 1.0, n), near, 1.0 - near],
        rng.choice([0.0, 1.0], n),
    )


def test_fit_inverts_the_forward_model_in_closed_form(monkeypatch):
    # fit(forward(rho, alpha)) is (rho, alpha) or its swap twin, whichever
    # sorts lower, and reproduces the pair, without the search. A pass power
    # of exactly 1 (the rho = 0 and |alpha| = 1 edges) is left out: (1, 1)
    # has no |alpha|, and the fit clamps the unattained edge below it, whose
    # point can miss the pair in the forward model's last bits and search
    # (test_a_pair_on_the_pass_power_edge_keeps_the_search)
    monkeypatch.setattr(analysis, "optimize", _NoSearch())
    rng = np.random.default_rng(27)
    rho, alpha = _edge_weighted(rng, 1600), _edge_weighted(rng, 1600)
    for port in ("P1", "P2"):
        p21, p12 = on_resonance_powers(rho, alpha, feed_sin_phi(port))
        deficit = 1.0 - np.maximum(p21, p12)
        kept = np.flatnonzero(deficit > 0.0)
        assert kept.size >= 1000
        for k in kept:
            fit = fit_rho_alpha(float(p21[k]), float(p12[k]), port)
            want = min((rho[k], alpha[k]), swap_twin(rho[k], alpha[k]))
            # the inverse's condition number grows as 1 / deficit toward (1, 1)
            tol = 4.0 * np.finfo(float).eps / deficit[k]
            assert fit.residual < 1e-18 and fit.alpha_identifiable
            assert abs(fit.rho - want[0]) <= tol and abs(fit.alpha_mag - want[1]) <= tol


def test_the_fit_writes_the_residual_of_its_point_and_loses_alpha_only_at_one_one(monkeypatch):
    # over on-image forward pairs and pairs a few ulps off the image, without
    # the search: the residual written is that of the point written, and
    # |alpha| is not identifiable, and written 0, only for a pair projected
    # to exactly (1, 1), the one pair whose powers do not depend on |alpha|.
    # A pass power of exactly 1 over a smaller isolated one lies on the
    # image's unattained edge and can search, so forward pairs there are
    # left out (test_a_pair_on_the_pass_power_edge_keeps_the_search).
    monkeypatch.setattr(analysis, "optimize", _NoSearch())
    pairs = [
        ("P1", 1.0000000000000004, 0.9986640651161274),  # a pass power 2 ulps above 1, |alpha| next to 1
        ("P1", 0.9999999990955883, 0.9999999971660354),  # rho = 2e-5, 1 - p_pass = 1e-9
        ("P2", 0.25 + 2.0**-54, 0.25),
        ("P1", 0.5, 0.5 + 2.0**-53),
        ("P1", 1.0, 1.0),
        ("P2", 1.0 + 1e-9, 1.0),
        ("P1", 1.0, 1.0 + 4e-16),
        ("P2", 1.0 + 1e-9, 1.0 + 1e-9),
    ]
    rng = np.random.default_rng(31)
    rho, alpha = _edge_weighted(rng, 400), _edge_weighted(rng, 400)
    for port in ("P1", "P2"):
        p21, p12 = on_resonance_powers(rho, alpha, feed_sin_phi(port))
        kept = (np.maximum(p21, p12) < 1.0) | (p21 == p12)
        pairs += [(port, float(a), float(b)) for a, b in zip(p21[kept], p12[kept])]
    assert len(pairs) >= 600
    for port, p21, p12 in pairs:
        fit = fit_rho_alpha(p21, p12, port)
        assert fit.residual == analysis._residuals(fit.rho, fit.alpha_mag, p21, p12, feed_sin_phi(port))
        assert fit.alpha_identifiable == (min(p21, p12) < 1.0), (port, p21, p12)
        if not fit.alpha_identifiable:
            assert (fit.rho, fit.alpha_mag) == (0.0, 0.0)


def test_pairs_by_the_pass_power_edge_are_solved_without_the_search(monkeypatch):
    # seeded edge-weighted draws by (rho, |alpha|) = (0, 1), 1 - p_pass < 1e-15,
    # that the forward model made from points with refl < conv; the fit
    # returns their power-equivalent lower twin, r >= |alpha| and so
    # refl >= conv, and reproduces each pair within _FIT_EXACT_TOL
    monkeypatch.setattr(analysis, "optimize", _NoSearch())
    pairs = [("P1", 1.0, 0.9898953951415206), ("P1", 0.9999999999999998, 0.051492390845431286)]
    pairs += [("P2", 0.9188618437531054, 0.9999999999999998), ("P2", 0.011591704009005006, 1.0)]
    for port, p21, p12 in pairs:
        fit = fit_rho_alpha(p21, p12, port)
        refl, conv = on_resonance_amplitudes(fit.rho, fit.alpha_mag)
        assert fit.residual < 1e-18 and refl >= conv, (port, p21, p12)
        assert (fit.rho, fit.alpha_mag) <= tuple(swap_twin(fit.rho, fit.alpha_mag))


def test_the_search_agrees_with_the_closed_form():
    rng = np.random.default_rng(2027)
    points = [(0.5, 0.9)] + [tuple(rng.uniform(0.02, 0.98, 2)) for _ in range(19)]
    for k, (rho, alpha) in enumerate(points):
        port = ("P1", "P2")[k % 2]
        sin_phi = feed_sin_phi(port)
        p21, p12 = (float(p) for p in on_resonance_powers(rho, alpha, sin_phi))
        fit = fit_rho_alpha(p21, p12, port)
        # (0.5, 0.9): the grid holds only the basin of the twin that sorts
        # higher, and the search returns the lower twin of what it polished
        _, rho_s, alpha_s = analysis._search(p21, p12, sin_phi)
        assert (rho_s, alpha_s) == pytest.approx((fit.rho, fit.alpha_mag), abs=1e-9), (rho, alpha, port)


def test_a_pair_on_the_pass_power_edge_keeps_the_search():
    # on P2, (0.5, 1.0) puts the pass power at 1, which only paths into the
    # corner (rho, |alpha|) = (0, 1) approach with refl - conv free; the
    # inverse of the pass power clamped below 1 misses the pair by more than
    # _FIT_EXACT_TOL in the forward model's last bits, so the pair still
    # runs the search, which finds no smaller residual: the inverse's point,
    # the lower twin, is written
    rho, alpha = analysis._lower_twin(math.nextafter(1.0, 0.0), 0.5)
    assert analysis._residuals(rho, alpha, 0.5, 1.0, feed_sin_phi("P2")) >= analysis._FIT_EXACT_TOL
    fit = fit_rho_alpha(0.5, 1.0, "P2")
    assert fit.rho == pytest.approx(4.67142862e-05, rel=1e-8)
    assert fit.alpha_mag == pytest.approx(0.999999975, abs=1e-9)
    assert fit.residual == pytest.approx(3.96207385e-18, rel=1e-8)
    assert fit.alpha_identifiable


def test_the_pass_edge_pairs_return_the_lower_twin_on_both_feeds():
    # on the feed whose pass power is 1 the pair keeps the search, on the
    # other it lies off the image (p_iso > p_pass); either way the fit
    # writes the twin that sorts lower and the residual of the point written
    for port in ("P1", "P2"):
        for pair in ((0.5, 1.0), (1.0, 0.5)):
            fit = fit_rho_alpha(*pair, port)
            assert (fit.rho, fit.alpha_mag) <= tuple(swap_twin(fit.rho, fit.alpha_mag)), (port, pair)
            m21, m12 = on_resonance_powers(fit.rho, fit.alpha_mag, feed_sin_phi(port))
            assert abs((m21 - pair[0]) ** 2 + (m12 - pair[1]) ** 2 - fit.residual) <= 1e-18


def _above_the_diagonal(rng, n):
    """n (P, I) power pairs with I > P: inside [0, 1]^2, with I in (1, 1 + 1e-9], next to the diagonal and next to (1, 1)."""
    pairs = []
    while len(pairs) < n:
        kind = len(pairs) % 4
        p = float(rng.uniform())
        if kind == 0:
            i = float(rng.uniform(p, 1.0))
        elif kind == 1:
            i = 1.0 + 1e-9 * float(rng.uniform())
        elif kind == 2:
            i = p + p * 10.0 ** float(rng.uniform(-16.0, -6.0))
        else:
            d = 10.0 ** float(rng.uniform(-16.0, -9.0))
            p, i = 1.0 - d, 1.0 + d * float(rng.uniform(-1.0, 1.0))
        if i > p:
            pairs.append((p, i))
    return pairs


def test_a_pair_off_the_image_is_written_as_its_projection_without_the_search(monkeypatch):
    # with the isolated power I above the pass power P, the Euclidean
    # projection onto the image is their mean m on both powers, clipped to
    # 1, whose exact point is |alpha| = 0 and rho = sqrt(1 - m) / (1 +
    # sqrt m); m = 1 is the non-identifiable (0, 0). The least-squares
    # search used to beat the exact point of each fixed pair by rounding in
    # the residual's last bits, and wrote |alpha| 6.2e-23 on P1 and 2.8e-20
    # on P2
    def no_search(*args):
        raise AssertionError(f"the fit searched {args}")

    monkeypatch.setattr(analysis, "_search", no_search)
    fixed = {"P1": (0.9643154148210649, 1.00000000071721), "P2": (0.6011373090194535, 0.8312883760863574)}
    rng = np.random.default_rng(35)
    for port in ("P1", "P2"):
        sin_phi = feed_sin_phi(port)
        for p, i in [fixed[port]] + _above_the_diagonal(rng, 200):
            p21, p12 = (i, p) if sin_phi > 0 else (p, i)
            m = min((p + i) / 2.0, 1.0)
            fit = fit_rho_alpha(p21, p12, port)
            assert (fit.rho, fit.alpha_mag) == (math.sqrt(1.0 - m) / (1.0 + math.sqrt(m)), 0.0), (port, p21, p12)
            assert fit.alpha_identifiable == (m < 1.0)
            assert fit.residual == analysis._residuals(fit.rho, fit.alpha_mag, p21, p12, sin_phi)


def test_a_pair_with_p_below_one_below_i_is_projected_by_its_unclipped_mean():
    # the projection takes the mean before the clip: clipping I to 1 first
    # puts rho at 0.0908784387 on this pair, 7e-9 relative off the
    # least-squares point, with a larger residual. A pair whose unclipped
    # mean is 1 or more projects to (1, 1), which has no |alpha|
    pair = (0.9350068508498127, 1.0000000009468257)
    mean = sum(pair) / 2.0
    fit = fit_rho_alpha(*pair, "P1")
    assert (fit.rho, fit.alpha_mag) == analysis._lower_twin(mean, mean)
    assert (fit.rho, fit.alpha_mag) == (pytest.approx(0.0908784380, abs=1e-10), 0.0)
    assert fit.residual < analysis._residuals(0.09087843865885965, 0.0, *pair, feed_sin_phi("P1"))
    for port, pair in (("P1", (0.9999999995, 1.000000001)), ("P2", (1.000000001, 0.9999999995))):
        fit = fit_rho_alpha(*pair, port)
        assert (fit.rho, fit.alpha_mag, fit.alpha_identifiable) == (0.0, 0.0, False), port


def test_the_fit_batch_pass_edge_pairs_still_search(monkeypatch):
    # P = 1 with I < 1 is the edge the image approaches but never attains;
    # the inverse of the pass power clamped below 1 misses the pair there,
    # so the pair keeps the search. The benchmark's fit-batch pass-edge jobs
    # (clipped-P1-s21 and clipped-P2-s12) are the only fit jobs long enough
    # for its 50 ms speed probe to fire, and a pass with no probe crashes
    # the benchmark (ROADMAP item 1); the search leaves with item 2 after it
    searched = []

    def search(*args):
        searched.append(args)
        return math.inf, 0.0, 0.0

    monkeypatch.setattr(analysis, "_search", search)
    for port, pair in (("P1", (1.0, 0.5)), ("P2", (0.5, 1.0))):
        fit = fit_rho_alpha(*pair, port)
        assert searched.pop() == (*pair, feed_sin_phi(port)) and not searched
        assert (fit.rho, fit.alpha_mag) == analysis._lower_twin(math.nextafter(1.0, 0.0), 0.5)


def test_fit_equal_powers_picks_decoupled_line():
    # |S21|^2 = |S12|^2 forces zero conversion to the internal line; the
    # smallest-alpha tie-break then pins alpha at 0 with r = 1/2
    fit = fit_rho_alpha(0.25, 0.25)
    assert fit.rho == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)
    assert fit.alpha_mag < 1e-6
    assert fit.residual < 1e-15
    assert fit.alpha_identifiable


def test_fit_full_transmission_leaves_alpha_unidentified():
    fit = fit_rho_alpha(1.0, 1.0)
    assert fit.rho < 1e-6
    assert fit.alpha_mag == 0.0
    assert not fit.alpha_identifiable


def test_fit_input_validation():
    with pytest.raises(ValueError, match="s21_sq"):
        fit_rho_alpha(-0.1, 0.5)
    with pytest.raises(ValueError, match="s12_sq"):
        fit_rho_alpha(0.5, 1.2)
    with pytest.raises(ValueError, match="pump_port"):
        fit_rho_alpha(0.5, 0.5, pump_port="P3")
    # a power rounded up to 1e-9 above 1 is accepted
    assert not fit_rho_alpha(1.0 + 1e-9, 1.0 + 1e-9).alpha_identifiable


def test_the_ends_of_the_pass_edge_are_closed_form_roots(monkeypatch):
    # (0, 0) is exactly the full converter rho = 1 with |alpha| = 0; a pair
    # 1e-10 below (1, 1) in its isolated power is the corner's approach
    # along rho -> 0 with |alpha| near 1, and is identifiable; only (1, 1)
    # itself has powers that do not depend on |alpha|
    monkeypatch.setattr(analysis, "optimize", _NoSearch())
    for port, near_one in (("P1", (1.0, 1.0 - 1e-10)), ("P2", (1.0 - 1e-10, 1.0))):
        fit = fit_rho_alpha(0.0, 0.0, port)
        assert (fit.rho, fit.alpha_mag, fit.residual, fit.alpha_identifiable) == (1.0, 0.0, 0.0, True)
        fit = fit_rho_alpha(*near_one, port)
        assert fit.rho == pytest.approx(1.623015e-7, rel=1e-6) and fit.alpha_mag == pytest.approx(0.99789488, abs=1e-8)
        assert fit.residual < 1e-30 and fit.alpha_identifiable
        fit = fit_rho_alpha(1.0, 1.0, port)
        assert (fit.rho, fit.alpha_mag, fit.residual, fit.alpha_identifiable) == (0.0, 0.0, 0.0, False)


def test_theta_from_chi_kappa():
    assert theta_from_chi_kappa(0.94, 1.1) == pytest.approx(81.031, abs=2e-3)
    assert theta_from_chi_kappa(1.0, 1.0) == pytest.approx(90.0, abs=1e-12)
    for bad in ((-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            theta_from_chi_kappa(*bad)


def test_eta_from_separation():
    theta = theta_from_chi_kappa(0.94, 1.1)
    eta = eta_from_separation(1.55, 2.0, 1.1, 1.0, theta)
    assert eta == pytest.approx(0.2059, abs=1e-3)
    with pytest.raises(ValueError, match="positive"):
        eta_from_separation(0.0, 2.0, 1.1, 1.0, theta)
    with pytest.raises(ValueError, match="nonzero"):
        eta_from_separation(1.55, 2.0, 1.1, 1.0, 0.0)
    # (I/sigma)^2 / (2 nbar kappa T sin^2(theta/2)) with 2 pi x 1 MHz, T = 2 us, theta = 90 deg
    assert eta_from_separation(1.0, 1.0, 1.0, 2.0, 90.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)


def test_t_phi():
    assert t_phi(60.0, 54.0) == pytest.approx(6480.0 / 66.0)
    assert t_phi(math.inf, 54.0) == pytest.approx(54.0)
    for bad in ((0.0, 10.0), (10.0, 0.0)):
        with pytest.raises(ValueError, match="positive"):
            t_phi(*bad)
    with pytest.raises(NumericalError, match="no measurable dephasing"):
        t_phi(10.0, 20.0)
    with pytest.raises(NumericalError):
        t_phi(10.0, 25.0)
    # 1 / T2E overflows: T_phi would underflow to 0
    with pytest.raises(NumericalError, match="dephasing rate is out of range"):
        t_phi(60.0, 1e-320)
    # T_phi overflows to inf: the rate would be 0
    with pytest.raises(NumericalError, match="dephasing rate is out of range"):
        t_phi(1e308, 1.5e308)


def test_nbar_from_dephasing():
    # occupancy-to-rate conversion is linear, so nbar(T) T is constant
    n1 = nbar_from_dephasing(10.0, 1.1, 0.94)
    n2 = nbar_from_dephasing(20.0, 1.1, 0.94)
    assert n1 == pytest.approx(2.0 * n2, rel=1e-12)
    assert nbar_from_dephasing(math.inf, 1.1, 0.94) == 0.0
    for bad in ((-1.0, 1.1, 0.94), (0.0, 1.1, 0.94), (10.0, 0.0, 0.94), (10.0, 1.1, 0.0)):
        with pytest.raises(ValueError):
            nbar_from_dephasing(*bad)


def test_isolation_estimate():
    assert isolation_estimate_dB(0.04, 0.002) == pytest.approx(13.0103, abs=1e-4)
    assert isolation_estimate_dB(0.5, 0.5) == 0.0
    for bad in ((0.0, 0.1), (0.1, 0.0)):
        with pytest.raises(ValueError, match="positive"):
            isolation_estimate_dB(*bad)


def _chain_records():
    mk = lambda label, t1, t2e, jis, jda: ReadoutChainRecord(
        label=label, t1_us=t1, t2e_us=t2e, kappa_mhz=1.1, chi_mhz=0.94, jis=jis, jda=jda
    )
    return [
        mk("bare", 60.0, 54.0, "off", "off"),
        mk("jis only", 63.0, 55.0, "on", "off"),
        mk("jda only", 55.0, 6.0, "off", "on"),
        mk("full chain", 65.0, 40.0, "on", "on"),
    ]


def test_backaction_report_values():
    report = backaction_report(_chain_records())
    tphi = [r.t_phi_us for r in report.rows]
    assert tphi == pytest.approx([98.1818, 97.6056, 6.3462, 57.7778], abs=5e-4)
    assert report.nbar_th == pytest.approx(0.003492, abs=1e-5)
    assert report.rows[0].nbar_ba == 0.0
    assert report.rows[2].nbar_ba == pytest.approx(0.050528, abs=1e-5)
    assert report.rows[3].nbar_ba == pytest.approx(0.002442, abs=1e-5)
    # the amplifier-on pair isolates the effect of the isolator itself
    assert report.isolation_db == pytest.approx(13.158, abs=5e-3)
    assert [r.label for r in report.rows] == [rec.label for rec in _chain_records()]
    for row, rec in zip(report.rows, _chain_records()):
        assert row.gamma_phi_per_us == pytest.approx(1.0 / row.t_phi_us, rel=1e-12)
        assert row.jis == rec.jis and row.jda == rec.jda


def test_backaction_report_edge_cases():
    single = backaction_report(_chain_records()[:1])
    assert single.isolation_db is None
    assert single.rows[0].nbar_ba == 0.0
    with pytest.raises(ValueError, match="at least one record"):
        backaction_report([])
    # records without chain flags never produce an isolation figure
    bare = ReadoutChainRecord(label="x", t1_us=60.0, t2e_us=54.0, kappa_mhz=1.1, chi_mhz=0.94)
    report = backaction_report([bare, bare])
    assert report.isolation_db is None
    assert report.rows[1].jis is None
    # an amplifier-on row with no excess over the baseline gives no isolation figure
    base, _, _, full = _chain_records()
    same = replace(base, label="jda, no excess", jda="on")
    report = backaction_report([base, same, full])
    assert report.rows[1].nbar_ba == 0.0
    assert report.isolation_db is None
    # nor does an isolator-on row with no excess
    jda_only = _chain_records()[2]
    report = backaction_report([base, jda_only, replace(same, jis="on")])
    assert report.rows[2].nbar_ba == 0.0
    assert report.isolation_db is None
