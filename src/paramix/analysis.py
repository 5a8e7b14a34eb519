"""Sweep metrics, working-point fitting, and readout backaction bookkeeping.

Unit conventions: frequencies GHz, linewidths and dispersive quantities are
cyclic MHz unless a name says otherwise, times us. Angular rates (rad/us)
are formed internally as 2 pi times a cyclic MHz value; decay rates are
1/us throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NoDipError,
    NumericalError,
    UnbracketedBandwidthError,
)
from .isolator import (
    JisConfig,
    SweepResult,
    default_grid,
    effective_2port_sweep,
    feed_sin_phi,
    grid_chunks,
    on_resonance_powers,
    swap_twin,
)


def to_power_dB(s) -> np.ndarray | float:
    """Power 10 log10 |s|^2 of a complex amplitude; zero maps to -inf."""
    mag2 = np.abs(np.asarray(s)) ** 2
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(mag2)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(out)
    return out


def gamma0(gamma_a_mhz: float, gamma_b_mhz: float) -> float:
    """Zero-depth dip linewidth 2 gamma_a gamma_b / (gamma_a + gamma_b), MHz."""
    if not (gamma_a_mhz > 0.0 and gamma_b_mhz > 0.0):
        raise ValueError("linewidths must be positive")
    return 2.0 * gamma_a_mhz * gamma_b_mhz / (gamma_a_mhz + gamma_b_mhz)


# A trace whose spread is within this many ulps of its maximum holds no dip:
# with the pump off, |S12|^2 spreads up to 9 ulps around 1 from rounding.
_FLAT_ULPS = 32


@dataclass(frozen=True)
class BandwidthResult:
    """Dip location, width, and floor of one sweep direction."""

    f_dip_ghz: float
    gamma_mhz: float
    floor: float


def _crossing(f: np.ndarray, y: np.ndarray, i_lo: int, i_hi: int, target: float) -> float:
    """Linear interpolation of the frequency where y crosses target."""
    y0, y1 = y[i_lo], y[i_hi]
    if y1 == y0:
        return float(f[i_lo])
    w = (target - y0) / (y1 - y0)
    return float(f[i_lo] + w * (f[i_hi] - f[i_lo]))


def _check_direction(direction: str) -> None:
    # only a transmission can hold a dip: the sweep's S11 = S22 are exact zeros
    if direction not in ("s12", "s21"):
        raise ValueError("direction must be s12 or s21")


def dip_bandwidth(f_ghz, power) -> BandwidthResult:
    """Width of the dip in a power trace |S|^2 over f_ghz, 3 dB above its minimum.

    The dip floor L is the minimum of the power over the grid; the width is
    the distance between the two interpolated crossings of 2 L. Raises
    NoDipError("no dip") when the trace is flat to rounding or its minimum
    sits on a grid edge, and UnbracketedBandwidthError when either crossing
    lies outside the grid.
    """
    f = np.asarray(f_ghz, dtype=float)
    y = np.asarray(power, dtype=float)
    if f.size < 3:
        raise NoDipError("no dip: grid too short")
    top = float(y.max())
    if top - float(y.min()) <= _FLAT_ULPS * np.spacing(top):
        raise NoDipError("no dip: the trace is flat to rounding")
    i0 = int(np.argmin(y))
    if i0 == 0 or i0 == f.size - 1:
        raise NoDipError("no dip: minimum sits on the sweep edge")
    floor = float(y[i0])
    target = 2.0 * floor

    # the last point at or above 2 L before the minimum, the first one after it
    above_left = np.flatnonzero(y[:i0] >= target)
    above_right = np.flatnonzero(y[i0 + 1 :] >= target)
    if above_left.size == 0 or above_right.size == 0:
        raise UnbracketedBandwidthError("3 dB points not bracketed by the sweep")
    j = int(above_left[-1])
    left = _crossing(f, y, j, j + 1, target)
    j = i0 + 1 + int(above_right[0])
    right = _crossing(f, y, j - 1, j, target)
    return BandwidthResult(
        f_dip_ghz=float(f[i0]), gamma_mhz=(right - left) * 1e3, floor=floor
    )


def bandwidth_3dB(sweep: SweepResult, direction: str = "s12") -> BandwidthResult:
    """The `dip_bandwidth` of one direction of a sweep."""
    _check_direction(direction)
    return dip_bandwidth(sweep.f_ghz, np.abs(getattr(sweep, direction)) ** 2)


def bandwidth_attenuation_scan(
    config: JisConfig,
    rho_values,
    direction: str | None = None,
    f_ghz=None,
) -> list[tuple[float, float]]:
    """(sqrt(dip floor), dip width in MHz) for each pump strength.

    Each sweep runs on f_ghz, by default `default_grid(config)` (the pump
    strength does not move it), one grid chunk at a time, and keeps only
    the power of the one direction, by default the isolated one
    (`config.isolated_direction`). The extracted width follows
    gamma = gamma0 sqrt(L): deeper dips are narrower. Every rho supplied must
    produce a dip whose 3 dB points are bracketed by the grid (floor below
    1/2 of the off-dip level).
    """
    if direction is None:
        direction = config.isolated_direction
    _check_direction(direction)
    f = np.asarray(default_grid(config) if f_ghz is None else f_ghz, dtype=float)
    power = np.empty_like(f)
    out = []
    for rho in rho_values:
        point = replace(config, rho=float(rho))
        for part in grid_chunks(f.size):
            power[part] = np.abs(getattr(effective_2port_sweep(point, f[part]), direction)) ** 2
        bw = dip_bandwidth(f, power)
        out.append((math.sqrt(bw.floor), bw.gamma_mhz))
    return out


class _LazyOptimize:
    """`scipy.optimize`, imported on the first attribute read.

    Only the fit's search uses scipy, and a fit runs it only for a pair on
    or within a few ulps of the pass-power edge P = 1 with I < 1 whose
    inverse point misses its projection (`fit_rho_alpha`). Importing it
    costs about 0.5 s and 48 MB, so every other command and every other
    fit, a pair off the model's image and (1, 1) included, run without
    it. Each attribute read is cached on this object, so
    `optimize.least_squares` can be looked up and replaced like a module
    attribute (the benchmark's tracer wraps it there). Delete it together
    with scipy once the search is gone too (ROADMAP item 2).
    """

    def __getattr__(self, name):
        from scipy import optimize as scipy_optimize

        value = getattr(scipy_optimize, name)
        setattr(self, name, value)
        return value


optimize = _LazyOptimize()


# Step of the fit's coarse (rho, |alpha|) grid, and the squared power
# residual below which a point reproduces its pair exactly.
_FIT_GRID_STEP = 0.005
_FIT_GRID = np.arange(0.0, 1.0 + _FIT_GRID_STEP / 2.0, _FIT_GRID_STEP)
_FIT_EXACT_TOL = 1e-18


@dataclass(frozen=True)
class FitResult:
    """Working point recovered from an on-resonance transmission pair."""

    rho: float
    alpha_mag: float
    residual: float
    alpha_identifiable: bool


def _residuals(rho, alpha, s21_sq: float, s12_sq: float, sin_phi: int):
    """Summed squared power residual of (rho, alpha) against the pair."""
    m21, m12 = on_resonance_powers(rho, alpha, sin_phi)
    return (m21 - s21_sq) ** 2 + (m12 - s12_sq) ** 2


def _search(s21_sq: float, s12_sq: float, sin_phi: int) -> tuple[float, float, float]:
    """(residual, rho, alpha) of the least-squares fit of the pair over [0, 1]^2.

    A coarse grid over [0, 1]^2, then bounded refinement of the summed squared
    residual from every candidate basin; the residual returned is that of the
    point returned.
    """
    rr, aa = np.meshgrid(_FIT_GRID, _FIT_GRID, indexing="ij")
    res = _residuals(rr, aa, s21_sq, s12_sq, sin_phi)

    # the power pair is blind to the sign of the matched-direction amplitude
    # refl - conv, so two separated exact minima can coexist (amplitudes
    # swapped, swap_twin); polish every candidate basin, then return the
    # best point or its twin, whichever has the smaller rho, then the
    # smaller alpha, so the returned point is deterministic
    res_min = float(res.min())
    cut = max(res_min * 1e6, res_min + 1e-6)
    n0, n1 = res.shape
    padded = np.pad(res, 1, constant_values=np.inf)
    is_min = np.ones_like(res, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            is_min &= res <= padded[1 + di : 1 + di + n0, 1 + dj : 1 + dj + n1]
    cand_idx = np.flatnonzero(is_min.ravel() & (res.ravel() <= cut))
    cand_idx = cand_idx[np.argsort(res.ravel()[cand_idx], kind="stable")]
    starts = []
    for idx in cand_idx:
        cand = (float(rr.flat[idx]), float(aa.flat[idx]))
        if all((cand[0] - s[0]) ** 2 + (cand[1] - s[1]) ** 2 > 0.02**2 for s in starts):
            starts.append(cand)
        if len(starts) >= 12:
            break

    def resid_vec(x):
        p21, p12 = on_resonance_powers(x[0], x[1], sin_phi)
        return [p21 - s21_sq, p12 - s12_sq]

    polished = []
    for rho0, alpha0 in starts:
        sol = optimize.least_squares(
            resid_vec,
            x0=[rho0, alpha0],
            bounds=([0.0, 0.0], [1.0, 1.0]),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        polished.append((float(sol.fun[0] ** 2 + sol.fun[1] ** 2), float(sol.x[0]), float(sol.x[1])))
    _, rho, alpha = min(polished)
    rho, alpha = min((rho, alpha), tuple(float(x) for x in swap_twin(rho, alpha)))
    return float(_residuals(rho, alpha, s21_sq, s12_sq, sin_phi)), rho, alpha


def _lower_twin(p_pass: float, p_iso: float) -> tuple[float, float]:
    """The (rho, |alpha|) with r >= |alpha| whose pass and isolated powers are p_pass and p_iso.

    With r = tanh x and |alpha| = tanh y the pass amplitude is tanh(x + y) and
    the isolated one tanh|x - y|, and rho = e^-x. So a power p gives rho_p =
    e^-atanh(sqrt p) = sqrt(1 - p) / (1 + sqrt p), which keeps its digits as
    p -> 1, and rho = sqrt(rho_P rho_I), |alpha| = (rho_I - rho_P) / (rho_I +
    rho_P). Needs 0 <= p_iso <= p_pass < 1.
    """
    rho_pass, rho_iso = (math.sqrt(1.0 - p) / (1.0 + math.sqrt(p)) for p in (p_pass, p_iso))
    return math.sqrt(rho_pass * rho_iso), (rho_iso - rho_pass) / (rho_iso + rho_pass)


def fit_rho_alpha(s21_sq: float, s12_sq: float, pump_port: str = "P1") -> FitResult:
    """Recover (rho, |alpha|) from on-resonance |S21|^2 and |S12|^2.

    The feed's pass power P and isolated power I are projected onto the
    model's image 0 <= I <= P <= 1: both are clipped to 1 and both become
    their mean if I > P, which on [0, 1]^2 is the Euclidean projection the
    residual measures. The projected pair is inverted exactly
    (`_lower_twin`) to the one of two power-equivalent points with the
    smaller rho; a pair off the image, I > P, is so written as the mean's
    point with |alpha| = 0. P = 1 with I < 1, an edge the image approaches
    but never attains, is inverted from the float below 1. A pair whose
    inverse point misses its projection by _FIT_EXACT_TOL or more goes to
    the least-squares search (`_search`), whose point is kept only if its
    residual is strictly smaller; only a pair on that edge, or with P within
    a few ulps of 1 where the inverse's conditioning eps / (1 - P) costs
    the isolated power about 1e-9, misses. The residual returned is that of
    the point returned against the pair given. |alpha| is not identifiable
    only where the powers do not depend on it, at rho = 0, which only a
    pair projected to (1, 1) reaches: it returns (0, 0) with
    alpha_identifiable False.
    """
    for name, val in (("s21_sq", s21_sq), ("s12_sq", s12_sq)):
        if not 0.0 <= val <= 1.0 + 1e-9:
            raise ValueError(f"{name} must lie in [0, 1]")
    sin_phi = feed_sin_phi(pump_port)
    p_pass, p_iso = (min(p, 1.0) for p in ((s12_sq, s21_sq) if sin_phi > 0 else (s21_sq, s12_sq)))
    if p_iso > p_pass:
        p_pass = p_iso = (p_pass + p_iso) / 2.0
    if p_iso == 1.0:
        return FitResult(0.0, 0.0, float(_residuals(0.0, 0.0, s21_sq, s12_sq, sin_phi)), False)
    rho_fit, alpha_fit = _lower_twin(min(p_pass, math.nextafter(1.0, 0.0)), p_iso)
    residual = float(_residuals(rho_fit, alpha_fit, s21_sq, s12_sq, sin_phi))
    projected = (p_iso, p_pass) if sin_phi > 0 else (p_pass, p_iso)
    if _residuals(rho_fit, alpha_fit, *projected, sin_phi) >= _FIT_EXACT_TOL:
        searched = _search(s21_sq, s12_sq, sin_phi)
        if searched[0] < residual:
            residual, rho_fit, alpha_fit = searched
    return FitResult(rho=rho_fit, alpha_mag=alpha_fit, residual=residual, alpha_identifiable=True)


def theta_from_chi_kappa(chi_mhz: float, kappa_mhz: float) -> float:
    """Coherent-state separation angle 2 atan(chi / kappa), in degrees."""
    if not (chi_mhz > 0.0 and kappa_mhz > 0.0):
        raise ValueError("chi_mhz and kappa_mhz must be positive")
    return math.degrees(2.0 * math.atan(chi_mhz / kappa_mhz))


def eta_from_separation(
    i_over_sigma: float,
    nbar_m: float,
    kappa_mhz: float,
    t_m_us: float,
    theta_deg: float,
) -> float:
    """Measurement efficiency from the demodulated separation-to-noise ratio.

    eta = (I/sigma)^2 / (2 nbar_m kappa T_m sin^2(theta/2)) with kappa taken
    angular (2 pi x MHz = rad/us) and T_m in us.
    """
    if not all(v > 0.0 for v in (i_over_sigma, nbar_m, kappa_mhz, t_m_us)):
        raise ValueError("all inputs must be positive")
    kappa_ang = 2.0 * np.pi * kappa_mhz
    s = math.sin(math.radians(theta_deg) / 2.0)
    if not abs(s) > 0.0:
        raise ValueError("separation angle must be nonzero")
    return i_over_sigma**2 / (2.0 * nbar_m * kappa_ang * t_m_us * s**2)


def t_phi(t1_us: float, t2e_us: float) -> float:
    """Pure dephasing time from 1/T_phi = 1/T2E - 1/(2 T1), in us.

    Evaluated as T2E (T1 / (T1 - T2E/2)): the difference is exact where the
    rates would cancel (T2E near 2 T1), and no product of the two times can
    overflow.
    T1 may be inf (energy decay negligible), in which case T_phi = T2E.
    T2E at or above the 2 T1 ceiling leaves no dephasing to resolve.
    """
    if not (t1_us > 0.0 and t2e_us > 0.0):
        raise ValueError("T1 and T2E must be positive")
    if t2e_us >= 2.0 * t1_us:
        raise NumericalError("no measurable dephasing")
    if math.isinf(t1_us):
        return t2e_us
    tp = t2e_us * (t1_us / (t1_us - 0.5 * t2e_us))
    if not 0.0 < 1.0 / tp < math.inf:
        # times near the smallest floats overflow the rate 1 / T_phi
        raise NumericalError(
            f"dephasing rate is out of range for t1_us={t1_us:g}, t2e_us={t2e_us:g}"
        )
    return tp


def nbar_from_dephasing(t_phi_us: float, kappa_mhz: float, chi_mhz: float) -> float:
    """Resonator occupancy inferred from measurement-induced dephasing.

    Inverts Gamma_phi = nbar kappa chi^2 / (kappa^2 + chi^2) with angular
    kappa and chi; Gamma_phi = 1 / T_phi in 1/us. Raises NumericalError
    when that quotient overflows or underflows to a non-finite occupancy.
    """
    if not t_phi_us > 0.0:
        raise ValueError("t_phi_us must be positive")
    if not (kappa_mhz > 0.0 and chi_mhz > 0.0):
        raise ValueError("kappa_mhz and chi_mhz must be positive")
    kappa_ang = 2.0 * np.pi * kappa_mhz
    chi_ang = 2.0 * np.pi * chi_mhz
    gamma_phi = 0.0 if math.isinf(t_phi_us) else 1.0 / t_phi_us
    try:
        nbar = gamma_phi * (kappa_ang**2 + chi_ang**2) / (kappa_ang * chi_ang**2)
    except (OverflowError, ZeroDivisionError):
        nbar = math.nan
    if not math.isfinite(nbar):
        raise NumericalError(
            f"occupancy is not finite for kappa_mhz={kappa_mhz:g}, chi_mhz={chi_mhz:g}"
        )
    return nbar


def isolation_estimate_dB(nbar_off_isolator: float, nbar_on_isolator: float) -> float:
    """Backaction suppression 10 log10(nbar_off / nbar_on) in dB."""
    if not (nbar_off_isolator > 0.0 and nbar_on_isolator > 0.0):
        raise ValueError("occupancies must be positive")
    return 10.0 * math.log10(nbar_off_isolator / nbar_on_isolator)


@dataclass(frozen=True)
class ReadoutChainRecord:
    """One row of a readout-chain characterization.

    jis/jda mark whether the isolator and the directional amplifier were in
    the chain for this row ("on"/"off"); None means not applicable.
    """

    label: str
    t1_us: float
    t2e_us: float
    kappa_mhz: float
    chi_mhz: float
    jis: str | None = None
    jda: str | None = None


@dataclass(frozen=True)
class BackactionRow:
    label: str
    t_phi_us: float
    gamma_phi_per_us: float
    nbar: float
    nbar_ba: float
    jis: str | None
    jda: str | None


@dataclass(frozen=True)
class BackactionReport:
    """Derived dephasing/backaction table. The first record is the baseline:
    its inferred occupancy is the thermal floor subtracted from later rows."""

    rows: tuple[BackactionRow, ...]
    nbar_th: float
    isolation_db: float | None


def backaction_report(records) -> BackactionReport:
    """Backaction pipeline over an ordered record list (first row = baseline).

    Each row gets T_phi from (T1, T2E), the dephasing rate, the inferred
    occupancy, and the excess over the baseline occupancy. isolation_db
    compares the excess occupancies of the first jis="off" and first
    jis="on" rows among those with the amplifier in the chain (jda="on"),
    the matched pair that isolates the isolator's effect.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    rows = []
    nbar_th = None
    for rec in records:
        tphi = t_phi(rec.t1_us, rec.t2e_us)
        gamma_phi = 0.0 if math.isinf(tphi) else 1.0 / tphi
        nbar = nbar_from_dephasing(tphi, rec.kappa_mhz, rec.chi_mhz)
        if nbar_th is None:
            nbar_th = nbar
        rows.append(
            BackactionRow(
                label=rec.label,
                t_phi_us=tphi,
                gamma_phi_per_us=gamma_phi,
                nbar=nbar,
                nbar_ba=nbar - nbar_th,
                jis=rec.jis,
                jda=rec.jda,
            )
        )
    off = [r for r in rows if r.jis == "off" and r.jda == "on"]
    on = [r for r in rows if r.jis == "on" and r.jda == "on"]
    isolation = None
    if off and on and off[0].nbar_ba > 0.0 and on[0].nbar_ba > 0.0:
        isolation = isolation_estimate_dB(off[0].nbar_ba, on[0].nbar_ba)
    return BackactionReport(rows=tuple(rows), nbar_th=float(nbar_th), isolation_db=isolation)
