"""Self-check battery behind `paramix selftest`.

Twelve numbered criteria cover the closed-form working point, model
cross-equivalence, directionality, noise and bandwidth laws, the fit,
the readout backaction pipeline, parity chains, sweep properties, and
output determinism. Every random draw is seeded, and no detail string
contains timings or timestamps, so two runs print identical tables.
"""

from __future__ import annotations

import itertools
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    ReadoutChainRecord,
    _on_resonance_powers,
    backaction_report,
    bandwidth_attenuation_scan,
    eta_from_separation,
    fit_rho_alpha,
    gamma0,
    isolation_estimate_dB,
    theta_from_chi_kappa,
)
from .isolator import (
    PUMP_PHI_RAD,
    added_noise,
    closed_form_4port,
    closed_form_from_config,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    make_jis,
    on_resonance_2port,
    reference_device,
)
from .mixer import RHO_5050
from .parity import ChainSpec, GyratorSpec, calibrate, chain_transmission, field_range

_SQ2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _random_flux(rng) -> float:
    # sign-definite so the lobe index is well defined
    sign = 1.0 if rng.integers(2) else -1.0
    return sign * rng.uniform(0.2, 1.4) * 2.0 * np.pi


def _random_config(rng, rho_lo: float = 0.0):
    return make_jis(
        f_a_ghz=6.84,
        f_b_ghz=9.567,
        gamma_a_mhz=40.0,
        gamma_b_mhz=100.0,
        rho=rng.uniform(rho_lo, 1.0),
        alpha_mag=rng.uniform(0.05, 0.95),
        pump_port=("P1", "P2")[rng.integers(2)],
        phi_ext1_rad=_random_flux(rng),
        phi_ext2_rad=_random_flux(rng),
    )


def crit_closed_form_anchors() -> CriterionResult:
    closed_form_4port(1.0 / _SQ2, 1.0 / _SQ2, 1.0 / _SQ2, -np.pi / 2.0)
    runtime = min(
        _timed(lambda: closed_form_4port(1.0 / _SQ2, 1.0 / _SQ2, 1.0 / _SQ2, -np.pi / 2.0))
        for _ in range(5)
    )
    S = closed_form_4port(1.0 / _SQ2, 1.0 / _SQ2, 1.0 / _SQ2, -np.pi / 2.0).s
    dev21 = abs(abs(S[1, 0]) - 2.0 * _SQ2 / 3.0)
    dev0 = max(abs(S[0, 1]), abs(S[0, 0]), abs(S[1, 1]))
    fast = runtime < 1e-3
    passed = dev21 < 1e-12 and dev0 < 1e-12 and fast
    detail = (
        f"|S21| off 2*sqrt(2)/3 by {dev21:.2e}, |S12|,|S11|,|S22| max {dev0:.2e}, "
        f"under 1 ms: {'yes' if fast else 'NO'}"
    )
    return CriterionResult(1, "closed-form working point", passed, detail)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def crit_pump_off_transparency() -> CriterionResult:
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1j
    expected[2, 2] = expected[3, 3] = -1.0
    exact = all(
        np.array_equal(closed_form_4port(0.0, alpha, math.sqrt(1.0 - alpha**2), phi, phi_s).s, expected)
        for alpha, phi, phi_s in ((0.7, 0.3, 1.1), (0.0, -2.0, 0.4), (1.0 / _SQ2, 0.0, 0.0))
    )
    return CriterionResult(
        2, "pump-off transparency", exact, "matrix equals transparency literal exactly" if exact else "NOT exact"
    )


def crit_unitarity() -> CriterionResult:
    rng = np.random.default_rng(3)
    eye = np.eye(4)
    worst = 0.0
    for _ in range(1000):
        S = closed_form_4port(
            rng.uniform(0.0, 1.0),
            1.0 / _SQ2,
            1.0 / _SQ2,
            rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
            rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
        ).s
        worst = max(worst, float(np.max(np.abs(S.conj().T @ S - eye))))
    return CriterionResult(
        3, "unitarity sampling", worst < 1e-9, f"max |S^H S - I| = {worst:.2e} over 1000 draws"
    )


def crit_cross_equivalence() -> CriterionResult:
    rng = np.random.default_rng(4)
    worst_pair = 0.0
    for _ in range(1000):
        cfg = _random_config(rng)
        dev = np.max(np.abs(composed_4port(cfg).s - closed_form_from_config(cfg).s))
        worst_pair = max(worst_pair, float(dev))
    worst_res = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        phi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        S = closed_form_4port(t, 1.0 / _SQ2, 1.0 / _SQ2, phi, rng.uniform(-2.0 * np.pi, 2.0 * np.pi)).s
        tp = on_resonance_2port(t, phi)
        worst_res = max(
            worst_res,
            abs(S[0, 0] - tp.s11),
            abs(S[0, 1] - tp.s12),
            abs(S[1, 0] - tp.s21),
            abs(S[1, 1] - tp.s22),
        )
    passed = worst_pair < 1e-9 and worst_res < 1e-12
    detail = f"composed vs closed {worst_pair:.2e}; 2-port restriction {worst_res:.2e}"
    return CriterionResult(4, "model cross-equivalence", passed, detail)


def crit_directionality() -> CriterionResult:
    rng = np.random.default_rng(5)
    worst_swap = 0.0
    worst_flip = 0.0
    for _ in range(100):
        rho = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.05, 0.95)
        pump = ("P1", "P2")[rng.integers(2)]
        f1, f2 = _random_flux(rng), _random_flux(rng)
        base = make_jis(6.84, 9.567, 40.0, 100.0, rho, alpha, pump, phi_ext1_rad=f1, phi_ext2_rad=f2)
        # the two pump feeds differ by exactly pi in the phase difference
        swapped = make_jis(
            6.84, 9.567, 40.0, 100.0, rho, alpha,
            "P2" if pump == "P1" else "P1", phi_ext1_rad=f1, phi_ext2_rad=f2,
        )
        flipped = make_jis(6.84, 9.567, 40.0, 100.0, rho, alpha, pump, phi_ext1_rad=-f1, phi_ext2_rad=-f2)
        grid = default_grid(base, 100.0, 7)
        s = effective_2port_sweep(base, grid)
        ss = effective_2port_sweep(swapped, grid)
        sf = effective_2port_sweep(flipped, grid)
        worst_swap = max(
            worst_swap,
            float(np.max(np.abs(np.abs(ss.s21) - np.abs(s.s12)))),
            float(np.max(np.abs(np.abs(ss.s12) - np.abs(s.s21)))),
        )
        for entry in ("s11", "s12", "s21", "s22"):
            worst_flip = max(worst_flip, float(np.max(np.abs(getattr(sf, entry) - getattr(s, entry)))))
    passed = worst_swap < 1e-12 and worst_flip < 1e-12
    detail = f"phase-shift swap dev {worst_swap:.2e}; double flux flip dev {worst_flip:.2e}"
    return CriterionResult(5, "directionality", passed, detail)


def crit_added_noise() -> CriterionResult:
    n1 = added_noise(10.0 ** -0.2)
    n2 = added_noise(8.0 / 9.0)
    passed = abs(n1 - 0.2924) <= 5e-4 and n2 == 0.0625
    detail = f"n_add(10^-0.2) = {n1:.6f}; n_add(8/9) = {n2!r} (exact: {'yes' if n2 == 0.0625 else 'NO'})"
    return CriterionResult(6, "added noise", passed, detail)


def crit_bandwidth_law() -> CriterionResult:
    g0 = gamma0(40.0, 100.0)
    g0_ok = abs(g0 - 57.143) <= 0.001
    cfg = reference_device()
    law_rhos = [0.29, 0.30, 0.32, 0.35, 0.38, 0.40, 0.4142, 0.43, 0.45]
    pairs = bandwidth_attenuation_scan(cfg, law_rhos)
    worst_law = 0.0
    floors_ok = True
    for sqrt_l, gamma in pairs:
        floors_ok = floors_ok and sqrt_l**2 >= 0.01
        worst_law = max(worst_law, abs(gamma / (g0 * sqrt_l) - 1.0))
    shallow = bandwidth_attenuation_scan(cfg, [0.246, 0.247, 0.248, 0.249, 0.250])
    shallow_dev = abs(shallow[0][1] / g0 - 1.0)
    passed = g0_ok and floors_ok and worst_law <= 0.15 and shallow_dev <= 0.05
    floors = [sqrt_l**2 for sqrt_l, _ in pairs]
    detail = (
        f"gamma0 = {g0:.4f} MHz; law dev max {worst_law:.3f} over L in "
        f"[{min(floors):.3f}, {max(floors):.3f}]; shallow-dip gamma off gamma0 by {shallow_dev:.3f}"
    )
    return CriterionResult(7, "bandwidth-attenuation law", passed, detail)


def _swap_twin(rho: float, alpha: float) -> tuple[float, float]:
    """The point whose reflected and converted amplitudes are those of (rho, alpha) exchanged.

    With r = (1 - rho^2) / (1 + rho^2) the amplitudes are refl = r (1 - a^2) / (1 - r^2 a^2)
    and conv = (1 - r^2) a / (1 - r^2 a^2), so exchanging them exchanges r and a:
    the twin has r' = a, hence rho' = sqrt((1 - a) / (1 + a)), and a' = r.
    """
    return math.sqrt((1.0 - alpha) / (1.0 + alpha)), (1.0 - rho**2) / (1.0 + rho**2)


def _swap_system_roots(rho: float, alpha: float) -> bool:
    """True when no power-equivalent point sits lexicographically below.

    The on-resonance powers are invariant under exchanging the reflected
    and converted amplitudes; compare that swapped twin against (rho, alpha).
    """
    rp, ap = _swap_twin(rho, alpha)
    if abs(rp - rho) < 1e-6 and abs(ap - alpha) < 1e-6:
        return True
    return not (rp, ap) < (rho, alpha)


def crit_fit_recovery() -> CriterionResult:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    kept = 0
    while kept < 100:
        rho_true = rng.uniform(0.05, 0.95)
        alpha_true = rng.uniform(0.05, 0.95)
        # reject truths whose power-equivalent twin sorts below them: the
        # estimator returns the canonical representative by construction
        if not _swap_system_roots(rho_true, alpha_true):
            continue
        kept += 1
        s21_sq, s12_sq = _on_resonance_powers(rho_true, alpha_true, PUMP_PHI_RAD["P1"])
        res = fit_rho_alpha(s21_sq, s12_sq)
        worst = max(worst, abs(res.rho - rho_true), abs(res.alpha_mag - alpha_true))
    s21_sq, s12_sq = _on_resonance_powers(RHO_5050, 0.51, PUMP_PHI_RAD["P1"])
    preset = fit_rho_alpha(s21_sq, s12_sq)
    preset_exact = abs(preset.rho - RHO_5050) < 1e-6 and abs(preset.alpha_mag - 0.51) < 1e-6
    alpha_near_half = abs(preset.alpha_mag - 0.5) <= 0.02
    passed = worst < 1e-5 and preset_exact and alpha_near_half
    detail = (
        f"100 canonical round-trips worst dev {worst:.2e}; working-point fit |alpha| = "
        f"{preset.alpha_mag:.4f} vs 0.5 prediction (informational)"
    )
    return CriterionResult(8, "fit round-trip", passed, detail)


def crit_readout_pipeline() -> CriterionResult:
    records = [
        ReadoutChainRecord("a", 60.0, 54.0, 1.1, 0.94, jis="off", jda="off"),
        ReadoutChainRecord("b", 63.0, 55.0, 1.1, 0.94, jis="on", jda="off"),
        ReadoutChainRecord("c", 55.0, 6.0, 1.1, 0.94, jis="off", jda="on"),
        ReadoutChainRecord("d", 65.0, 40.0, 1.1, 0.94, jis="on", jda="on"),
    ]
    report = backaction_report(records)
    printed = [98.0, 98.0, 6.4, 58.0]
    tphi_ok = all(abs(row.t_phi_us - want) <= 0.5 for row, want in zip(report.rows, printed))
    nth_ok = abs(report.nbar_th - 0.003) <= 0.001
    d_ok = abs(report.rows[3].nbar_ba - 0.002) <= 0.001
    iso = isolation_estimate_dB(0.04, 0.002)
    iso_ok = abs(iso - 13.0) <= 0.1
    theta = theta_from_chi_kappa(0.94, 1.1)
    eta = eta_from_separation(1.55, 2.0, 1.1, 1.0, theta)
    angle_ok = abs(theta - 81.0) <= 0.2 and abs(eta - 0.20) <= 0.02
    passed = tphi_ok and nth_ok and d_ok and iso_ok and angle_ok
    detail = (
        f"T_phi rows {'ok' if tphi_ok else 'OFF'}; nbar_th = {report.nbar_th:.4f}; "
        f"nbar_ba(d) = {report.rows[3].nbar_ba:.4f}; isolation(0.04, 0.002) = {iso:.2f} dB; "
        f"theta = {theta:.1f} deg; eta = {eta:.3f}; "
        f"row-c backaction recomputes to {report.rows[2].nbar_ba:.3f} vs 0.04 (known discrepancy)"
    )
    return CriterionResult(9, "readout backaction", passed, detail)


def crit_parity_chains() -> CriterionResult:
    psi = calibrate()
    count = 0
    worst = 0.0
    for n in range(1, 7):
        for bits in itertools.product(("even", "odd"), repeat=n):
            chain = ChainSpec(tuple(GyratorSpec(parity=b) for b in bits), calibration_phase_rad=psi)
            mag = abs(chain_transmission(chain))
            want = 1.0 if sum(b == "odd" for b in bits) % 2 else 0.0
            worst = max(worst, abs(mag - want))
            count += 1
    lo, hi = field_range(100.0 * 100.0)
    field_ok = abs(lo - 2.07e-8) / 2.07e-8 < 0.01 and abs(hi - 2.07e-7) / 2.07e-7 < 0.01
    passed = count == 126 and worst < 1e-12 and field_ok
    detail = (
        f"{count} chains, |T| off truth table by {worst:.2e}; "
        f"field range ({lo:.3e}, {hi:.3e}) T"
    )
    return CriterionResult(10, "parity chains", passed, detail)


def crit_sweep_properties() -> CriterionResult:
    cfg = reference_device()
    grid = default_grid(cfg)
    step = grid[1] - grid[0]
    sweep = effective_2port_sweep(cfg, grid)
    f_dip = float(grid[int(np.argmin(np.abs(sweep.s12)))])
    dip_ok = abs(f_dip - 6.84) <= step + 1e-12
    swapped = effective_2port_sweep(reference_device(pump_port="P2"), grid)
    swap_dev = max(
        float(np.max(np.abs(swapped.s21 - sweep.s12))),
        float(np.max(np.abs(swapped.s12 - sweep.s21))),
    )
    peak = max(
        float(np.max(np.abs(getattr(sweep, entry)))) for entry in ("s11", "s12", "s21", "s22")
    )
    rhos = np.linspace(0.0, 1.0, 2001)
    _, p12 = _on_resonance_powers(rhos, 0.51, PUMP_PHI_RAD["P1"])
    i_star = int(np.argmin(p12))
    monotone = bool(np.all(np.diff(p12[: i_star + 1]) < 1e-15))
    passed = dip_ok and swap_dev < 1e-12 and peak <= 1.0 + 1e-12 and monotone
    detail = (
        f"dip at {f_dip:.5f} GHz (step {step * 1e3:.2f} MHz); pump-swap curve dev {swap_dev:.2e}; "
        f"max |S| = {peak:.6f}; dip depth monotone to rho* = {rhos[i_star]:.4f}: "
        f"{'yes' if monotone else 'NO'}"
    )
    return CriterionResult(11, "sweep properties", passed, detail)


def crit_determinism(started_at: float) -> CriterionResult:
    from . import cli

    jis_cfg = {"schema": "paramix/1", "jis": {"preset": "reference"}}
    jpc_cfg = {
        "schema": "paramix/1",
        "jpc": {
            "f_a_ghz": 6.84,
            "f_b_ghz": 9.567,
            "gamma_a_mhz": 40.0,
            "gamma_b_mhz": 100.0,
            "rho": 0.4142,
        },
    }
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for stem, payload, command, names in (
            ("jis", jis_cfg, "jis-sweep", ("jis_sweep.csv", "jis_sweep.json")),
            ("jpc", jpc_cfg, "jpc-sweep", ("jpc_sweep.csv",)),
        ):
            cfg_path = tmp / f"{stem}.json"
            cfg_path.write_text(json.dumps(payload), encoding="utf-8")
            outs = []
            for run in ("r1", "r2"):
                out = tmp / f"{stem}_{run}"
                code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
                identical = identical and code == 0
                outs.append(out)
            for name in names:
                identical = identical and (
                    (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                )
    stable = all(
        fn() == fn()
        for fn in (crit_closed_form_anchors, crit_pump_off_transparency, crit_unitarity, crit_added_noise)
    )
    elapsed = time.perf_counter() - started_at
    in_budget = elapsed < 60.0
    passed = identical and stable and in_budget
    detail = (
        f"sweep artifacts byte-identical: {'yes' if identical else 'NO'}; "
        f"repeated criteria identical: {'yes' if stable else 'NO'}; "
        f"runtime under 60 s: {'yes' if in_budget else 'NO'}"
    )
    return CriterionResult(12, "determinism", passed, detail)


def run_all() -> list[CriterionResult]:
    """Evaluate all 12 criteria; the last one times the whole battery."""
    started = time.perf_counter()
    results = [
        crit_closed_form_anchors(),
        crit_pump_off_transparency(),
        crit_unitarity(),
        crit_cross_equivalence(),
        crit_directionality(),
        crit_added_noise(),
        crit_bandwidth_law(),
        crit_fit_recovery(),
        crit_readout_pipeline(),
        crit_parity_chains(),
        crit_sweep_properties(),
    ]
    results.append(crit_determinism(started))
    return results


def render_table(results: list[CriterionResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'#':>2}  {'criterion':<{width}}  status  detail"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.number:>2}  {r.name:<{width}}  {status:<6}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
