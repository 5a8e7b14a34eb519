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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    ReadoutChainRecord,
    backaction_report,
    bandwidth_attenuation_scan,
    eta_from_separation,
    fit_rho_alpha,
    gamma0,
    isolation_estimate_dB,
    theta_from_chi_kappa,
)
from .isolator import (
    added_noise,
    closed_form_from_config,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    feed_sin_phi,
    on_resonance_powers,
    reference_device,
    swap_twin,
)
from .mixer import RHO_5050
from .network import check_unitarity
from .parity import GyratorSpec, calibrate, chain_transmission, field_range
from .schemas import SCHEMA_TAG

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


def _reference(**changes):
    """The reference device's modes with no delay line, and the given changes."""
    return replace(reference_device(), delay_length_um=0.0, **changes)


def _random_config(rng):
    return _reference(
        rho=rng.uniform(0.0, 1.0),
        alpha_mag=rng.uniform(0.05, 0.95),
        pump_port=("P1", "P2")[rng.integers(2)],
        phi_ext1_rad=_random_flux(rng),
        phi_ext2_rad=_random_flux(rng),
    )


def crit_closed_form_anchors() -> CriterionResult:
    # t = r = 1/sqrt2 and alpha = 1/sqrt2; P1 with both fluxes in one lobe is phi = -pi/2
    cfg = _reference(rho=RHO_5050, alpha_mag=1.0 / _SQ2)
    closed_form_from_config(cfg)
    runtime = min(_timed(lambda: closed_form_from_config(cfg)) for _ in range(5))
    S = closed_form_from_config(cfg).s
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
    # every |alpha|, 1 included, both feeds and all four flux-parity pairs
    points = itertools.product((0.0, 0.7, 1.0 / _SQ2, 1.0), ("P1", "P2"), (-1.0, 1.0), (-1.0, 1.0))
    devices = (
        _reference(rho=0.0, alpha_mag=a, pump_port=p, phi_ext1_rad=f1, phi_ext2_rad=f2) for a, p, f1, f2 in points
    )
    exact = all(np.array_equal(closed_form_from_config(device).s, expected) for device in devices)
    return CriterionResult(
        2, "pump-off transparency", exact, "matrix equals transparency literal exactly" if exact else "NOT exact"
    )


def crit_unitarity() -> CriterionResult:
    rng = np.random.default_rng(3)
    worst = max(check_unitarity(closed_form_from_config(_random_config(rng))) for _ in range(1000))
    return CriterionResult(
        3, "unitarity sampling", worst < 1e-9, f"max |S^H S - I| = {worst:.2e} over 1000 draws"
    )


def crit_cross_equivalence() -> CriterionResult:
    rng = np.random.default_rng(4)
    worst_pair = 0.0
    worst_res = 0.0
    for _ in range(1000):
        cfg = _random_config(rng)
        S = closed_form_from_config(cfg).s
        worst_pair = max(worst_pair, float(np.max(np.abs(composed_4port(cfg).s - S))))
        # the signal block is the sweep at f_a
        sw = effective_2port_sweep(cfg, np.array([cfg.f_a_ghz]))
        swept = np.array([[sw.s11[0], sw.s12[0]], [sw.s21[0], sw.s22[0]]])
        worst_res = max(worst_res, float(np.max(np.abs(S[:2, :2] - swept))))
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
        base = _reference(rho=rho, alpha_mag=alpha, pump_port=pump, phi_ext1_rad=f1, phi_ext2_rad=f2)
        # the two pump feeds differ by exactly pi in the phase difference
        swapped = replace(base, pump_port="P2" if pump == "P1" else "P1")
        flipped = replace(base, phi_ext1_rad=-f1, phi_ext2_rad=-f2)
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
    cfg = reference_device()
    g0 = gamma0(cfg.gamma_a_mhz, cfg.gamma_b_mhz)
    g0_ok = abs(g0 - 57.143) <= 0.001
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


def crit_fit_recovery() -> CriterionResult:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    kept = 0
    while kept < 100:
        rho_true = rng.uniform(0.05, 0.95)
        alpha_true = rng.uniform(0.05, 0.95)
        # reject truths whose power-equivalent twin sorts below them and is
        # not the same point within 1e-6: the estimator returns the lower twin
        twin = swap_twin(rho_true, alpha_true)
        if twin < (rho_true, alpha_true) and max(abs(twin[0] - rho_true), abs(twin[1] - alpha_true)) >= 1e-6:
            continue
        kept += 1
        s21_sq, s12_sq = on_resonance_powers(rho_true, alpha_true, feed_sin_phi("P1"))
        res = fit_rho_alpha(s21_sq, s12_sq)
        worst = max(worst, abs(res.rho - rho_true), abs(res.alpha_mag - alpha_true))
    s21_sq, s12_sq = on_resonance_powers(RHO_5050, 0.51, feed_sin_phi("P1"))
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
    # chain_transmission's bottom arm is +1, the phasor of this phase
    calibrated = calibrate() == 0.0
    table = [bits for n in range(1, 7) for bits in itertools.product(("even", "odd"), repeat=n)]
    chains = [tuple(GyratorSpec(parity=b) for b in bits) for bits in table]
    count = 0
    worst = 0.0
    for bits, t in zip(table, chain_transmission(chains)):
        want = 1.0 if sum(b == "odd" for b in bits) % 2 else 0.0
        worst = max(worst, abs(abs(t) - want))
        count += 1
    lo, hi = field_range(100.0 * 100.0)
    field_ok = abs(lo - 2.07e-8) / 2.07e-8 < 0.01 and abs(hi - 2.07e-7) / 2.07e-7 < 0.01
    passed = calibrated and count == 126 and worst < 1e-12 and field_ok
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
    dip_ok = abs(f_dip - cfg.f_a_ghz) <= step + 1e-12
    swapped = effective_2port_sweep(reference_device(pump_port="P2"), grid)
    swap_dev = max(
        float(np.max(np.abs(swapped.s21 - sweep.s12))),
        float(np.max(np.abs(swapped.s12 - sweep.s21))),
    )
    peak = max(
        float(np.max(np.abs(getattr(sweep, entry)))) for entry in ("s11", "s12", "s21", "s22")
    )
    rhos = np.linspace(0.0, 1.0, 2001)
    _, p12 = on_resonance_powers(rhos, 0.51, feed_sin_phi("P1"))
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

    jis_cfg = {"schema": SCHEMA_TAG, "jis": {"preset": "reference"}}
    jpc_cfg = {"schema": SCHEMA_TAG, "jpc": {**asdict(reference_device().jpc1), "rho": 0.4142}}
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
