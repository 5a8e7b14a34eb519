"""Output checker: exit codes, byte identity across passes, and values.

Values are compared against references computed here, outside the timed
region, at the precision the writers keep (9 significant digits):

- jis-4port against `closed_form_from_config`, within 1e-8;
- each exact fit through the forward model, within 1e-9 plus the spread
  that rounding the written (rho, |alpha|) to 9 digits can cause;
- each parity row against the XOR truth table of its chain;
- sweeps against `effective_2port_sweep` (or the single-stage mixer
  response) on the same grid.

Every check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import paramix as pm

from workloads import forward_powers

# Relative half-unit of a 9-significant-digit decimal, with some slack.
WRITER_REL = 6e-9
WRITER_ABS = 1e-12
FOUR_PORT_TOL = 1e-8
FIT_TOL = 1e-9
PARITY_TOL = 1e-9

ARTIFACTS = {
    ("jis-sweep", "csv"): ("jis_sweep.csv", "jis_sweep.json"),
    ("jis-sweep", "touchstone"): ("jis_sweep.csv", "jis_sweep.json", "jis_sweep.s2p"),
    ("jpc-sweep", "csv"): ("jpc_sweep.csv",),
    ("jpc-sweep", "json"): ("jpc_sweep.json",),
    ("jis-4port", "touchstone"): ("jis_4port.s4p",),
    ("jis-4port", "csv"): ("jis_4port.csv",),
    ("jis-4port", "json"): ("jis_4port.json",),
    ("fit", None): ("fit.json",),
    ("parity", None): ("parity.json",),
    ("flux-curve", None): ("flux_curve.csv",),
    ("bandwidth-scan", None): ("bandwidth_scan.csv",),
}


def artifact_names(job) -> tuple[str, ...]:
    return ARTIFACTS[(job["command"], job["format"])]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_exit_code(job, rc) -> list[str]:
    if rc != job["expect_rc"]:
        return [f"exit code {rc}, expected {job['expect_rc']}"]
    return []


def check_identity(reference: dict, hashes: dict) -> list[str]:
    """Artifacts of a later pass must be byte-identical to the first pass."""
    problems = []
    for name in sorted(set(reference) | set(hashes)):
        if reference.get(name) != hashes.get(name):
            problems.append(f"{name} differs from the first pass")
    return problems


def _close(got, want, rel=WRITER_REL, abs_=WRITER_ABS) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    with np.errstate(invalid="ignore"):  # -inf dB on both sides compares equal
        return bool(np.all((got == want) | (np.abs(got - want) <= rel * np.abs(want) + abs_)))


def _angle_close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    wrapped = np.abs((got - want + math.pi) % (2.0 * math.pi) - math.pi)
    return bool(np.all(wrapped <= WRITER_REL * np.abs(want) + 1e-9))


def _numbers(text: str, skip_prefixes=("!", "#")) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith(skip_prefixes)]
    return np.array(" ".join(lines).replace(",", " ").split(), dtype=float)


def _csv(path: Path, header: list[str]) -> np.ndarray:
    text = path.read_text(encoding="ascii")
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise ValueError(f"{path.name}: header {first!r}")
    return _numbers(body).reshape(-1, len(header))


def _grid(grid: dict | None, center_ghz: float) -> np.ndarray:
    grid = grid or {}
    span = float(grid.get("span_mhz", 300.0))
    points = int(grid.get("points", 2001))
    return center_ghz + np.linspace(-span / 2.0, span / 2.0, points) * 1e-3


def jis_config(obj):
    """JisConfig of a config's "jis" object, through the public builders."""
    if "preset" in obj:
        return pm.reference_device(**{k: v for k, v in obj.items() if k != "preset"})
    return pm.make_jis(**obj)


def _isolated_direction(config) -> str:
    return "s21" if math.sin(config.phi_rad) > 0.0 else "s12"


def _check_jis_sweep(job, out: Path) -> list[str]:
    cfg = job["config"]
    config = jis_config(cfg["jis"])
    sweep = pm.effective_2port_sweep(config, _grid(cfg.get("grid"), config.f_a_ghz))
    problems = []
    table = _csv(out / "jis_sweep.csv", ["f_GHz", "S21_dB", "S12_dB", "S11_dB", "S22_dB"])
    want = [sweep.f_ghz] + [pm.to_power_dB(getattr(sweep, s)) for s in ("s21", "s12", "s11", "s22")]
    if table.shape[0] != sweep.f_ghz.size or not _close(table.T, np.array(want)):
        problems.append("jis_sweep.csv differs from effective_2port_sweep")
    sidecar = json.loads((out / "jis_sweep.json").read_text())
    direction = _isolated_direction(config)
    bw = pm.bandwidth_3dB(sweep, direction)
    if sidecar.get("direction") != direction or not _close(
        [sidecar.get("dip_f_ghz"), sidecar.get("gamma_mhz"), sidecar.get("floor")],
        [bw.f_dip_ghz, bw.gamma_mhz, bw.floor],
    ):
        problems.append("jis_sweep.json differs from bandwidth_3dB")
    if job["format"] == "touchstone":
        data = _numbers((out / "jis_sweep.s2p").read_text(encoding="ascii")).reshape(-1, 9)
        want = [sweep.f_ghz]
        for s in (sweep.s11, sweep.s21, sweep.s12, sweep.s22):
            want.extend([s.real, s.imag])
        if data.shape[0] != sweep.f_ghz.size or not _close(data.T, np.array(want)):
            problems.append("jis_sweep.s2p differs from effective_2port_sweep")
    return problems


def _check_jpc_sweep(job, out: Path) -> list[str]:
    cfg = job["config"]
    jpc = pm.JpcParams(**cfg["jpc"])
    f = _grid(cfg.get("grid"), jpc.f_a_ghz)
    t = pm.t_of_frequency(f, jpc)
    ra = pm.r_a_of_frequency(f, jpc)
    want = np.array([f, np.abs(t) ** 2, np.abs(ra) ** 2])
    if job["format"] == "csv":
        table = _csv(out / "jpc_sweep.csv", ["f_GHz", "t_sq", "ra_sq", "arg_t_rad"]).T
    else:
        rows = json.loads((out / "jpc_sweep.json").read_text())["rows"]
        table = np.array([[r[k] for r in rows] for k in ("f_ghz", "t_sq", "ra_sq", "arg_t_rad")])
    if table.shape[1] != f.size or not (_close(table[:3], want) and _angle_close(table[3], np.angle(t))):
        return [f"jpc sweep ({job['format']}) differs from the mixer response"]
    return []


def _check_flux_curve(job, out: Path) -> list[str]:
    grid = job["config"]["grid"]
    phis = np.linspace(grid["phi_start_rad"], grid["phi_stop_rad"], grid["points"])
    want = [pm.flux_tuning_curve(float(p)) for p in phis]
    table = _csv(out / "flux_curve.csv", ["phi_ext_rad", "f_ghz"])
    if table.shape[0] != phis.size or not _close(table.T, np.array([phis, want])):
        return ["flux_curve.csv differs from flux_tuning_curve"]
    return []


def _check_bandwidth_scan(job, out: Path) -> list[str]:
    cfg = job["config"]
    config = jis_config(cfg["jis"])
    rhos = [float(r) for r in cfg["rho_values"]]
    pairs = pm.bandwidth_attenuation_scan(config, rhos, direction=_isolated_direction(config))
    g0 = pm.gamma0(config.jpc1.gamma_a_mhz, config.jpc1.gamma_b_mhz)
    want = np.array([[r, s, g, g0 * s] for r, (s, g) in zip(rhos, pairs)])
    table = _csv(out / "bandwidth_scan.csv", ["rho", "sqrt_L", "gamma_mhz", "gamma0_sqrt_L_mhz"])
    if not _close(table, want):
        return ["bandwidth_scan.csv differs from bandwidth_attenuation_scan"]
    return []


def _check_four_port(job, out: Path) -> list[str]:
    want = pm.closed_form_from_config(jis_config(job["config"]["jis"])).s
    fmt = job["format"]
    if fmt == "touchstone":
        data = _numbers((out / "jis_4port.s4p").read_text(encoding="ascii"))
        if data.size != 33:
            return ["jis_4port.s4p is not one 4-port record"]
        got = (data[1::2] + 1j * data[2::2]).reshape(4, 4)
    elif fmt == "csv":
        text = (out / "jis_4port.csv").read_text(encoding="ascii").splitlines()
        if len(text) != 17:
            return ["jis_4port.csv does not hold 16 entries"]
        got = np.zeros((4, 4), dtype=complex)
        for line in text[1:]:
            i, j, re, im = line.split(",")
            got[int(i) - 1, int(j) - 1] = float(re) + 1j * float(im)
    else:
        doc = json.loads((out / "jis_4port.json").read_text())
        got = np.array(doc["s_real"]) + 1j * np.array(doc["s_imag"])
    if got.shape != (4, 4) or np.max(np.abs(got - want)) > FOUR_PORT_TOL:
        return [f"jis_4port ({fmt}) differs from closed_form_from_config"]
    return []


def _half_unit(x: float) -> float:
    """Half a unit in the 9th significant digit of x."""
    return 0.0 if x == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def _rounding_spread(rho, alpha, port) -> float:
    """Largest change of the forward pair over the 9-digit rounding box."""
    p0 = forward_powers(rho, alpha, port)
    dr, da = _half_unit(rho), _half_unit(alpha)
    spread = 0.0
    for sr in (-1.0, 1.0):
        for sa in (-1.0, 1.0):
            p = forward_powers(min(max(rho + sr * dr, 0.0), 1.0), min(max(alpha + sa * da, 0.0), 1.0), port)
            spread = max(spread, abs(p[0] - p0[0]), abs(p[1] - p0[1]))
    return spread


def _check_fit(job, out: Path) -> list[str]:
    cfg = job["config"]
    doc = json.loads((out / "fit.json").read_text())
    rho, alpha, residual = doc["rho"], doc["alpha_mag"], doc["residual"]
    port = cfg["pump_port"]
    target = (cfg["s21_sq"], cfg["s12_sq"])
    if job["kind"] == "non-identifiable":
        if doc["alpha_identifiable"] or alpha != 0.0:
            return ["non-identifiable pair reported an identifiable |alpha|"]
        return []
    if not (0.0 <= rho <= 1.0 and 0.0 <= alpha <= 1.0 and residual >= 0.0):
        return ["fit result out of range"]
    got = forward_powers(rho, alpha, port)
    miss = max(abs(got[0] - target[0]), abs(got[1] - target[1]))
    spread = _rounding_spread(rho, alpha, port)
    if job["kind"] == "exact":
        if not doc["alpha_identifiable"] or miss > FIT_TOL + spread:
            return [f"exact fit misses its power pair by {miss:.3g}"]
        return []
    # noisy: the written residual must be the residual of the written point,
    # and no worse than that of the model point the pair was made from
    own = (got[0] - target[0]) ** 2 + (got[1] - target[1]) ** 2
    slack = FIT_TOL + 4.0 * spread + WRITER_REL * residual
    base = job["check"]["base_powers"]
    base_res = (base[0] - target[0]) ** 2 + (base[1] - target[1]) ** 2
    if abs(own - residual) > slack or residual > base_res + slack:
        return [f"noisy fit residual {residual:.9g} inconsistent (own {own:.9g}, base {base_res:.9g})"]
    return []


def _check_parity(job, out: Path) -> list[str]:
    chains = job["config"]["chains"]
    doc = json.loads((out / "parity.json").read_text())
    rows = doc["rows"]
    if len(rows) != len(chains) or doc["all_match"] is not True:
        return ["parity report does not cover every chain or does not match"]
    for chain, row in zip(chains, rows):
        parities = [g["parity"] for g in chain]
        xor = "odd" if parities.count("odd") % 2 else "even"
        bright = 1.0 if xor == "odd" else 0.0
        if (
            row["parities"] != parities
            or row["pump_ports"] != [g.get("pump_port", "P1") for g in chain]
            or row["xor"] != xor
            or row["match"] is not True
            or abs(row["t_mag"] - bright) > PARITY_TOL
        ):
            return [f"parity row {parities} breaks the XOR truth table"]
    return []


_VALUE_CHECKS = {
    "jis-sweep": _check_jis_sweep,
    "jpc-sweep": _check_jpc_sweep,
    "flux-curve": _check_flux_curve,
    "bandwidth-scan": _check_bandwidth_scan,
    "jis-4port": _check_four_port,
    "fit": _check_fit,
    "parity": _check_parity,
}


def check_values(job, out: Path) -> list[str]:
    """Compare the artifacts of one job with their references."""
    missing = [n for n in artifact_names(job) if not (out / n).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        return _VALUE_CHECKS[job["command"]](job, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
