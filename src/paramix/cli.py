"""Batch command-line front end.

Usage:
    paramix <command> --config <file> [--out <dir>] [--format csv|json|touchstone]

Commands: jpc-sweep, jis-sweep, jis-4port, fit, parity, readout, flux-curve,
bandwidth-scan, selftest. Configs are JSON with a "schema": "paramix/1" tag;
unknown keys and non-finite numbers are rejected. Exit codes: 0 success, 2 config error, 3
numerical error, 4 check failure (self-test criteria or parity mismatch).
Any other failure is a bug and surfaces as a traceback (exit 1).

All outputs are deterministic: identical configs yield byte-identical files.
jis-4port writes the device at f_a (isolator.closed_form_from_config), model
zeros as 0; the network construction isolator.composed_4port only checks it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import (
    ReadoutChainRecord,
    backaction_report,
    bandwidth_attenuation_scan,
    dip_bandwidth,
    fit_rho_alpha,
    gamma0,
    to_power_dB,
)
from .errors import ConfigError, NoDipError, NumericalError, shown
from .formats import (
    csv_stream,
    touchstone_stream,
    write_csv,
    write_json,
    write_json_rows,
    write_touchstone,
)
from .isolator import (
    JisConfig,
    closed_form_from_config,
    default_grid,
    effective_2port_sweep,
    grid_chunks,
    make_jis,
    reference_device,
)
from .mixer import (
    PRIMARY_LOBE_RAD,
    JpcParams,
    JrmParams,
    amplitudes_of_frequency,
    flux_tuning_curve,
)
from .parity import GyratorSpec, calibrate, chain_transmission
from .schemas import SCHEMA_TAG, validate_artifact, validate_artifact_rows, validate_config

def _finite(text: str) -> float:
    """The float any JSON number literal spells, refused unless it is finite.

    Integer literals become floats too, so configs equal in value write
    equal bytes.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {shown(text)} is not finite")
    return value


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_int=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None


def _build(model, **kwargs):
    """model(**kwargs) from validated config values; a rejected value is a config error."""
    try:
        return model(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_jis(obj) -> JisConfig:
    kwargs = {k: v for k, v in obj.items() if k != "preset"}
    return _build(reference_device if "preset" in obj else make_jis, **kwargs)


def _grid(model, payload) -> np.ndarray:
    """The config's sweep grid around model's signal frequency.

    A grid that reaches f <= 0 is a config error.
    """
    return _build(default_grid, config=model, **payload.get("grid", {}))


def _write_artifact(path: Path, name: str, **fields) -> None:
    """Tag fields with SCHEMA_TAG, check them as artifact name and write them to path as JSON."""
    doc = {"schema": SCHEMA_TAG, **fields}
    validate_artifact(name, doc)
    write_json(path, doc)


def cmd_jpc_sweep(payload, out_dir: Path, fmt: str) -> int:
    jpc = _build(JpcParams, **payload["jpc"])
    f = _grid(jpc, payload)
    columns = [f, np.empty_like(f), np.empty_like(f), np.empty_like(f)]
    for part in grid_chunks(f.size):
        t, ra, _ = amplitudes_of_frequency(f[part], jpc)
        for column, values in zip(columns[1:], (np.abs(t) ** 2, np.abs(ra) ** 2, np.angle(t))):
            column[part] = values
    if fmt == "csv":
        write_csv(out_dir / "jpc_sweep.csv", ["f_GHz", "t_sq", "ra_sq", "arg_t_rad"], columns)
    else:
        envelope = {"schema": SCHEMA_TAG}
        keys = ["f_ghz", "t_sq", "ra_sq", "arg_t_rad"]
        validate_artifact_rows("jpc_sweep_rows", envelope, keys, columns)
        write_json_rows(out_dir / "jpc_sweep.json", envelope, keys, columns)
    return 0


def cmd_jis_sweep(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    f = _grid(config, payload)
    direction = config.isolated_direction
    power = np.empty_like(f)
    # one kernel pass feeds both files chunk by chunk; an error in any chunk
    # leaves none of this command's files behind
    with ExitStack() as files:
        csv = files.enter_context(
            csv_stream(out_dir / "jis_sweep.csv", ["f_GHz", "S21_dB", "S12_dB", "S11_dB", "S22_dB"])
        )
        s2p = None
        if fmt == "touchstone":
            s2p = files.enter_context(touchstone_stream(out_dir / "jis_sweep.s2p", 2))
        for part in grid_chunks(f.size):
            sweep = effective_2port_sweep(config, f[part])
            # S11 = S22 are the model's exact zeros: constant fields, written
            # once into each row template as -inf dB and as 0 in the .s2p
            csv([sweep.f_ghz, to_power_dB(sweep.s21), to_power_dB(sweep.s12), -math.inf, -math.inf])
            if s2p is not None:
                s2p(sweep.f_ghz, [[0j, sweep.s12], [sweep.s21, 0j]])
            power[part] = np.abs(getattr(sweep, direction)) ** 2
        extraction_error = None
        try:
            bw = dip_bandwidth(f, power)
            dip = {"dip_f_ghz": bw.f_dip_ghz, "gamma_mhz": bw.gamma_mhz, "floor": bw.floor}
        except NoDipError as exc:
            extraction_error = exc
            dip = {"dip_f_ghz": None, "gamma_mhz": None, "floor": None, "note": str(exc)}
        _write_artifact(out_dir / "jis_sweep.json", "jis_sweep_sidecar", direction=direction, **dip)
    if extraction_error is not None:
        print(f"numerical error: {extraction_error}", file=sys.stderr)
        return 3
    return 0


def cmd_jis_4port(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    mat = closed_form_from_config(config)
    if fmt == "touchstone":
        write_touchstone(out_dir / "jis_4port.s4p", [config.f_a_ghz], mat.s[np.newaxis])
    elif fmt == "csv":
        ports = list(mat.ports)
        out_ports = [p for p in ports for _ in ports]
        columns = [out_ports, ports * len(ports), mat.s.real.ravel(), mat.s.imag.ravel()]
        write_csv(out_dir / "jis_4port.csv", ["out_port", "in_port", "s_real", "s_imag"], columns)
    else:
        _write_artifact(
            out_dir / "jis_4port.json",
            "four_port",
            freq_ghz=config.f_a_ghz,
            ports=list(mat.ports),
            s_real=mat.s.real.tolist(),
            s_imag=mat.s.imag.tolist(),
        )
    return 0


def cmd_fit(payload, out_dir: Path, fmt: str) -> int:
    result = fit_rho_alpha(**{k: v for k, v in payload.items() if k != "schema"})
    _write_artifact(out_dir / "fit.json", "fit_result", **asdict(result))
    if not result.alpha_identifiable:
        print("fit: |alpha| is not identifiable from this measurement pair", file=sys.stderr)
        return 3
    return 0


def cmd_parity(payload, out_dir: Path, fmt: str) -> int:
    phase = calibrate()
    chains = [tuple(_build(GyratorSpec, **g) for g in chain_obj) for chain_obj in payload["chains"]]
    rows = []
    all_match = True
    for gyrators, t in zip(chains, chain_transmission(chains)):
        t_mag = abs(t)
        xor = "odd" if sum(g.parity_bit for g in gyrators) % 2 else "even"
        match = abs(t_mag - (1.0 if xor == "odd" else 0.0)) < 1e-12
        all_match = all_match and match
        rows.append(
            {
                "parities": [g.parity for g in gyrators],
                "pump_ports": [g.pump_port for g in gyrators],
                "t_mag": t_mag,
                "xor": xor,
                "match": match,
            }
        )
    _write_artifact(
        out_dir / "parity.json", "parity_report", calibration_phase_rad=phase, all_match=all_match, rows=rows
    )
    return 0 if all_match else 4


def cmd_readout(payload, out_dir: Path, fmt: str) -> int:
    records = [_build(ReadoutChainRecord, **r) for r in payload["records"]]
    report = backaction_report(records)
    _write_artifact(
        out_dir / "readout.json",
        "readout_report",
        nbar_th=report.nbar_th,
        isolation_db=report.isolation_db,
        rows=[asdict(r) for r in report.rows],
    )
    header = ["label", "jis", "jda", "t_phi_us", "gamma_phi_per_us", "nbar", "nbar_ba"]
    columns = [[getattr(r, k) for r in report.rows] for k in header]
    write_csv(out_dir / "readout.csv", header, columns)
    return 0


def cmd_flux_curve(payload, out_dir: Path, fmt: str) -> int:
    jrm = _build(JrmParams, **payload.get("jrm", {}))
    grid = payload.get("grid") or {}
    start = grid.get("phi_start_rad", -PRIMARY_LOBE_RAD)
    stop = grid.get("phi_stop_rad", PRIMARY_LOBE_RAD)
    phis = np.linspace(start, stop, int(grid.get("points", 401)))
    # linspace overflows to NaN/inf between huge finite ends: a config error
    f = _build(flux_tuning_curve, phi_ext_rad=phis, jrm=jrm)
    write_csv(out_dir / "flux_curve.csv", ["phi_ext_rad", "f_ghz"], [phis, f])
    return 0


def cmd_bandwidth_scan(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    rhos = np.array(payload["rho_values"], dtype=float)
    pairs = bandwidth_attenuation_scan(config, rhos, f_ghz=_grid(config, payload))
    sqrt_l, gamma = np.array(pairs).T
    g0 = gamma0(config.gamma_a_mhz, config.gamma_b_mhz)
    write_csv(
        out_dir / "bandwidth_scan.csv",
        ["rho", "sqrt_L", "gamma_mhz", "gamma0_sqrt_L_mhz"],
        [rhos, sqrt_l, gamma, g0 * sqrt_l],
    )
    return 0


def cmd_selftest(payload, out_dir: Path, fmt: str) -> int:
    from . import acceptance

    results = acceptance.run_all()
    print(acceptance.render_table(results))
    return 0 if all(r.passed for r in results) else 4


# each command's runner and the formats it writes, the first being the
# default; a command without formats writes no file
_COMMANDS = {
    "jpc-sweep": (cmd_jpc_sweep, ("csv", "json")),
    "jis-sweep": (cmd_jis_sweep, ("csv", "touchstone")),
    "jis-4port": (cmd_jis_4port, ("touchstone", "csv", "json")),
    "fit": (cmd_fit, ("json",)),
    "parity": (cmd_parity, ("json",)),
    "readout": (cmd_readout, ("json",)),
    "flux-curve": (cmd_flux_curve, ("csv",)),
    "bandwidth-scan": (cmd_bandwidth_scan, ("csv",)),
    "selftest": (cmd_selftest, ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="paramix",
        description="Scattering models and analysis for pumped-converter interferometric isolators.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    every_format = sorted({fmt for _, formats in _COMMANDS.values() for fmt in formats})
    parser.add_argument("--format", default=None, choices=every_format)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.config is None:
            if args.command != "selftest":
                raise ConfigError("--config is required for this command")
            payload = {"schema": SCHEMA_TAG}
        else:
            payload = _load_config(args.config)
        validate_config(args.command, payload)
        runner, formats = _COMMANDS[args.command]
        fmt = args.format
        if fmt is None:
            fmt = formats[0] if formats else None
        elif fmt not in formats:
            raise ConfigError(f"format {fmt!r} is not supported by {args.command}")
        out_dir = Path(args.out)
        if formats:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        # a NaN or infinity that reaches a writer is refused there (exit 3);
        # numpy's warnings on the way would only add noise to stderr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return runner(payload, out_dir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
