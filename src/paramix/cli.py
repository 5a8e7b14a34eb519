"""Batch command-line front end.

Usage:
    paramix <command> --config <file> [--out <dir>] [--format csv|json|touchstone]

Commands: jpc-sweep, jis-sweep, jis-4port, fit, parity, readout, flux-curve,
bandwidth-scan, selftest. Configs are JSON with a "schema": "paramix/1" tag;
unknown keys are rejected. Exit codes: 0 success, 2 config error, 3
numerical error, 4 check failure (self-test criteria or parity mismatch).

All outputs are deterministic: identical configs yield byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ReadoutChainRecord,
    backaction_report,
    bandwidth_3dB,
    bandwidth_attenuation_scan,
    fit_rho_alpha,
    gamma0,
    to_power_dB,
)
from .errors import ConfigError, NoDipError, NumericalError, UnbracketedBandwidthError
from .formats import write_csv, write_json, write_touchstone
from .isolator import (
    JisConfig,
    composed_4port,
    default_grid,
    effective_2port_sweep,
    make_jis,
    reference_device,
)
from .mixer import JpcParams, JrmParams, flux_tuning_curve, r_a_of_frequency, t_of_frequency
from .parity import ChainSpec, GyratorSpec, calibrate, chain_transmission
from .schemas import SCHEMA_TAG, validate_artifact, validate_config

_FORMATS = {
    "jpc-sweep": ("csv", "json"),
    "jis-sweep": ("csv", "touchstone"),
    "jis-4port": ("touchstone", "csv", "json"),
    "fit": ("json",),
    "parity": ("json",),
    "readout": ("json", "csv"),
    "flux-curve": ("csv",),
    "bandwidth-scan": ("csv",),
    "selftest": (),
}


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _build_jis(obj) -> JisConfig:
    if "preset" in obj:
        overrides = {
            k: obj[k]
            for k in ("rho", "alpha_mag", "pump_port", "phi_ext1_rad", "phi_ext2_rad")
            if k in obj
        }
        return reference_device(**overrides)
    return make_jis(
        f_a_ghz=obj["f_a_ghz"],
        f_b_ghz=obj["f_b_ghz"],
        gamma_a_mhz=obj["gamma_a_mhz"],
        gamma_b_mhz=obj["gamma_b_mhz"],
        rho=obj["rho"],
        alpha_mag=obj.get("alpha_mag", 0.5),
        pump_port=obj.get("pump_port", "P1"),
        phi_ext1_rad=obj.get("phi_ext1_rad", 0.0),
        phi_ext2_rad=obj.get("phi_ext2_rad", 0.0),
        delay_length_um=obj.get("delay_length_um", 0.0),
        delay_eps_eff=obj.get("delay_eps_eff", 1.0),
    )


def _isolated_direction(config: JisConfig) -> str:
    # S21 = i (refl - conv sin phi): positive sin phi darkens the forward
    # direction, negative darkens the backward one
    return "s21" if np.sin(config.phi_rad) > 0.0 else "s12"


def cmd_jpc_sweep(payload, out_dir: Path, fmt: str) -> int:
    jpc = JpcParams(**payload["jpc"])
    f = default_grid(jpc, **payload.get("grid", {}))
    t = t_of_frequency(f, jpc)
    ra = r_a_of_frequency(f, jpc)
    rows = list(zip(f, np.abs(t) ** 2, np.abs(ra) ** 2, np.angle(t)))
    if fmt == "csv":
        write_csv(out_dir / "jpc_sweep.csv", ["f_GHz", "t_sq", "ra_sq", "arg_t_rad"], rows)
    else:
        doc = {
            "schema": SCHEMA_TAG,
            "rows": [
                {"f_ghz": r[0], "t_sq": r[1], "ra_sq": r[2], "arg_t_rad": r[3]} for r in rows
            ],
        }
        validate_artifact("jpc_sweep_rows", doc)
        write_json(out_dir / "jpc_sweep.json", doc)
    return 0


def cmd_jis_sweep(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    sweep = effective_2port_sweep(config, default_grid(config, **payload.get("grid", {})))
    write_csv(
        out_dir / "jis_sweep.csv",
        ["f_GHz", "S21_dB", "S12_dB", "S11_dB", "S22_dB"],
        zip(
            sweep.f_ghz,
            to_power_dB(sweep.s21),
            to_power_dB(sweep.s12),
            to_power_dB(sweep.s11),
            to_power_dB(sweep.s22),
        ),
    )
    direction = _isolated_direction(config)
    sidecar = {"schema": SCHEMA_TAG, "direction": direction}
    extraction_error = None
    try:
        bw = bandwidth_3dB(sweep, direction=direction)
        sidecar.update(dip_f_ghz=bw.f_dip_ghz, gamma_mhz=bw.gamma_mhz, floor=bw.floor)
    except (NoDipError, UnbracketedBandwidthError) as exc:
        extraction_error = exc
        sidecar.update(dip_f_ghz=None, gamma_mhz=None, floor=None, note=str(exc))
    validate_artifact("jis_sweep_sidecar", sidecar)
    write_json(out_dir / "jis_sweep.json", sidecar)
    if fmt == "touchstone":
        mats = np.array([[sweep.s11, sweep.s12], [sweep.s21, sweep.s22]]).transpose(2, 0, 1)
        write_touchstone(out_dir / "jis_sweep.s2p", sweep.f_ghz, mats)
    if extraction_error is not None:
        print(f"numerical error: {extraction_error}", file=sys.stderr)
        return 3
    return 0


def cmd_jis_4port(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    mat = composed_4port(config)
    if fmt == "touchstone":
        write_touchstone(out_dir / "jis_4port.s4p", [mat.freq_ghz], [mat.s])
    elif fmt == "csv":
        rows = []
        for i, pi in enumerate(mat.ports):
            for j, pj in enumerate(mat.ports):
                rows.append((pi, pj, mat.s[i, j].real, mat.s[i, j].imag))
        write_csv(out_dir / "jis_4port.csv", ["out_port", "in_port", "s_real", "s_imag"], rows)
    else:
        doc = {
            "schema": SCHEMA_TAG,
            "freq_ghz": mat.freq_ghz,
            "ports": list(mat.ports),
            "s_real": [[mat.s[i, j].real for j in range(4)] for i in range(4)],
            "s_imag": [[mat.s[i, j].imag for j in range(4)] for i in range(4)],
        }
        validate_artifact("four_port", doc)
        write_json(out_dir / "jis_4port.json", doc)
    return 0


def cmd_fit(payload, out_dir: Path, fmt: str) -> int:
    result = fit_rho_alpha(
        payload["s21_sq"], payload["s12_sq"], pump_port=payload.get("pump_port", "P1")
    )
    doc = {
        "schema": SCHEMA_TAG,
        "rho": result.rho,
        "alpha_mag": result.alpha_mag,
        "residual": result.residual,
        "alpha_identifiable": result.alpha_identifiable,
    }
    validate_artifact("fit_result", doc)
    write_json(out_dir / "fit.json", doc)
    if not result.alpha_identifiable:
        print("fit: |alpha| is not identifiable from this measurement pair", file=sys.stderr)
        return 3
    return 0


def cmd_parity(payload, out_dir: Path, fmt: str) -> int:
    phase = calibrate()
    rows = []
    all_match = True
    for chain_obj in payload["chains"]:
        gyrators = tuple(
            GyratorSpec(parity=g["parity"], pump_port=g.get("pump_port", "P1"))
            for g in chain_obj
        )
        chain = ChainSpec(gyrators, calibration_phase_rad=phase)
        t_mag = abs(chain_transmission(chain))
        odd_count = sum(g.parity == "odd" for g in gyrators)
        xor = "odd" if odd_count % 2 else "even"
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
    doc = {
        "schema": SCHEMA_TAG,
        "calibration_phase_rad": phase,
        "all_match": all_match,
        "rows": rows,
    }
    validate_artifact("parity_report", doc)
    write_json(out_dir / "parity.json", doc)
    return 0 if all_match else 4


def cmd_readout(payload, out_dir: Path, fmt: str) -> int:
    records = [ReadoutChainRecord(**r) for r in payload["records"]]
    report = backaction_report(records)
    rows = [
        {
            "label": r.label,
            "t_phi_us": r.t_phi_us,
            "gamma_phi_per_us": r.gamma_phi_per_us,
            "nbar": r.nbar,
            "nbar_ba": r.nbar_ba,
            "jis": r.jis,
            "jda": r.jda,
        }
        for r in report.rows
    ]
    doc = {
        "schema": SCHEMA_TAG,
        "nbar_th": report.nbar_th,
        "isolation_db": report.isolation_db,
        "rows": rows,
    }
    validate_artifact("readout_report", doc)
    write_json(out_dir / "readout.json", doc)
    write_csv(
        out_dir / "readout.csv",
        ["label", "jis", "jda", "t_phi_us", "gamma_phi_per_us", "nbar", "nbar_ba"],
        [
            (r.label, r.jis, r.jda, r.t_phi_us, r.gamma_phi_per_us, r.nbar, r.nbar_ba)
            for r in report.rows
        ],
    )
    return 0


def cmd_flux_curve(payload, out_dir: Path, fmt: str) -> int:
    jrm = JrmParams(**payload.get("jrm", {}))
    grid = payload.get("grid") or {}
    start = float(grid.get("phi_start_rad", -1.4 * 2.0 * np.pi))
    stop = float(grid.get("phi_stop_rad", 1.4 * 2.0 * np.pi))
    points = int(grid.get("points", 401))
    phis = np.linspace(start, stop, points)
    rows = [(phi, flux_tuning_curve(phi, jrm)) for phi in phis]
    write_csv(out_dir / "flux_curve.csv", ["phi_ext_rad", "f_ghz"], rows)
    return 0


def cmd_bandwidth_scan(payload, out_dir: Path, fmt: str) -> int:
    config = _build_jis(payload["jis"])
    rhos = [float(r) for r in payload["rho_values"]]
    direction = _isolated_direction(config)
    pairs = bandwidth_attenuation_scan(config, rhos, direction, **payload.get("grid", {}))
    g0 = gamma0(config.jpc1.gamma_a_mhz, config.jpc1.gamma_b_mhz)
    rows = [
        (rho, sqrt_l, gamma, g0 * sqrt_l) for rho, (sqrt_l, gamma) in zip(rhos, pairs)
    ]
    write_csv(
        out_dir / "bandwidth_scan.csv",
        ["rho", "sqrt_L", "gamma_mhz", "gamma0_sqrt_L_mhz"],
        rows,
    )
    return 0


def cmd_selftest(payload, out_dir: Path, fmt: str) -> int:
    from . import acceptance

    results = acceptance.run_all()
    print(acceptance.render_table(results))
    return 0 if all(r.passed for r in results) else 4


_COMMANDS = {
    "jpc-sweep": cmd_jpc_sweep,
    "jis-sweep": cmd_jis_sweep,
    "jis-4port": cmd_jis_4port,
    "fit": cmd_fit,
    "parity": cmd_parity,
    "readout": cmd_readout,
    "flux-curve": cmd_flux_curve,
    "bandwidth-scan": cmd_bandwidth_scan,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paramix",
        description="Scattering models and analysis for pumped-converter interferometric isolators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default=None, choices=["csv", "json", "touchstone"])
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.command != "selftest":
                raise ConfigError("--config is required for this command")
            payload = {"schema": SCHEMA_TAG}
        else:
            payload = _load_config(args.config)
        validate_config(args.command, payload)
        allowed = _FORMATS[args.command]
        fmt = args.format
        if fmt is None:
            fmt = allowed[0] if allowed else None
        elif fmt not in allowed:
            raise ConfigError(f"format {fmt!r} is not supported by {args.command}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](payload, out_dir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
