"""Deterministic writers for CSV, Touchstone, and JSON artifacts.

Identical inputs must produce byte-identical files, so every float goes
through one fixed 9-significant-digit formatter, line endings are plain
newlines, and JSON keys are sorted. Negative infinity (a legitimate dB
value for an exact zero) is written as the literal -inf in CSV.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt(value) -> str:
    """One float to text: 9 significant digits, '-inf' for minus infinity."""
    v = float(value)
    return f"{v:.9g}"


def round9(value) -> float:
    """Round through the 9-significant-digit representation (for JSON)."""
    return float(fmt(value))


def write_csv(path, header, rows) -> None:
    """Write rows of floats/strings under a mandatory header."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif cell is None:
                cells.append("")
            else:
                cells.append(fmt(cell))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("non-finite value in JSON artifact")
        return round9(v)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path, payload) -> str:
    """Serialize with sorted keys and rounded floats; returns the text."""
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return text


def write_touchstone(path, freqs_ghz, matrices) -> None:
    """Touchstone v1.1 file, option line `# GHz S RI R 50`.

    matrices is one complex (n, n) array per frequency, n = 2 or 4. The
    2-port record is the single-line S11 S21 S12 S22 layout; larger ports
    get one matrix row per line, frequency on the first.
    """
    freqs = [float(f) for f in freqs_ghz]
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if len(freqs) != len(mats) or not freqs:
        raise ValueError("need one matrix per frequency")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("matrices must share one square shape")
    if n not in (2, 4):
        raise ValueError("only 2-port and 4-port supported")
    lines = [f"! {n}-port scattering data", "# GHz S RI R 50"]
    for f, m in zip(freqs, mats):
        if n == 2:
            vals = [m[0, 0], m[1, 0], m[0, 1], m[1, 1]]
            parts = [fmt(f)]
            for v in vals:
                parts.append(fmt(v.real))
                parts.append(fmt(v.imag))
            lines.append(" ".join(parts))
        else:
            for i in range(n):
                parts = [fmt(f)] if i == 0 else []
                for j in range(n):
                    parts.append(fmt(m[i, j].real))
                    parts.append(fmt(m[i, j].imag))
                lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
