"""Deterministic writers for CSV, Touchstone, and JSON artifacts.

Identical inputs must produce byte-identical files, so every float goes
through one fixed 9-significant-digit format ("%.9g", the same text as
`fmt`), line endings are plain newlines, and JSON keys are sorted. Negative
infinity (a legitimate dB value for an exact zero) is written as the
literal -inf in CSV. No writer writes NaN or +inf: `write_json` and
`write_csv` raise NonFiniteError("non-finite ...") on one, before the file
is opened. NonFiniteError is a NumericalError (the CLI exits 3) and a
ValueError.

The CSV and Touchstone writers take arrays, not rows: one column per CSV
field, one complex (F, n, n) array per Touchstone file. Both stream the
file through one precomputed line template.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteError


def fmt(value) -> str:
    """One float to text: 9 significant digits, '-inf' for minus infinity."""
    v = float(value)
    return f"{v:.9g}"


def round9(value) -> float:
    """Round through the 9-significant-digit representation (for JSON)."""
    return float(fmt(value))


def _write_rows(path, head: str, template: str, columns) -> None:
    """head, then template % row for each row of the equal-length columns."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head)
        fh.writelines(template % row for row in zip(*columns))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return "" if value is None else fmt(value)


def write_csv(path, header, columns) -> None:
    """Write one column per header field under the header line.

    An np.ndarray column holds numbers, each written as "%.9g"; NaN or +inf
    in one raises NonFiniteError (-inf, the dB value of an exact zero, is
    written). Any other column is a sequence of cells: a str as is, None as
    an empty field, a number through `fmt`. All columns must have the same
    length.
    """
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError("need one column per header field, all of one length")
    arrays = [isinstance(c, np.ndarray) for c in columns]
    for name, a, c in zip(header, arrays, columns):
        # NaN and +inf are exactly the values not below +inf
        if a and not (c < np.inf).all():
            raise NonFiniteError(f"non-finite value (NaN or +inf) in CSV column {name!r}")
    template = ",".join("%.9g" if a else "%s" for a in arrays) + "\n"
    cells = [c if a else [_cell(v) for v in c] for a, c in zip(arrays, columns)]
    _write_rows(path, ",".join(header) + "\n", template, cells)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            raise NonFiniteError("non-finite value in JSON artifact")
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


def write_touchstone(path, freqs_ghz, s) -> None:
    """Touchstone v1.1 file, option line `# GHz S RI R 50`.

    s is one complex (F, n, n) array, s[k] the matrix at freqs_ghz[k], with
    n = 2 or 4. Each record is the n^2 entries as re/im pairs, 8 values to a
    line, the frequency leading the first line. A 2-port record is the
    single line S11 S21 S12 S22 (column-major); a 4-port record has one
    matrix row per line.
    """
    freqs = np.asarray(freqs_ghz, dtype=float)
    s = np.asarray(s, dtype=complex)
    if not freqs.size or s.shape[:1] != freqs.shape:
        raise ValueError("need one matrix per frequency")
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("matrices must share one square shape")
    n = s.shape[1]
    if n not in (2, 4):
        raise ValueError("only 2-port and 4-port supported")
    if n == 2:
        s = s.transpose(0, 2, 1)
    entries = [s[:, i, j] for i in range(n) for j in range(n)]
    line = " ".join(["%.9g"] * 8)
    template = "%.9g " + "\n".join([line] * (n * n // 4)) + "\n"
    _write_rows(
        path,
        f"! {n}-port scattering data\n# GHz S RI R 50\n",
        template,
        [freqs, *(part for e in entries for part in (e.real, e.imag))],
    )
