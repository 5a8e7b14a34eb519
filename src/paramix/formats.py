"""Deterministic writers for CSV, Touchstone, and JSON artifacts.

Identical inputs must produce byte-identical files, so every float goes
through one fixed 9-significant-digit format ("%.9g", the same text as
`fmt`), line endings are plain newlines, and JSON keys are sorted. A JSON
float is the float that text spells (`round9`), printed as `json` prints
it. Negative infinity (a legitimate dB value for an exact zero) is written
as the literal -inf in CSV; every other non-finite value is refused. A
writer raises NonFiniteError("non-finite ...") on one before it opens the
file. NonFiniteError is a NumericalError (the CLI exits 3) and a ValueError.

Every writer takes columns, not rows: one column per CSV field, one per
JSON row key, one complex (F, n, n) array per Touchstone file. Each streams
its file through one precomputed row template, `_CHUNK` rows at a time,
turning array values into Python floats one chunk at a time. `write_json`
serializes a whole document and is meant for small ones.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import NonFiniteError

# Rows per chunk: few enough that a chunk's Python floats stay small next to
# the arrays, many enough that per-chunk costs vanish.
_CHUNK = 4096


def fmt(value) -> str:
    """One float to text: 9 significant digits, '-inf' for minus infinity."""
    v = float(value)
    return f"{v:.9g}"


def round9(value) -> float:
    """Round through the 9-significant-digit representation (for JSON)."""
    return float(fmt(value))


def _round9_all(values: tuple) -> tuple:
    """round9 of each value, formatted in one pass."""
    return tuple(map(float, (("%.9g " * len(values)) % values).split()))


def _write_rows(path, head, template, columns, sep="", tail="", cast=None) -> None:
    """Write head, template % row for each row of the columns joined by sep, then tail.

    The columns have one length. Array columns become Python values a chunk
    at a time; cast, if given, maps each chunk's values (a flat tuple, row
    after row) before they are formatted.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), _CHUNK):
            part = [c[start : start + _CHUNK] for c in columns]
            part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
            values = tuple(chain.from_iterable(zip(*part)))
            if cast is not None:
                values = cast(values)
            if start:
                fh.write(sep)
            fh.write(sep.join([template] * len(part[0])) % values)
        fh.write(tail)


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


def _dumps(payload) -> str:
    return json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> str:
    """Serialize with sorted keys and rounded floats; returns the text."""
    text = _dumps(payload)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return text


def write_json_rows(path, envelope, names, columns) -> None:
    """The bytes of write_json(path, {**envelope, "rows": rows}), streamed from columns.

    Row k is {names[i]: columns[i][k]}: names are distinct str keys, each
    with one column of floats, all of one length. The rows are never built.
    A NaN or an infinity in a column raises NonFiniteError before the file
    is opened, as one in the envelope does.
    """
    if not names or len(set(names)) != len(names) or len(columns) != len(names):
        raise ValueError("need one column per distinct row key")
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({c.shape for c in columns}) > 1 or columns[0].ndim != 1:
        raise ValueError("columns must be 1-D and of one length")
    for name, c in zip(names, columns):
        if not np.isfinite(c).all():
            raise NonFiniteError(f"non-finite value in JSON column {name!r}")
    text = _dumps({**envelope, "rows": []})
    if not columns[0].size:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        return
    # a top-level key is the only text at indent 2 after a newline (a string
    # holds no raw newline), so this splits the envelope around the rows
    head, _, tail = text.partition('\n  "rows": []')
    order = sorted(range(len(names)), key=names.__getitem__)
    keys = [json.dumps(names[i]).replace("%", "%%") for i in order]
    fields = ",\n".join(f"      {key}: %r" for key in keys)
    _write_rows(
        path,
        head + '\n  "rows": [\n',
        "    {\n" + fields + "\n    }",
        [columns[i] for i in order],
        sep=",\n",
        tail="\n  ]" + tail,
        cast=_round9_all,
    )


def write_touchstone(path, freqs_ghz, s) -> None:
    """Touchstone v1.1 file, option line `# GHz S RI R 50`.

    s is one complex (F, n, n) array, s[k] the matrix at freqs_ghz[k], with
    n = 2 or 4. Each record is the n^2 entries as re/im pairs, 8 values to a
    line, the frequency leading the first line. A 2-port record is the
    single line S11 S21 S12 S22 (column-major); a 4-port record has one
    matrix row per line. A NaN or an infinity raises NonFiniteError.
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
    if not (np.isfinite(freqs).all() and np.isfinite(s).all()):
        raise NonFiniteError("non-finite value in Touchstone data")
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
