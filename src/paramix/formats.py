"""Deterministic writers for CSV, Touchstone, and JSON artifacts.

Identical inputs must produce byte-identical files, so every float goes
through one fixed 9-significant-digit format ("%.9g", the same text as
`fmt`), line endings are plain newlines, and JSON keys are sorted. A JSON
float is the float that text spells (`round9`), printed as `json` prints
it: a JSON row value is written as its "%.9g" text, and only the texts
`json` would print differently go through repr(float(text)). Negative
infinity (a legitimate dB value for an exact zero) is written as the
literal -inf in CSV; every other non-finite value is refused with
NonFiniteError("non-finite ..."). NonFiniteError is a NumericalError (the
CLI exits 3) and a ValueError.

A failed write leaves no file: every writer writes under a temporary name
beside its target and renames it to the target only on success. On any
exception the temporary is deleted, and a file already at the target keeps
its bytes.

Every writer takes columns, not rows: one column per CSV field, one per
JSON row key, one complex (F, n, n) array per Touchstone file. Each streams
its file through one precomputed row template, `_CHUNK` rows at a time,
turning array values into Python floats one chunk at a time. `csv_stream`
and `touchstone_stream` also take their columns in blocks, so a sweep
evaluated one grid chunk at a time is written as it goes; `write_csv` and
`write_touchstone` are one-block uses of them. A sweep written this way
holds one chunk of values at a time, plus 16 B per point for its grid and
its isolated-direction power column. `write_json` serializes a whole
document and is meant for small ones.

A CSV column given as one float, or a Touchstone entry given as one complex
or float, holds that value on every row of its block. It is a constant
field: its text (`fmt` of the value, or of its real and imaginary parts) is
checked once and put into the block's row template in place of "%.9g", so
only the array columns are formatted row by row. The non-finite rule is the
same as for an array: a CSV constant may be -inf, and NaN, +inf or any
non-finite Touchstone constant raises NonFiniteError. A block needs at
least one array or cell column to give its row count.
"""

from __future__ import annotations

import functools
import json
import math
import os
from contextlib import contextmanager
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


@contextmanager
def _staged(path):
    """A text file opened under a temporary name that becomes path on success.

    The temporary sits beside path, so the final rename stays within one
    directory. On any exception it is deleted and path is left as it was.
    """
    folder, name = os.path.split(os.fspath(path))
    tmp = os.path.join(folder, f".{name}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(fh, template, columns, sep="", cast=None) -> None:
    """Write template % row for each row of the columns, joined by sep.

    The columns have one length. Array columns become Python values a chunk
    at a time. cast, if given, takes the place of that step: it maps each
    chunk's columns to the flat tuple of values, row after row, that the
    template formats.
    """
    rows = len(columns[0])
    # a block of one chunk is formatted from its columns as they are: on the
    # one-row 4-port files, slicing every column costs more than the row
    for start in range(0, rows, _CHUNK):
        part = columns if rows <= _CHUNK else [c[start : start + _CHUNK] for c in columns]
        if cast is not None:
            values = cast(part)
        else:
            part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
            values = tuple(chain.from_iterable(zip(*part)))
        if start:
            fh.write(sep)
        fh.write(sep.join([template] * len(part[0])) % values)


def _cell(value, name) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if not value < math.inf:
        raise NonFiniteError(f"non-finite value (NaN or +inf) in CSV column {name!r}")
    return fmt(value)


def _csv_block(fh, header, columns) -> None:
    if len(columns) != len(header):
        raise ValueError("need one column per header field, all of one length")
    # a float column is one value on every row; its text goes into the template
    fields, cells = [], []
    for name, c in zip(header, columns):
        constant = isinstance(c, float)
        # NaN and +inf are exactly the values not below +inf
        if (constant or isinstance(c, np.ndarray)) and not np.all(c < np.inf):
            raise NonFiniteError(f"non-finite value (NaN or +inf) in CSV column {name!r}")
        if constant:
            fields.append(fmt(c))
        elif isinstance(c, np.ndarray):
            fields.append("%.9g")
            cells.append(c)
        else:
            fields.append("%s")
            cells.append([_cell(v, name) for v in c])
    if not cells:
        raise ValueError("a block of constant columns has no row count")
    if len({len(c) for c in cells}) > 1:
        raise ValueError("need one column per header field, all of one length")
    _write_rows(fh, ",".join(fields) + "\n", cells)


@contextmanager
def csv_stream(path, header):
    """Write a CSV file block by block: yields write(columns).

    Each call appends the rows of one block, whose columns are as
    `write_csv` takes them, under the one header line. The file appears at
    path when the with-block ends without an exception, and not at all
    otherwise.
    """
    header = list(header)
    with _staged(path) as fh:
        fh.write(",".join(header) + "\n")
        yield functools.partial(_csv_block, fh, header)


def write_csv(path, header, columns) -> None:
    """Write one column per header field under the header line.

    An np.ndarray column holds numbers, each written as "%.9g"; NaN or +inf
    in one raises NonFiniteError (-inf, the dB value of an exact zero, is
    written). A float column is a constant: its `fmt` text is on every row,
    under the same non-finite rule. Any other column is a sequence of cells:
    a str as is, None as an empty field, a number through `fmt` under that
    rule too. All array and cell columns must have the same length, and
    there must be one; a block of constants alone raises ValueError.
    """
    with csv_stream(path, header) as write:
        write(columns)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteError("non-finite value in JSON artifact")
        return round9(obj)
    return obj


def _dumps(payload) -> str:
    return json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> str:
    """Serialize with sorted keys and rounded floats; returns the text."""
    text = _dumps(payload)
    with _staged(path) as fh:
        fh.write(text)
    return text


def _json_texts(part) -> tuple:
    """The text json prints for round9 of each value in a chunk, row after row.

    Each value is formatted once with "%.9g". Two distinct decimals of at
    most 9 significant digits lie more than one ulp of a normal float apart,
    so the repr that json prints for the float a text spells has the same
    digits, laid out the same way, except for integral values ("2.0" for
    "2", "-0.0" for "-0") and exponents e+09 to e+15, which repr writes in
    fixed notation. For subnormals repr may need fewer digits. The mask
    picks a superset of those texts: v within 1e-8 |v| of an integer (every
    integral text, and every |v| >= 5e7) and |v| < 1e-300. Only the texts
    it picks go through repr(float(text)).
    """
    v = np.stack(part, axis=1).ravel()
    texts = (("%.9g " * v.size) % tuple(v.tolist())).split()
    a = np.abs(v)
    odd = (np.abs(v - np.rint(v)) <= 1e-8 * a) | (a < 1e-300)
    for i in np.flatnonzero(odd).tolist():
        texts[i] = repr(float(texts[i]))
    return tuple(texts)


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
        with _staged(path) as fh:
            fh.write(text)
        return
    # a top-level key is the only text at indent 2 after a newline (a string
    # holds no raw newline), so this splits the envelope around the rows
    head, _, tail = text.partition('\n  "rows": []')
    order = sorted(range(len(names)), key=names.__getitem__)
    keys = [json.dumps(names[i]).replace("%", "%%") for i in order]
    fields = ",\n".join(f"      {key}: %s" for key in keys)
    with _staged(path) as fh:
        fh.write(head + '\n  "rows": [\n')
        _write_rows(
            fh,
            "    {\n" + fields + "\n    }",
            [columns[i] for i in order],
            sep=",\n",
            cast=_json_texts,
        )
        fh.write("\n  ]" + tail)


def _touchstone_template(texts) -> str:
    """The template of one record: the frequency, then one field per text.

    texts holds the record's re/im fields in order: a constant's text, or
    None where the field is an array value, formatted as "%.9g".
    """
    fields = ["%.9g" if t is None else t for t in texts]
    lines = [" ".join(fields[k : k + 8]) for k in range(0, len(fields), 8)]
    return "%.9g " + "\n".join(lines) + "\n"


def _touchstone_block(fh, n, order, freqs_ghz, s) -> None:
    freqs = np.asarray(freqs_ghz, dtype=float)
    entries = [e for row in s for e in row]
    if len(s) != n or len(entries) != n * n:
        raise ValueError("need one matrix per frequency")
    # a complex or float entry holds one value on every record: its re/im
    # texts go into the template, and only the array entries are formatted
    texts, constants, arrays = [], [], [freqs]
    for k in order:
        e = entries[k]
        if isinstance(e, (complex, float)):
            texts += fmt(e.real), fmt(e.imag)
            constants += e.real, e.imag
        else:
            texts += None, None
            arrays.append(e)
    data = np.asarray(arrays, dtype=complex)
    if data.shape != (len(arrays), freqs.size):
        raise ValueError("need one matrix per frequency")
    if not (np.isfinite(data).all() and all(map(math.isfinite, constants))):
        raise NonFiniteError("non-finite value in Touchstone data")
    values = data[1:]
    columns = [freqs, *chain.from_iterable(zip(values.real, values.imag))]
    _write_rows(fh, _touchstone_template(texts), columns)


@contextmanager
def touchstone_stream(path, n):
    """Write a Touchstone v1.1 n-port file block by block: yields write(freqs_ghz, s).

    Each call appends one record per frequency of the block. s is an
    (n, n, F) complex array or n rows of n entries: s[i][j] holds S_ij (i
    the output port) over the block's F frequencies, as an array, or as one
    complex or float that is the same on every record (a constant field,
    formatted once for the block). The option line is
    `# GHz S RI R 50`. A record is the n^2 entries as re/im pairs, 8 values
    to a line, the frequency leading the first line. A 2-port record is the
    single line S11 S21 S12 S22 (column-major); a 4-port record has one
    matrix row per line. A NaN or an infinity raises NonFiniteError. The
    file appears at path when the with-block ends without an exception, and
    not at all otherwise.
    """
    if n not in (2, 4):
        raise ValueError("only 2-port and 4-port supported")
    order = [j * n + i if n == 2 else i * n + j for i in range(n) for j in range(n)]
    with _staged(path) as fh:
        fh.write(f"! {n}-port scattering data\n# GHz S RI R 50\n")
        yield functools.partial(_touchstone_block, fh, n, order)


def write_touchstone(path, freqs_ghz, s) -> None:
    """Touchstone v1.1 file of one complex (F, n, n) array, n = 2 or 4.

    s[k] is the matrix at freqs_ghz[k]; the layout is `touchstone_stream`'s.
    """
    freqs = np.asarray(freqs_ghz, dtype=float)
    s = np.asarray(s, dtype=complex)
    if not freqs.size or s.shape[:1] != freqs.shape:
        raise ValueError("need one matrix per frequency")
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("matrices must share one square shape")
    n = s.shape[1]
    with touchstone_stream(path, n) as write:
        write(freqs, s.transpose(1, 2, 0))
