import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramix.errors import NonFiniteError, NumericalError
from paramix.formats import (
    _CHUNK,
    csv_stream,
    fmt,
    round9,
    touchstone_stream,
    write_csv,
    write_json,
    write_json_rows,
    write_touchstone,
)
from paramix.isolator import closed_form_from_config, default_grid, make_jis
from paramix.mixer import JpcParams, amplitudes_of_frequency
from paramix.schemas import SCHEMA_TAG

# the row counts at which a chunked writer turns over
CHUNK_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1]


def test_fmt():
    assert fmt(1.0) == "1"
    assert fmt(0.1) == "0.1"
    assert fmt(np.pi) == "3.14159265"
    assert fmt(-np.inf) == "-inf"
    assert fmt(1.23456789012e-7) == "1.23456789e-07"
    assert round9(np.pi) == 3.14159265
    assert round9(2.0) == 2.0


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[1.0, 0.25], ["x", ""], [None, -np.inf]])
    assert path.read_bytes() == b"a,b,c\n1,x,\n0.25,,-inf\n"
    # an array column gives the same text as a list of the same numbers
    write_csv(path, ["a", "b", "c"], [np.array([1.0, 0.25]), ["x", ""], [None, -np.inf]])
    assert path.read_bytes() == b"a,b,c\n1,x,\n0.25,,-inf\n"
    for columns in ([np.zeros(2)], [np.zeros(2), np.zeros(3)]):
        with pytest.raises(ValueError, match="one column per header field"):
            write_csv(path, ["a", "b"], columns)
    # NaN and +inf in an array or cell column raise and leave no file; -inf is written
    for bad in (np.nan, np.inf):
        for column in (np.array([1.0, bad]), [1.0, bad], [None, np.float64(bad)]):
            with pytest.raises(NonFiniteError, match="non-finite value \\(NaN or \\+inf\\) in CSV column 'x'"):
                write_csv(tmp_path / "bad.csv", ["label", "x"], [["a", "b"], column])
            assert not (tmp_path / "bad.csv").exists()
    write_csv(path, ["a"], [np.array([-np.inf, 0.5])])
    assert path.read_bytes() == b"a\n-inf\n0.5\n"


def test_write_json(tmp_path):
    path = tmp_path / "t.json"
    text = write_json(path, {"b": np.pi, "a": [1, 2.5], "c": {"n": None, "s": "x"}})
    assert path.read_text() == text
    assert text == (
        '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": 3.14159265,'
        '\n  "c": {\n    "n": null,\n    "s": "x"\n  }\n}\n'
    )
    with pytest.raises(ValueError, match="non-finite"):
        write_json(path, {"x": np.inf})


def test_a_refused_non_finite_value_is_a_numerical_error(tmp_path):
    # the CLI exits 3 on it, and callers catching ValueError still do
    for write in (
        lambda: write_csv(tmp_path / "bad.csv", ["a"], [np.array([np.nan])]),
        lambda: write_json(tmp_path / "bad.json", {"x": [np.inf]}),
        lambda: write_json_rows(tmp_path / "bad.json", {}, ["x"], [[-np.inf]]),
        lambda: write_touchstone(tmp_path / "bad.s2p", [1.0], np.full((1, 2, 2), np.nan)),
        lambda: write_touchstone(tmp_path / "bad.s2p", [np.inf], np.eye(2)[np.newaxis]),
    ):
        with pytest.raises(NumericalError, match="non-finite") as info:
            write()
        assert isinstance(info.value, ValueError)
    assert not list(tmp_path.iterdir())


def test_touchstone_two_port(tmp_path):
    path = tmp_path / "t.s2p"
    m = np.array([[0.5, 0.25j], [1j, -0.5]])
    write_touchstone(path, [6.84], m[np.newaxis])
    lines = path.read_text().splitlines()
    assert lines[0] == "! 2-port scattering data"
    assert lines[1] == "# GHz S RI R 50"
    # single-record layout: f S11 S21 S12 S22 as re/im pairs
    assert lines[2] == "6.84 0.5 0 0 1 0 0.25 -0.5 0"
    assert len(lines) == 3


def test_touchstone_four_port(tmp_path):
    path = tmp_path / "t.s4p"
    s = closed_form_from_config(make_jis(6.84, 9.567, 40.0, 100.0, rho=0.15, alpha_mag=0.51))
    write_touchstone(path, [0.0], s.s[np.newaxis])
    lines = path.read_text().splitlines()
    assert lines[1] == "# GHz S RI R 50"
    assert len(lines) == 2 + 4
    # frequency only on the first matrix row, 8 re/im values per row
    assert len(lines[2].split()) == 9
    assert all(len(ln.split()) == 8 for ln in lines[3:])
    row0 = [float(x) for x in lines[2].split()]
    assert row0[0] == 0.0
    assert row0[1] == pytest.approx(s.s[0, 0].real, abs=1e-8)
    assert row0[2] == pytest.approx(s.s[0, 0].imag, abs=1e-8)
    assert row0[3] == pytest.approx(s.s[0, 1].real, abs=1e-8)


def test_touchstone_validation(tmp_path):
    path = tmp_path / "t.s3p"
    with pytest.raises(ValueError, match="one matrix per frequency"):
        write_touchstone(path, [1.0, 2.0], np.eye(2)[np.newaxis])
    with pytest.raises(ValueError, match="one matrix per frequency"):
        write_touchstone(path, [], np.empty((0, 2, 2)))
    with pytest.raises(ValueError, match="square"):
        write_touchstone(path, [1.0, 2.0], np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="supported"):
        write_touchstone(path, [1.0], np.eye(3)[np.newaxis])


def test_writers_are_byte_deterministic(tmp_path):
    rows = [[6.84 + 0.001 * k, np.sin(k)] for k in range(50)]
    columns = [[r[0] for r in rows], [r[1] for r in rows]]
    p1, p2, p3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_csv(p1, ["f", "y"], columns)
    write_csv(p2, ["f", "y"], columns)
    write_csv(p3, ["f", "y"], [np.array(c) for c in columns])
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert write_json(j1, {"rows": rows}) == write_json(j2, {"rows": rows})


def whole_column_text(head, template, columns):
    """The writers' text before chunking: template % row over whole columns."""
    return head + "".join(template % row for row in zip(*columns))


@pytest.mark.parametrize("rows", CHUNK_EDGES)
def test_chunked_csv_equals_the_whole_column_text(tmp_path, rows):
    x = np.linspace(-3.0, 7.0, rows) ** 3
    db = np.where(np.arange(rows) % 97 == 5, -np.inf, np.log10(np.abs(x) + 1e-300))
    labels = [f"r{k}" for k in range(rows)]
    write_csv(tmp_path / "t.csv", ["x", "label", "db"], [x, labels, db])
    want = whole_column_text("x,label,db\n", "%.9g,%s,%.9g\n", [x, labels, db])
    assert "-inf" in want
    assert (tmp_path / "t.csv").read_text() == want


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("rows", CHUNK_EDGES)
def test_chunked_touchstone_equals_the_whole_column_text(tmp_path, rows, n):
    rng = np.random.default_rng(rows + n)
    f = np.linspace(1.0, 9.0, rows)
    s = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
    write_touchstone(tmp_path / "t.snp", f, s)
    # 2-port records are column-major, 4-port records row-major
    order = [(j, i) if n == 2 else (i, j) for i in range(n) for j in range(n)]
    columns = [f, *(part for i, j in order for part in (s[:, i, j].real, s[:, i, j].imag))]
    line = " ".join(["%.9g"] * 8)
    template = "%.9g " + "\n".join([line] * (n * n // 4)) + "\n"
    want = whole_column_text(f"! {n}-port scattering data\n# GHz S RI R 50\n", template, columns)
    assert (tmp_path / "t.snp").read_text() == want


def row_document(envelope, names, columns):
    return {**envelope, "rows": [dict(zip(names, row)) for row in zip(*columns)]}


def assert_rows_match_write_json(path, envelope, names, columns):
    write_json_rows(path / "rows.json", envelope, names, columns)
    want = write_json(path / "doc.json", row_document(envelope, names, columns))
    assert (path / "rows.json").read_bytes() == want.encode("ascii")


# -0.0; subnormals; integral values; 1e9 and 1e16, where "%.9g" writes an
# exponent and repr does not, or both do; values that round at the 9th digit
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1.0, -3.0, 1e9, -1e9, 1e16, 1e17,
    123456789.5, 0.1, 1e-5, 9.9999999951e-5, 2.5e-7, 1.7976931348623157e308,
]
finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("rows", [1, *CHUNK_EDGES])
def test_json_rows_on_every_edge_float(tmp_path, rows):
    pool = np.resize(np.array(EDGE_FLOATS + [-v for v in EDGE_FLOATS]), rows)
    columns = [pool, np.roll(pool, 1), pool[::-1]]
    assert_rows_match_write_json(tmp_path, {"schema": SCHEMA_TAG}, ["t", "f", "a"], columns)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), finite), min_size=1, max_size=12),
    rows=st.sampled_from([1, 2, 3, *CHUNK_EDGES]),
    names=st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True),
    envelope=st.dictionaries(
        st.text(max_size=5), st.one_of(st.none(), finite, st.text(max_size=3)), max_size=3
    ),
)
def test_json_rows_are_the_bytes_of_write_json(tmp_path_factory, values, rows, names, envelope):
    pool = np.resize(np.array(values), rows)
    columns = [np.roll(pool, k) for k in range(len(names))]
    assert_rows_match_write_json(tmp_path_factory.mktemp("rows"), envelope, names, columns)


def test_json_rows_on_a_benchmark_sized_sweep(tmp_path):
    jpc = JpcParams(6.84, 9.567, 40.0, 100.0, 0.4)
    f = default_grid(jpc, 300.0, 20001)
    t, ra, _ = amplitudes_of_frequency(f, jpc)
    columns = [f, np.abs(t) ** 2, np.abs(ra) ** 2, np.angle(t)]
    names = ["f_ghz", "t_sq", "ra_sq", "arg_t_rad"]
    assert_rows_match_write_json(tmp_path, {"schema": SCHEMA_TAG}, names, columns)


def test_json_rows_edge_shapes(tmp_path):
    # no rows, and an envelope key named like the rows
    assert_rows_match_write_json(tmp_path, {"schema": SCHEMA_TAG}, ["a"], [np.zeros(0)])
    assert_rows_match_write_json(tmp_path, {"rows": 1.5, "z": [1]}, ["b", "a"], [[1.0], [2.0]])
    for names, columns in ((["a", "a"], [[1.0], [2.0]]), (["a"], [[1.0], [2.0]]), ([], [])):
        with pytest.raises(ValueError, match="one column per distinct row key"):
            write_json_rows(tmp_path / "bad.json", {}, names, columns)
    with pytest.raises(ValueError, match="one length"):
        write_json_rows(tmp_path / "bad.json", {}, ["a", "b"], [[1.0], [1.0, 2.0]])
    assert not (tmp_path / "bad.json").exists()


def written_values(tmp_path, values):
    """The text write_json_rows writes for each value, in order."""
    write_json_rows(tmp_path / "v.json", {}, ["v"], [values])
    return re.findall(r'"v": (\S+)\n', (tmp_path / "v.json").read_text())


def with_ulps(x, steps=3):
    """x and the floats up to steps ulps below and above it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


INTEGERS = [1, 2, 3, 7, 10, 99, 100, 255, 1000, 12345, 999999, 1234567, 99999999]
# both sides of each edge of the mask that picks the texts json prints
# differently: |v| < 1e-300, v within 1e-8 |v| of an integer (the integral
# texts, rounded at 5e-9 |v| or less), and the exponents e+09 to e+17
MASK_EDGES = [
    *with_ulps(1e8), *with_ulps(99999999.95), *with_ulps(5e7),
    *with_ulps(1e-300), *with_ulps(2.225e-308), *with_ulps(2.2250738585072014e-308),
    5e-324, 1e-5, *with_ulps(1e-4), 9.99999999e-5, 9.999999995e-5, 0.0,
    *(n * (1 + e) for n in INTEGERS for e in (0.0, -4e-9, 4e-9, -4.999e-9, 4.999e-9, -2e-8, 2e-8)),
    *(m * 10.0**k for k in range(9, 18) for m in (1.0, 1.23456789, 9.87654321012)),
]


def test_json_row_text_is_repr_of_round9_on_both_sides_of_every_mask_edge(tmp_path):
    values = np.array([*MASK_EDGES, *(-v for v in MASK_EDGES)])
    assert written_values(tmp_path, values) == [repr(round9(v)) for v in values.tolist()]


def test_json_row_text_is_repr_of_round9_on_a_log_uniform_draw(tmp_path):
    rng = np.random.default_rng(20170525)
    n = 10**5
    values = np.exp(rng.uniform(np.log(1e-320), np.log(1e300), n)) * rng.choice([-1.0, 1.0], n)
    want = ("%.9g " * n % tuple(values.tolist())).split()
    assert written_values(tmp_path, values) == list(map(repr, map(float, want)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_rows_refuse_non_finite_values_before_the_file_exists(tmp_path, bad):
    column = np.linspace(0.0, 1.0, _CHUNK + 1)
    column[_CHUNK] = bad
    with pytest.raises(NonFiniteError, match="non-finite value in JSON column 'y'"):
        write_json_rows(tmp_path / "bad.json", {}, ["x", "y"], [np.ones(_CHUNK + 1), column])
    with pytest.raises(NonFiniteError):
        write_json_rows(tmp_path / "bad.json", {"e": bad}, ["x"], [[1.0]])
    assert not (tmp_path / "bad.json").exists()


def stream_blocks(kind, path, blocks):
    """Write the (f, y) column blocks through one csv_stream or touchstone_stream."""
    if kind == "csv":
        with csv_stream(path, ["f", "y"]) as write:
            for f, y in blocks:
                write([f, y])
    else:
        with touchstone_stream(path, 2) as write:
            for f, y in blocks:
                write(f, [[y, 0.5 * y], [-y, f]])


@pytest.mark.parametrize("kind", ["csv", "touchstone"])
def test_streamed_blocks_are_the_bytes_of_one_write(tmp_path, kind):
    f = np.linspace(6.0, 7.0, 2 * _CHUNK + 3)
    y = np.sin(40.0 * f)
    edges = [0, 5, _CHUNK + 1, 2 * _CHUNK + 3]
    stream_blocks(kind, tmp_path / "blocks", [(f[a:b], y[a:b]) for a, b in zip(edges, edges[1:])])
    stream_blocks(kind, tmp_path / "whole", [(f, y)])
    if kind == "csv":
        write_csv(tmp_path / "one", ["f", "y"], [f, y])
    else:
        write_touchstone(tmp_path / "one", f, np.moveaxis(np.array([[y, 0.5 * y], [-y, f]]), 2, 0))
    assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()
    assert (tmp_path / "blocks").read_bytes() == (tmp_path / "one").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["csv", "touchstone"])
def test_a_failed_streamed_write_leaves_no_file(tmp_path, kind, bad):
    f = np.linspace(6.0, 7.0, _CHUNK + 5)
    y = np.cos(f)
    y_bad = y.copy()
    y_bad[-2] = bad
    old = tmp_path / "old.out"
    old.write_bytes(b"old bytes\n")
    for path in (tmp_path / "new.out", old):
        with pytest.raises(NonFiniteError, match="non-finite"):
            stream_blocks(kind, path, [(f, y), (f, y_bad)])
    # neither the new target nor a temporary is left; the old file keeps its bytes
    assert [p.name for p in tmp_path.iterdir()] == ["old.out"]
    assert old.read_bytes() == b"old bytes\n"


CSV_CONSTANTS = [0.0, -0.0, -np.inf, 5e-324, 2.0, 1e16]


@pytest.mark.parametrize("value", CSV_CONSTANTS)
def test_a_constant_csv_column_is_the_bytes_of_a_full_column(tmp_path, value):
    rows = _CHUNK + 1
    x = np.linspace(-1.0, 1.0, rows) ** 3
    labels = [f"r{k}" for k in range(rows)]
    full = np.full(rows, value)
    write_csv(tmp_path / "const", ["c", "x", "label", "d"], [value, x, labels, value])
    write_csv(tmp_path / "full", ["c", "x", "label", "d"], [full, x, labels, full])
    assert (tmp_path / "const").read_bytes() == (tmp_path / "full").read_bytes()


TOUCHSTONE_CONSTANTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 2j, -0.0, 2.5]


@pytest.mark.parametrize("value", TOUCHSTONE_CONSTANTS)
@pytest.mark.parametrize("n", [2, 4])
def test_a_constant_touchstone_entry_is_the_bytes_of_a_full_entry(tmp_path, n, value):
    rows = _CHUNK + 1
    rng = np.random.default_rng(n)
    f = np.linspace(1.0, 9.0, rows)
    s = rng.standard_normal((n, n, rows)) + 1j * rng.standard_normal((n, n, rows))
    # the diagonal, which is S11 and S22 in a 2-port's column-major record,
    # and one entry off it
    places = [(k, k) for k in range(n)] + [(n - 1, 0)]
    const = [list(row) for row in s]
    full = [list(row) for row in s]
    for i, j in places:
        const[i][j] = value
        full[i][j] = np.full(rows, value, dtype=complex)
    for name, entries in (("const", const), ("full", full)):
        with touchstone_stream(tmp_path / name, n) as write:
            write(f, entries)
    assert (tmp_path / "const").read_bytes() == (tmp_path / "full").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_constant_raises_and_leaves_no_file(tmp_path, bad):
    f = np.linspace(6.0, 7.0, 5)
    with pytest.raises(NonFiniteError, match="non-finite value \\(NaN or \\+inf\\) in CSV column 'y'"):
        write_csv(tmp_path / "bad.csv", ["f", "y"], [f, bad])
    for value in (bad, complex(bad, 0.0), complex(0.0, bad), complex(0.0, -bad)):
        with pytest.raises(NonFiniteError, match="non-finite value in Touchstone data"):
            with touchstone_stream(tmp_path / "bad.s2p", 2) as write:
                write(f, [[value, f], [f, f]])
    with pytest.raises(NonFiniteError):
        with touchstone_stream(tmp_path / "bad.s2p", 2) as write:
            write(f, [[0j, f], [f, -np.inf]])
    assert not list(tmp_path.iterdir())


def test_a_block_of_constants_alone_has_no_row_count(tmp_path):
    with pytest.raises(ValueError, match="no row count"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [1.0, -np.inf])
    with pytest.raises(ValueError, match="one column per header field"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [1.0])
    assert not list(tmp_path.iterdir())


def stream_with_a_constant(kind, path, f, y, edges, constant_blocks):
    """Stream f in the blocks between edges, with a constant column (CSV) or
    constant S11 and S22 (Touchstone): one value in the blocks numbered in
    constant_blocks, a full array in the others."""
    value = -np.inf if kind == "csv" else 0j
    with (csv_stream(path, ["f", "c", "y"]) if kind == "csv" else touchstone_stream(path, 2)) as write:
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            c = value if k in constant_blocks else np.full(b - a, value)
            if kind == "csv":
                write([f[a:b], c, y[a:b]])
            else:
                write(f[a:b], [[c, y[a:b]], [-y[a:b], c]])


@pytest.mark.parametrize("kind", ["csv", "touchstone"])
def test_a_stream_of_array_and_constant_blocks_is_the_bytes_of_one_array_block(tmp_path, kind):
    f = np.linspace(6.0, 7.0, 2 * _CHUNK + 3)
    y = np.sin(40.0 * f)
    stream_with_a_constant(kind, tmp_path / "one", f, y, [0, f.size], constant_blocks=())
    edges = [0, 5, _CHUNK + 1, _CHUNK + 9, f.size]
    for blocks in ((0, 2), (1, 3), (0, 1, 2, 3)):
        stream_with_a_constant(kind, tmp_path / "mixed", f, y, edges, constant_blocks=blocks)
        assert (tmp_path / "mixed").read_bytes() == (tmp_path / "one").read_bytes()
