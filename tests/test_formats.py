import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramix.errors import NonFiniteError, NumericalError
from paramix.formats import (
    _CHUNK,
    fmt,
    round9,
    write_csv,
    write_json,
    write_json_rows,
    write_touchstone,
)
from paramix.isolator import closed_form_4port, default_grid
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
    # NaN and +inf in an array column raise before the file is opened; -inf is written
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "bad.csv", ["a"], [np.array([1.0, bad])])
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
    s = closed_form_4port(0.3, 0.51, np.sqrt(1.0 - 0.51**2), -np.pi / 2.0)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_rows_refuse_non_finite_values_before_the_file_exists(tmp_path, bad):
    column = np.linspace(0.0, 1.0, _CHUNK + 1)
    column[_CHUNK] = bad
    with pytest.raises(NonFiniteError, match="non-finite value in JSON column 'y'"):
        write_json_rows(tmp_path / "bad.json", {}, ["x", "y"], [np.ones(_CHUNK + 1), column])
    with pytest.raises(NonFiniteError):
        write_json_rows(tmp_path / "bad.json", {"e": bad}, ["x"], [[1.0]])
    assert not (tmp_path / "bad.json").exists()
