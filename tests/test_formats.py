import numpy as np
import pytest

from paramix.formats import (
    fmt,
    round9,
    write_csv,
    write_json,
    write_touchstone,
)
from paramix.isolator import closed_form_4port


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
    write_touchstone(path, [s.freq_ghz], s.s[np.newaxis])
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
