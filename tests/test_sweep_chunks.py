"""Sweeps evaluated in grid chunks: same bits, bounded memory, no partial files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_cli import JIS_PLAIN, JIS_PRESET, run

import paramix
from paramix import cli, formats
from paramix.analysis import to_power_dB
from paramix.errors import NumericalError
from paramix.formats import csv_stream, touchstone_stream
from paramix.isolator import (
    SWEEP_CHUNK,
    SweepResult,
    default_grid,
    effective_2port_sweep,
    grid_chunks,
    make_jis,
    reference_device,
)
from paramix.mixer import amplitudes_of_frequency
from paramix.schemas import SCHEMA_TAG

# around one and two chunks, and an odd tail after the last whole chunk
SIZES = [16383, 16384, 16385, 32768, 40001, 65537]
CONFIGS = {
    "preset": reference_device(),
    "full-with-delay": make_jis(
        6.84, 9.567, 40.0, 100.0, 0.37, alpha_mag=0.6, pump_port="P2",
        phi_ext1_rad=-3.0, phi_ext2_rad=2.5, delay_length_um=23.5, delay_eps_eff=11.7,
    ),
}


@pytest.mark.parametrize("points", [0, 1, *SIZES, 2 * SWEEP_CHUNK - 1, 2_000_001])
def test_chunks_cover_the_grid_and_none_is_short(points):
    parts = grid_chunks(points)
    assert parts[0].start == 0 and parts[-1].stop == points
    assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
    sizes = [p.stop - p.start for p in parts]
    # plain slices: every chunk but the last is whole, and none is longer
    assert all(size == SWEEP_CHUNK for size in sizes[:-1]) and sizes[-1] <= SWEEP_CHUNK


@pytest.mark.parametrize("points", SIZES)
@pytest.mark.parametrize("name", CONFIGS)
def test_chunked_sweeps_are_the_whole_grid_bit_for_bit(name, points):
    config = CONFIGS[name]
    f = default_grid(config, 300.0, points)
    whole = effective_2port_sweep(config, f)
    parts = [effective_2port_sweep(config, f[p]) for p in grid_chunks(f.size)]
    for entry in ("f_ghz", "s11", "s12", "s21"):
        chunked = np.concatenate([getattr(p, entry) for p in parts])
        assert chunked.tobytes() == getattr(whole, entry).tobytes(), entry
    t, r_a, _ = amplitudes_of_frequency(f, config.jpc1)
    pieces = [amplitudes_of_frequency(f[p], config.jpc1) for p in grid_chunks(f.size)]
    assert np.concatenate([x[0] for x in pieces]).tobytes() == t.tobytes()
    assert np.concatenate([x[1] for x in pieces]).tobytes() == r_a.tobytes()


@pytest.mark.parametrize("name", CONFIGS)
def test_the_sweep_kernel_has_the_same_bits_on_pieces_of_any_size(name):
    # numpy reuses a temporary of 16,384 or more complex points in place and
    # may swap a product's factors; each of the kernel's products takes its
    # temporary as the first factor, so small pieces keep the bits too
    config = CONFIGS[name]
    f = default_grid(config, 300.0, 40001)
    whole = effective_2port_sweep(config, f)
    parts = [effective_2port_sweep(config, f[k : k + 1000]) for k in range(0, f.size, 1000)]
    for entry in ("s12", "s21"):
        assert np.concatenate([getattr(p, entry) for p in parts]).tobytes() == getattr(whole, entry).tobytes(), entry


def test_a_later_chunk_that_fails_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "jis_sweep.csv").write_bytes(b"old bytes\n")
    calls = []

    def failing(kind):
        def sweep(config, f_ghz):
            calls.append(f_ghz.size)
            result = effective_2port_sweep(config, f_ghz)
            if len(calls) < 2:
                return result
            if kind == "raises":
                raise NumericalError("the second chunk failed")
            s12 = result.s12.copy()
            s12[-1] = np.nan
            return SweepResult(result.f_ghz, result.s11, s12, result.s21)

        return sweep

    payload = {"jis": JIS_PRESET, "grid": {"points": 40001}}
    for kind, message in (("nan", "non-finite"), ("raises", "the second chunk failed")):
        calls.clear()
        monkeypatch.setattr(cli, "effective_2port_sweep", failing(kind))
        assert run(tmp_path, "jis-sweep", payload, fmt="touchstone", out=out) == 3
        assert calls == [SWEEP_CHUNK, SWEEP_CHUNK]
        assert message in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["jis_sweep.csv"]
        assert (out / "jis_sweep.csv").read_bytes() == b"old bytes\n"


def test_a_large_sweep_without_a_width_writes_every_file_then_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    payload = {"jis": {**JIS_PLAIN, "rho": 0.0}, "grid": {"points": 40001}}
    assert run(tmp_path, "jis-sweep", payload, fmt="touchstone", out=out) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert sorted(p.name for p in out.iterdir()) == ["jis_sweep.csv", "jis_sweep.json", "jis_sweep.s2p"]
    assert json.loads((out / "jis_sweep.json").read_text())["gamma_mhz"] is None


# both pump feeds, both flux parities of the pair (the odd one with n_g = 1
# on stage 1), with and without a delay line
ZERO_CONFIGS = {
    f"{port}-{parity}-{line}": {
        **JIS_PLAIN, "alpha_mag": 0.6, "pump_port": port, "phi_ext1_rad": phi1,
        "phi_ext2_rad": -1.5, **delay,
    }
    for port in ("P1", "P2")
    for parity, phi1 in (("even", -2.0), ("odd", 1.0))
    for line, delay in (("bare", {}), ("delay", {"delay_length_um": 23.5, "delay_eps_eff": 11.7}))
}


@pytest.mark.parametrize("name", ZERO_CONFIGS)
def test_constant_reflections_are_the_bytes_of_the_kernel_zeros(tmp_path, name):
    jis = ZERO_CONFIGS[name]
    # jis-sweep writes S11 and S22 as constant fields; writing the kernel's
    # own S11 and S22 arrays through the same streams gives the same bytes
    payload = {"jis": jis, "grid": {"points": 40001}}
    assert run(tmp_path, "jis-sweep", payload, fmt="touchstone", out=tmp_path / "cli") == 0
    config = cli._build_jis(jis)
    f = cli._grid(config, payload)
    assert len(grid_chunks(f.size)) == 3
    header = ["f_GHz", "S21_dB", "S12_dB", "S11_dB", "S22_dB"]
    with csv_stream(tmp_path / "jis_sweep.csv", header) as csv, touchstone_stream(
        tmp_path / "jis_sweep.s2p", 2
    ) as s2p:
        for part in grid_chunks(f.size):
            sweep = effective_2port_sweep(config, f[part])
            db = [to_power_dB(getattr(sweep, e)) for e in ("s21", "s12", "s11", "s22")]
            csv([sweep.f_ghz, *db])
            s2p(sweep.f_ghz, [[sweep.s11, sweep.s12], [sweep.s21, sweep.s22]])
    for name in ("jis_sweep.csv", "jis_sweep.s2p"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_jis_sweep_formats_only_its_array_columns(tmp_path, monkeypatch):
    widths = []
    write_rows = formats._write_rows

    def counting(fh, template, columns, *args, **kwargs):
        widths.append(len(columns))
        return write_rows(fh, template, columns, *args, **kwargs)

    monkeypatch.setattr(formats, "_write_rows", counting)
    payload = {"jis": JIS_PRESET, "grid": {"points": 401}}
    assert run(tmp_path, "jis-sweep", payload, fmt="touchstone") == 0
    # the CSV block formats f, S21_dB and S12_dB; the .s2p block f and the
    # re/im pairs of S21 and S12
    assert widths == [3, 5]


def _peak_rss_kb(tmp_path, argv):
    """(peak RSS in KiB, exit code) of a fresh interpreter that imports paramix.cli and runs argv.

    The peak is VmHWM, the high-water mark of the interpreter's own memory.
    ru_maxrss would not do: Linux carries it across exec, so it also holds
    the peak of the test process that started the interpreter.
    """
    src = str(Path(paramix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import re, sys, paramix.cli\n"
        "rc = paramix.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), rc)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    kb, rc = done.stdout.split()[-2:]
    return int(kb), int(rc)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_a_large_sweep_adds_little_memory_to_the_import(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": SCHEMA_TAG, "jis": JIS_PRESET, "grid": {"points": 200001}}))
    argv = ["jis-sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--format", "touchstone"]
    sweep, rc = _peak_rss_kb(tmp_path, argv)
    base, _ = _peak_rss_kb(tmp_path, [])
    assert rc == 0
    # whole-grid evaluation with a stacked Touchstone copy added about 46 MB
    assert (sweep - base) / 1024 < 25.0
