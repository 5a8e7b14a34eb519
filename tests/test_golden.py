"""Golden SHA-256 of every CLI artifact on fixed small configs.

The writers are deterministic, so a changed hash here is a change in the
bytes a user gets. The hashes were taken with numpy 2.4.6 on Python 3.11;
another numpy may move a last printed digit. The jis-sweep and jis-4port
and parity hashes do not depend on the SIMD code path numpy dispatches to:
the model's zeros (the sweep's S11 and S22; the 4-port's S11, S22 and one
part of every other entry; a dark parity port) are exact zeros, not
rounding noise, and a child process with that dispatch switched off must
write the same bytes. The parity bytes also hold under OpenBLAS's oldest
x86-64 kernels.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import JIS_PLAIN, JIS_PRESET, RECORDS

import paramix
from paramix import cli
from paramix.schemas import SCHEMA_TAG

GOLDEN = {
    "bandwidth_scan.csv": "dfdc80f04669349daaa4db12cb1832453276e82ae47a2685e18f2eb44d9f6293",
    "fit.json": "83d55554ef853627f34ccd432a2b49940d038305c2ef8e105a35896d6967f4c8",
    "flux_curve.csv": "479d21fb8a26ac1a781a0febd78d49d18593211042f49b1af829be487bc68672",
    "jis_4port.csv": "5b82174c5930b499f36e084fbf9271bf36d1c2e48caba9e9f8928920fb875c18",
    "jis_4port.json": "726c2637dd7321c5ffa7ac608b65b17b10dbbc22a1a6561fa8795b1a0122501e",
    "jis_4port.s4p": "da4a4f0eb5ce52e245a05eee038bceef7d7516b05bb509f7384d91ee9a82d520",
    "jis_sweep.csv": "834d973e32d8e116e58d5380853d36db8d969c6ec6ca800207f799aa66015df9",
    "jis_sweep.json": "09531a69c6424a51e9207f3a01ff85bf4ce31348d550044643f913bbcf16edcc",
    "jis_sweep.s2p": "0246f36e596052d026ba24a9ce1af2adf72a0d810482123f56d13351085eb2c7",
    "jpc_sweep.csv": "6412fa217db6e60c47822bc27106a6980cb201fc1fdc46713ee3a41cfc8e3bfa",
    "jpc_sweep.json": "602f4e33584d7488a1a044f5acdff6a782cc1473566b8cd1b8d546eb84909ad1",
    "parity.json": "3f4d5b36b5e636f4421794be3d3b725ffadfea3bb61208cf51a39c648a890a8c",
    "readout.csv": "7fd851c15c6d920619a9e580687cf2fa893559cb57e0a2def78d59f0f7b8a480",
    "readout.json": "bf57865418931159b74d7ebd697a6b580b868b7b839999088bae14f0abf8ba0c",
}

JIS_SWEEP = {"jis": JIS_PRESET, "grid": {"points": 201}}
JPC_SWEEP = {"jpc": JIS_PLAIN, "grid": {"points": 101}}
CHAINS = [[{"parity": "even"}, {"parity": "odd", "pump_port": "P2"}], [{"parity": "odd"}]]
SCAN = {"jis": JIS_PRESET, "rho_values": [0.3, 0.35, 0.4], "grid": {"points": 401}}
# (command, format, payload, artifacts written)
CASES = [
    ("jis-sweep", "csv", JIS_SWEEP, ["jis_sweep.csv", "jis_sweep.json"]),
    ("jis-sweep", "touchstone", JIS_SWEEP, ["jis_sweep.csv", "jis_sweep.json", "jis_sweep.s2p"]),
    ("jpc-sweep", "csv", JPC_SWEEP, ["jpc_sweep.csv"]),
    ("jpc-sweep", "json", JPC_SWEEP, ["jpc_sweep.json"]),
    ("jis-4port", "touchstone", {"jis": JIS_PRESET}, ["jis_4port.s4p"]),
    ("jis-4port", "csv", {"jis": JIS_PRESET}, ["jis_4port.csv"]),
    ("jis-4port", "json", {"jis": JIS_PRESET}, ["jis_4port.json"]),
    ("fit", "json", {"s21_sq": 0.36, "s12_sq": 0.01}, ["fit.json"]),
    ("parity", "json", {"chains": CHAINS}, ["parity.json"]),
    ("readout", "json", {"records": RECORDS}, ["readout.csv", "readout.json"]),
    ("flux-curve", "csv", {"jrm": {}, "grid": {"points": 41}}, ["flux_curve.csv"]),
    ("bandwidth-scan", "csv", SCAN, ["bandwidth_scan.csv"]),
]
PARITY_CASE = next(case for case in CASES if case[0] == "parity")


# Grids above one 16,384-point sweep chunk, so the files are streamed chunk by
# chunk; the hashes are those of whole-grid evaluation.
GOLDEN_LARGE = {
    "jis_sweep.csv": "3f3196400085eea6e39ecf79e5f0c0f8367f02b7e5cf0e0e19dcce0da7bfce6d",
    "jis_sweep.json": "7a9b5f54e7936ed026f51fb8858ce9f2404d3ce8a891bbc49e58f329c20224f4",
    "jis_sweep.s2p": "6fa606ae334911c2cd1a441abf06250a563dda43fa2022ae41747240d250130a",
    "jpc_sweep.csv": "e375d8f15b2561636b9844677f2ff9723339c9bba2fd991f88178db32b29d9d6",
    "jpc_sweep.json": "22df82965a1f4a34ea57ffa7e3a9cad2adf1f882ed053a1b6f70e21a90e5ec29",
}
LARGE_CASES = [
    (
        "jis-sweep",
        "touchstone",
        {"jis": JIS_PRESET, "grid": {"points": 40001}},
        ["jis_sweep.csv", "jis_sweep.json", "jis_sweep.s2p"],
    ),
    ("jpc-sweep", "csv", {"jpc": JIS_PLAIN, "grid": {"points": 40001}}, ["jpc_sweep.csv"]),
    ("jpc-sweep", "json", {"jpc": JIS_PLAIN, "grid": {"points": 40001}}, ["jpc_sweep.json"]),
]


def artifact_digests(tmp_path, command, fmt, payload):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **payload}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize(
    "command, fmt, payload, names", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_artifact_bytes_are_pinned(tmp_path, command, fmt, payload, names):
    digests = artifact_digests(tmp_path, command, fmt, payload)
    assert digests == {name: GOLDEN[name] for name in names}


@pytest.mark.parametrize(
    "command, fmt, payload, names", LARGE_CASES, ids=[f"{c[0]}-{c[1]}-40001" for c in LARGE_CASES]
)
def test_streamed_artifact_bytes_are_pinned(tmp_path, command, fmt, payload, names):
    digests = artifact_digests(tmp_path, command, fmt, payload)
    assert digests == {name: GOLDEN_LARGE[name] for name in names}


def dispatched_simd_groups() -> list[str]:
    """The CPU dispatch groups numpy was built for and uses on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [group for group in umath.__cpu_dispatch__ if umath.__cpu_features__.get(group)]


# runs each argv list through cli.main; prints the exit codes and the
# dispatch groups the child still uses
SIMD_CHILD = """
import json, sys
from paramix import cli
sys.path.insert(0, sys.argv[1])
from test_golden import dispatched_simd_groups
rcs = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"rcs": rcs, "dispatched": dispatched_simd_groups()}))
"""


def _child_run(tmp_path, cases, env):
    """Run each (case, golden) through cli.main in one child process with env
    added; assert every file matches its golden hash and return the child's report."""
    argvs = []
    for k, ((command, fmt, payload, _), _) in enumerate(cases):
        cfg = tmp_path / f"config{k}.json"
        cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **payload}))
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"out{k}"), "--format", fmt])
    src = str(Path(paramix.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        **env,
    }
    done = subprocess.run(
        [sys.executable, "-c", SIMD_CHILD, str(Path(__file__).parent), json.dumps(argvs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["rcs"] == [0] * len(cases)
    for k, ((_, _, _, names), golden) in enumerate(cases):
        out = tmp_path / f"out{k}"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == {name: golden[name] for name in names}
    return report


def test_jis_sweep_bytes_do_not_depend_on_the_simd_path(tmp_path):
    groups = dispatched_simd_groups()
    if not groups:
        pytest.skip("numpy dispatches to no SIMD group beyond its baseline on this CPU")
    # both jis-sweep formats, the three jis-4port formats, parity, the streamed sweep
    cases = [(case, GOLDEN) for case in CASES[:2] + CASES[4:7] + [PARITY_CASE]] + [(LARGE_CASES[0], GOLDEN_LARGE)]
    report = _child_run(tmp_path, cases, {"NPY_DISABLE_CPU_FEATURES": " ".join(groups)})
    assert report["dispatched"] == []


def test_parity_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the chains are reduced by LAPACK; OpenBLAS's oldest x86-64 kernel set
    # (a variable other BLAS builds ignore) must write the same bytes
    _child_run(tmp_path, [(PARITY_CASE, GOLDEN)], {"OPENBLAS_CORETYPE": "Prescott"})
