"""The names the benchmark reads from the package all resolve.

`perfbench/checks.py` reads its references as `pm.<name>` from the package
root, `perfbench/tests/test_perfbench.py::_bindings` reads
`paramix.<dotted.name>` module attributes, and `perfbench/tracing.py` wraps
the functions its TARGETS name and counts what its count functions read
from their arguments and results. A name deleted from the package fails
here, in tier-1, instead of in a benchmark run. The files are only read.
"""

import ast
import hashlib
import json
import pkgutil
import re
import signal
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _checks_names():
    text = (PERFBENCH / "checks.py").read_text()
    return sorted(set(re.findall(r"\bpm\.(\w+)", text)))


def _bindings_names():
    tree = ast.parse((PERFBENCH / "tests" / "test_perfbench.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_bindings"]
    names = {ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    # keep the whole chains only: paramix.a.b, not its prefix paramix.a
    names = {n for n in names if n.startswith("paramix.")}
    return sorted(n for n in names if not any(o.startswith(n + ".") for o in names))


def test_the_benchmark_sources_name_something():
    # an empty list would make the two tests below pass vacuously
    assert _checks_names() and _bindings_names()


@pytest.mark.parametrize("name", _checks_names())
def test_every_root_name_the_checker_reads_resolves(name):
    import paramix

    assert hasattr(paramix, name), f"perfbench/checks.py reads pm.{name}"


@pytest.mark.parametrize("dotted", _bindings_names())
def test_every_binding_the_benchmark_tests_read_resolves(dotted):
    pkgutil.resolve_name(dotted)


def _small_jobs(checks, workloads):
    """One job per (command, format) the checker knows, on 101-point grids."""
    jis = {"preset": "reference", "rho": 0.35, "pump_port": "P2", "phi_ext1_rad": 1.0}
    grid = {"span_mhz": 300.0, "points": 101}
    configs = {
        "jis-sweep": {"jis": jis, "grid": grid},
        "jpc-sweep": {"jpc": workloads._jpc(0.4), "grid": grid},
        "jis-4port": {"jis": jis},
        "parity": {"chains": [[{"parity": "odd", "pump_port": "P2"}, {"parity": "even"}]]},
        "flux-curve": {"grid": {"phi_start_rad": -1.0, "phi_stop_rad": 1.0, "points": 101}},
        "bandwidth-scan": {"jis": {"preset": "reference"}, "rho_values": [0.3, 0.4]},
    }
    tagged = {cmd: {"schema": workloads.SCHEMA, **cfg} for cmd, cfg in configs.items()}
    jobs = [
        workloads._job(f"{command}-{fmt}", command, tagged[command], fmt)
        for command, fmt in checks.ARTIFACTS
        if command != "fit"
    ]
    s21_sq, s12_sq = workloads.forward_powers(0.3, 0.6, "P2")
    return jobs + [workloads._fit_job("fit", s21_sq, s12_sq, "P2", "exact", {})]


def _run(jobs, root):
    """Run each job through cli.main under root; {id: (exit code, {artifact: SHA-256})}."""
    from paramix import cli

    root.mkdir(exist_ok=True)
    results = {}
    for job in jobs:
        config = root / f"{job['id']}.json"
        config.write_text(json.dumps(job["config"]))
        out = root / job["id"]
        argv = [job["command"], "--config", str(config), "--out", str(out)]
        rc = cli.main(argv + (["--format", job["format"]] if job["format"] else []))
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        results[job["id"]] = (rc, hashes)
    return results


def test_the_benchmark_value_checks_pass_on_one_small_job_per_artifact_set(tmp_path, monkeypatch):
    # check_values turns an unreadable artifact into a problem, but an
    # AttributeError (a name the checker reads that the package lost) would
    # end a benchmark run instead; here it fails a test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    jobs = _small_jobs(checks, workloads)
    assert {(job["command"], job["format"]) for job in jobs} == set(checks.ARTIFACTS)
    results = _run(jobs, tmp_path)
    for job in jobs:
        rc, _ = results[job["id"]]
        assert checks.check_exit_code(job, rc) == [], job["id"]
        assert checks.check_values(job, tmp_path / job["id"]) == [], job["id"]


COUNTERS = {
    "network.connect.ports",
    "formats.write_csv.bytes",
    "formats.write_json.bytes",
    "formats.write_touchstone.bytes",
    "isolator.effective_2port_sweep.points",
    "analysis.fit_rho_alpha.not_identifiable",
}


def test_the_tracer_finds_every_target_and_changes_no_artifact(tmp_path, monkeypatch):
    # a target the package lost is listed in missing, and a count function
    # that reads an attribute the package renamed raises inside the traced call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracing
    import workloads

    jobs = _small_jobs(checks, workloads)
    plain = _run(jobs, tmp_path / "plain")  # also loads every module the tracer patches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run(jobs, tmp_path / "traced")
    finally:
        tracer.restore()
    assert tracer.missing == []
    assert traced == plain
    assert COUNTERS <= set(tracer.counters)


def test_the_tracer_counts_one_call_per_parity_layer_on_a_parity_job(tmp_path, monkeypatch):
    # what network-batch's parity jobs record per job: one chain_transmission
    # for all chains, one calibrate, and one connect per stack of chains of
    # one length plus the calibration's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracing
    import workloads

    (job,) = [job for job in _small_jobs(checks, workloads) if job["command"] == "parity"]
    # three chains of two lengths: two stacks, so per-chain calls would show
    chains = [[{"parity": "odd"}], [{"parity": "even", "pump_port": "P2"}], *job["config"]["chains"]]
    job = {**job, "config": {**job["config"], "chains": chains}}
    lengths = {len(chain) for chain in chains}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ((rc, _),) = _run([job], tmp_path).values()
    finally:
        tracer.restore()
    assert rc == 0
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, passes=1)
    assert metrics["parity.chain_transmission.calls"] == 1
    assert metrics["parity.calibrate.calls"] == 1
    assert metrics["network.connect.calls"] == len(lengths) + 1


BENCHMARK_WORKLOADS = ("fit-batch", "network-batch", "sweep-export")


def _one_pass(workload, root, tracer=None):
    """(jobs, plain, traced) of one seed-1 pass after the warm-up jobs.

    The pass runs as the benchmark's worker times it, with the speed probe
    firing every 50 ms; the SIGALRM handler and timer are restored after.
    """
    import checks
    import reference
    import run
    import worker
    import workloads

    from paramix import cli

    jobs, warmup = workloads.generate(workload, workloads.DEFAULT_SEED), workloads.warmup_jobs()
    (root / "configs").mkdir()
    for job in jobs + warmup:
        (root / "out" / job["id"]).mkdir(parents=True)
    manifest = json.loads(run.write_inputs(jobs, warmup, root).read_text())
    for job, entry in zip(warmup, manifest["warmup"]):
        assert checks.check_exit_code(job, cli.main(entry["argv"])) == [], job["id"]
    handler = signal.getsignal(signal.SIGALRM)
    try:
        plain, traced = worker.run_pass(cli, manifest["jobs"], reference.Probe(), tracer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, handler)
    assert [rec["id"] for rec in plain] == [job["id"] for job in jobs]
    return jobs, plain, traced


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_one_untraced_benchmark_pass_runs_and_passes_its_checks(workload, tmp_path, monkeypatch):
    # the seed-1 job list after the warm-up jobs, one pass as the benchmark's
    # worker times it, then every job judged by the benchmark's own checker:
    # a pass shorter than one probe, or a job whose artifacts the checker
    # refuses, fails here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    assert set(BENCHMARK_WORKLOADS) == set(workloads.WORKLOADS)
    jobs, plain, _ = _one_pass(workload, tmp_path)
    for job, rec in zip(jobs, plain):
        problems = checks.check_exit_code(job, rec["rc"]) + checks.check_values(job, tmp_path / "out" / job["id"])
        assert problems == [], job["id"]
        assert rec["latency_s"] > 0.0 and rec["ref_unit_s"] > 0.0, job["id"]


def test_one_traced_network_batch_pass_runs_and_changes_no_artifact(tmp_path, monkeypatch):
    # the benchmark's --trace 1 path: each job runs untraced, then traced
    # with the probe off, then on again. parity-long64 is the one plain job
    # longer than the 50 ms probe interval, so a probe lands inside a job
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracing

    tracer = tracing.Tracer()
    jobs, plain, traced = _one_pass("network-batch", tmp_path, tracer)
    assert tracer.missing == []
    assert [rec["id"] for rec in traced] == [job["id"] for job in jobs]
    for job, rec, traced_rec in zip(jobs, plain, traced):
        assert traced_rec["hashes"] == rec["hashes"], job["id"]
        # the traced run wrote the artifacts last, with the plain run's bytes
        problems = checks.check_exit_code(job, rec["rc"]) + checks.check_values(job, tmp_path / "out" / job["id"])
        assert problems == [], job["id"]
