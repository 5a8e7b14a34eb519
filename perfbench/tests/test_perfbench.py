"""Tests of the benchmark itself: generator, checker, spans and wrappers.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json

import pytest

import paramix
import paramix.analysis
import paramix.cli
import paramix.formats
import paramix.isolator
import paramix.network
import paramix.parity
from paramix.schemas import validate_config

import checks
import reference
import run
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert json.dumps(first) != json.dumps(workloads.generate(name, 8))
    for job in first:
        validate_config(job["command"], job["config"])


def test_fit_mix_and_expected_exit_codes():
    jobs = workloads.generate("fit-batch", workloads.DEFAULT_SEED)
    assert workloads.mix_shares(jobs) == {"exact": 0.75, "noisy": 0.2292, "non-identifiable": 0.0208}
    assert [j["id"] for j in jobs if j["expect_rc"] != 0] == ["nonident"]


def _run_job(job, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(job["config"]))
    out = tmp_path / "out"
    argv = [job["command"], "--config", str(cfg), "--out", str(out)]
    if job["format"]:
        argv += ["--format", job["format"]]
    return paramix.cli.main(argv), out


def _four_port_job(fmt):
    jobs = workloads.generate("network-batch", 3)
    return next(j for j in jobs if j["command"] == "jis-4port" and j["format"] == fmt)


@pytest.mark.parametrize("fmt", ["touchstone", "csv", "json"])
def test_checker_flags_corrupted_four_port(fmt, tmp_path):
    job = _four_port_job(fmt)
    rc, out = _run_job(job, tmp_path)
    assert checks.check_exit_code(job, rc) == []
    assert checks.check_values(job, out) == []
    (path,) = [out / n for n in checks.artifact_names(job)]
    text = path.read_text()
    # change the first decimal digit of the first "0.x" number after line 1
    i = text.index("0.", text.index("\n")) + 2
    path.write_text(text[:i] + ("5" if text[i] != "5" else "6") + text[i + 1 :])
    assert checks.check_values(job, out) != []


def test_checker_flags_wrong_exit_code_and_missing_artifact(tmp_path):
    job = _four_port_job("csv")
    assert checks.check_exit_code(job, 2) == ["exit code 2, expected 0"]
    (tmp_path / "out").mkdir()
    assert checks.check_values(job, tmp_path / "out") != []


def test_checker_flags_changed_bytes_between_passes():
    assert checks.check_identity({"a.csv": "x"}, {"a.csv": "x"}) == []
    assert checks.check_identity({"a.csv": "x"}, {"a.csv": "y"}) != []
    assert checks.check_identity({"a.csv": "x"}, {}) != []


def test_checker_accepts_exact_fit_and_rejects_a_moved_one(tmp_path):
    job = next(j for j in workloads.generate("fit-batch", 4) if j["kind"] == "exact")
    rc, out = _run_job(job, tmp_path)
    assert rc == 0 and checks.check_values(job, out) == []
    doc = json.loads((out / "fit.json").read_text())
    doc["rho"] = min(1.0, doc["rho"] + 1e-6)
    (out / "fit.json").write_text(json.dumps(doc))
    assert checks.check_values(job, out) != []


def test_checker_rejects_wrong_parity_row(tmp_path):
    job = next(j for j in workloads.generate("network-batch", 4) if j["id"] == "parity-long16")
    rc, out = _run_job(job, tmp_path)
    assert rc == 0 and checks.check_values(job, out) == []
    doc = json.loads((out / "parity.json").read_text())
    row = doc["rows"][0]
    row["xor"] = "even" if row["xor"] == "odd" else "odd"
    (out / "parity.json").write_text(json.dumps(doc))
    assert checks.check_values(job, out) != []


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "job"]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 30, 0),
        _span("b", 20, 50, 0),  # overlaps a: the union 10..50 counts once
        _span("c", 90, 120, 0),  # runs past the parent: only 90..100 counts
        _span("a.child", 12, 18, 1),
        _span("leaf", 60, 70, None),
    ]
    assert tracing.self_times_ns(spans) == [50, 14, 30, 30, 6, 10]
    metrics = tracing.layer_metrics(spans, {"a.bytes": 8.0}, passes=2, targets=())
    assert metrics == {"a.bytes": 4.0}


def _bindings():
    return {
        "cli.main": paramix.cli.main,
        "cli.write_csv": paramix.cli.write_csv,
        "formats.write_csv": paramix.formats.write_csv,
        "isolator.connect": paramix.isolator.connect,
        "parity.connect": paramix.parity.connect,
        "network.connect": paramix.network.connect,
        "package.connect": paramix.connect,
        "analysis.effective_2port_sweep": paramix.analysis.effective_2port_sweep,
        "least_squares": paramix.analysis.optimize.least_squares,
    }


def test_wrappers_cover_every_binding_and_restore_them(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["isolator.connect"] is during["parity.connect"] is during["package.connect"]
        job = next(j for j in workloads.generate("network-batch", 5) if j["id"] == "parity-long16")
        rc, _ = _run_job(job, tmp_path)
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.missing == []
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"cli.main", "parity.calibrate", "parity.chain_transmission", "network.connect"} <= names
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, passes=1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["parity.chain_transmission.calls"] == 4 + 2  # chains + calibration
    assert metrics["network.connect.ports"] > 0


def test_wrappers_tolerate_scipy_absent_from_analysis(monkeypatch):
    monkeypatch.delattr(paramix.analysis, "optimize")
    before = paramix.cli.fit_rho_alpha
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["analysis.least_squares"]
        assert paramix.cli.fit_rho_alpha is not before
    finally:
        tracer.restore()
    assert paramix.cli.fit_rho_alpha is before


def test_tail_percentile_keeps_ten_samples_beyond():
    fraction = run.tail_fraction(9)
    n = run.MIN_PASSES * 9
    values = list(range(n))
    assert run.nearest_rank(values, fraction) == n - 11
    assert run.nearest_rank(list(range(3 * n)), fraction) < 3 * n - 11


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       120 |      80417 | numpy",
            "import time:        42 |      69927 |   paramix.schemas",
            "import time:        17 |     490078 |   paramix.analysis",
            "import time:         5 |         10 |     numpy.linalg",
        ]
    )
    assert run.parse_importtime(text) == {
        "import.numpy_cum_s": 0.080417,
        "import.schemas_cum_s": 0.069927,
        "import.analysis_cum_s": 0.490078,
    }


def test_settle_leaves_out_inner_probes_and_averages_near_ones():
    # probes as (start, end, seconds per unit); the job runs from 10.0 to 11.0
    samples = [(9.0, 9.1, 5.0), (9.8, 9.9, 1.0), (10.2, 10.3, 2.0), (10.6, 10.65, 3.0), (11.1, 11.2, 2.0), (12.0, 12.1, 9.0)]
    latency, unit_s, used = reference.settle(10.0, 11.0, samples, window_s=0.25)
    assert latency == pytest.approx(1.0 - 0.1 - 0.05)
    assert unit_s == pytest.approx((1.0 + 2.0 + 3.0 + 2.0) / 4)
    assert used == 4
    assert reference.normalize(latency, unit_s) == pytest.approx(latency * reference.REF_UNIT_S / 2.0)


def test_settle_falls_back_to_the_nearest_probe():
    latency, unit_s, used = reference.settle(10.0, 10.01, [(5.0, 5.1, 4.0), (12.0, 12.1, 7.0)], window_s=0.25)
    assert (latency, unit_s, used) == (pytest.approx(0.01), 7.0, 1)
