"""paramix batch benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): sweep-export, fit-batch, network-batch. Run
from any directory; paramix is imported from `src/` next to this folder.

Steps:
1. Generate the workload's configs from the seed and validate each with
   `paramix.schemas.validate_config`. A config the schema rejects is a
   benchmark bug: the run aborts (exit 2) and nothing is counted.
2. setup_s: median time of fresh `python -c "import paramix.cli"`.
3. A fresh worker process (worker.py) runs the job list in passes.
   All timings are normalized by the machine's speed measured right
   around them with fixed reference work (see reference.py); the raw
   wall times go to the full result file. The run is pinned to one CPU.
4. Check every job: exit code, byte identity across passes, values.
5. Print a summary, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}; the metrics are the
   end-to-end ones, or with --trace 1 the per-layer ones.

Child processes run with PARAMIX_THREADS unset and BLAS threads pinned to
1. Nothing waits in this single-threaded batch, so there are no wait
metrics. Full results, machine facts and artifact SHA-256 values go to
.perfbench/results/ in the checkout; traced runs also write their spans
there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

DEFAULT_SECONDS = 30
MIN_PASSES = 4  # untraced; the tail percentile is fixed from this count
TRACE_MIN_PASSES = 2  # per phase of a traced run
SETUP_REPEATS = 5
SETUP_REF_UNITS = 50
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0

IMPORT_MODULES = {"paramix.analysis": "analysis", "paramix.schemas": "schemas", "numpy": "numpy"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PARAMIX_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so every child, to the lowest allowed CPU.

    The speed of the two vCPUs of a shared host swings independently, so a
    reference chunk says little about a process that the kernel has placed
    on the other one. Returns (nproc before pinning, the CPU chosen).
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def machine_facts(nproc: int, cpu_pinned: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": nproc,
        "pinned_to_cpu": cpu_pinned,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "env": {"PARAMIX_THREADS": "unset", "BLAS threads in child processes": 1},
    }


def time_imports(env, repeats: int) -> list[tuple[float, float, float]]:
    """(wall seconds, reference unit time before, after) of each fresh import."""
    import reference

    times = []
    after = reference.chunk(SETUP_REF_UNITS)
    for _ in range(repeats):
        before = after
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import paramix.cli"], env=env, check=True, timeout=60)
        wall = time.perf_counter() - start
        after = reference.chunk(SETUP_REF_UNITS)
        times.append((wall, before, after))
    return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the modules in IMPORT_MODULES from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:") :].split("|")]
        if len(fields) == 3 and fields[2] in IMPORT_MODULES and fields[1].isdigit():
            out[f"import.{IMPORT_MODULES[fields[2]]}_cum_s"] = int(fields[1]) / 1e6
    return out


def import_breakdown(env, repeats: int) -> dict[str, float]:
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import paramix.cli"],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r.get(key, 0.0) for r in runs) for key in runs[0]}


def tail_fraction(jobs_per_pass: int) -> float:
    """Highest quantile with TAIL_BEYOND samples beyond it at MIN_PASSES passes.

    Fixed per workload so that a faster program, which completes more
    passes, is compared at the same quantile of the same job mix.
    """
    n = MIN_PASSES * jobs_per_pass
    return (n - TAIL_BEYOND) / n


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def write_inputs(jobs, warmup, work: Path) -> Path:
    entries = {"jobs": [], "warmup": []}
    for group, items in (("jobs", jobs), ("warmup", warmup)):
        for job in items:
            cfg_path = work / "configs" / f"{job['id']}.json"
            cfg_path.write_text(json.dumps(job["config"], sort_keys=True))
            argv = [job["command"], "--config", str(cfg_path), "--out", str(work / "out" / job["id"])]
            if job["format"]:
                argv += ["--format", job["format"]]
            entries[group].append({"id": job["id"], "argv": argv, "out": str(work / "out" / job["id"])})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC), **entries}))
    return manifest


def judge(jobs, warmup, report, work: Path) -> tuple[int, int, dict[str, list[str]]]:
    """(attempted, failed, problems by job id) over warm-up and every pass."""
    from checks import check_exit_code, check_identity, check_values

    by_id = {job["id"]: job for job in jobs}
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    for rec, job in zip(report["warmup"], warmup):
        attempted += 1
        bad = check_exit_code(job, rec["rc"])
        if bad:
            failed += 1
            problems[job["id"]] = bad
    passes = [p for phase in report["phases"].values() for p in phase]
    first = {rec["id"]: rec["hashes"] for rec in passes[0]}
    value_problems = {job["id"]: check_values(job, work / "out" / job["id"]) for job in jobs}
    for records in passes:
        for rec in records:
            job = by_id[rec["id"]]
            bad = (
                check_exit_code(job, rec["rc"])
                + check_identity(first[rec["id"]], rec["hashes"])
                + value_problems[rec["id"]]
            )
            attempted += 1
            if bad:
                failed += 1
                seen = problems.setdefault(rec["id"], [])
                seen.extend(p for p in bad if p not in seen)
    return attempted, failed, problems


def timings(latencies, fraction: float) -> dict:
    """batch_s, job_p50_ms and job_tail_ms from per-pass job latencies."""
    flat = [x for per_pass in latencies for x in per_pass]
    return {
        "batch_s": statistics.median(sum(per_pass) for per_pass in latencies),
        "job_p50_ms": statistics.median(flat) * 1e3,
        "job_tail_ms": nearest_rank(flat, fraction) * 1e3,
    }


def end_to_end(report, jobs, setup_times) -> tuple[dict, dict]:
    """Metrics in reference seconds (see reference.py), and the raw wall times."""
    from reference import normalize

    passes = report["phases"]["plain"]
    fraction = tail_fraction(len(jobs))
    # The imports run in child processes, so a chunk next to one tracks it
    # poorly; the median over all chunks of the set-up phase does better.
    setup_units = [s[1] for s in setup_times] + [setup_times[-1][2]]
    wall = [[r["latency_s"] for r in records] for records in passes]
    normalized = [[normalize(r["latency_s"], r["ref_unit_s"]) for r in records] for records in passes]
    values = {
        "setup_s": normalize(statistics.median(s[0] for s in setup_times), statistics.median(setup_units)),
        **timings(normalized, fraction),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    info = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "job_samples": sum(len(per_pass) for per_pass in wall),
        "tail_percentile": round(100.0 * fraction, 2),
        "wall": {"setup_s": statistics.median(s[0] for s in setup_times), **timings(wall, fraction)},
        "setup_samples": [dict(zip(("wall_s", "ref_before_s", "ref_after_s"), s)) for s in setup_times],
        "pass_s": [sum(per_pass) for per_pass in normalized],
        "pass_wall_s": [sum(per_pass) for per_pass in wall],
        "ref_unit_s": {job["id"]: [records[k]["ref_unit_s"] for records in passes] for k, job in enumerate(jobs)},
        "probes": {job["id"]: [records[k]["probes"] for records in passes] for k, job in enumerate(jobs)},
        "latency_s": {job["id"]: [records[k]["latency_s"] for records in passes] for k, job in enumerate(jobs)},
    }
    return values, info


def per_layer(report, imports) -> dict:
    def batch(phase):
        return statistics.median(sum(r["latency_s"] for r in records) for records in report["phases"][phase])

    values = dict(imports)
    values.update(report["layers"])
    values["trace.overhead_ratio"] = batch("traced") / batch("plain")
    return values


def declared(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paramix batch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    nproc, cpu_pinned = pin_to_one_cpu()

    if not (SRC / "paramix" / "cli.py").is_file():
        print(f"perfbench: no paramix sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from paramix.errors import ConfigError
    from paramix.schemas import validate_config

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    try:
        jobs = workloads.generate(args.workload, seed)
    except KeyError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warmup = workloads.warmup_jobs()
    for job in jobs + warmup:
        try:
            validate_config(job["command"], job["config"])
        except ConfigError as exc:
            print(f"perfbench: generator produced an invalid config for {job['id']}: {exc}", file=sys.stderr)
            return 2

    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for job in jobs + warmup:
        (work / "out" / job["id"]).mkdir(parents=True)
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    try:
        manifest = write_inputs(jobs, warmup, work)
        env = child_env()
        setup_times = time_imports(env, SETUP_REPEATS)
        imports = import_breakdown(env, IMPORTTIME_REPEATS) if args.trace else {}
        report_path = work / "report.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--manifest", str(manifest), "--report", str(report_path),
            "--seconds", str(args.seconds),
            "--min-passes", str(TRACE_MIN_PASSES if args.trace else MIN_PASSES),
            "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans", str(results / f"spans-{tag}.jsonl")]
        timeout = max(10.0, DEADLINE_S - (time.perf_counter() - started) - 15.0)
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write((work / "worker.log").read_text()[-4000:])
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 2
        report = json.loads(report_path.read_text())
        attempted, failed, problems = judge(jobs, warmup, report, work)
        e2e, info = end_to_end(report, jobs, setup_times)
        kind = "per_layer" if args.trace else "end_to_end"
        measured = per_layer(report, imports) if args.trace else e2e
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in declared(kind)}
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: child process timed out: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts(nproc, cpu_pinned)
    full = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "end_to_end": e2e,
        "run": info,
        "mix": workloads.mix_shares(jobs),
        "machine": facts,
        "artifact_sha256": {rec["id"]: rec["hashes"] for rec in report["phases"]["plain"][-1]},
    }
    if args.trace:
        full["layers_missing"] = report.get("missing_targets", [])
        full["spans"] = report.get("spans", 0)
    (results / f"{tag}.json").write_text(json.dumps(full, indent=2, sort_keys=True))

    print(f"workload {args.workload} seed {seed}: {info['passes']} passes x {info['jobs_per_pass']} jobs, mix {full['mix']}")
    print(f"failed_ratio {full['failed_ratio']:.4g} ({failed}/{attempted})")
    print(f"job_tail_ms is p{info['tail_percentile']} over {info['job_samples']} samples")
    print(f"wall times before normalization {json.dumps(info['wall'], sort_keys=True)}")
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    for job_id, bad in sorted(problems.items()):
        print(f"FAILED {job_id}: {'; '.join(bad)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
