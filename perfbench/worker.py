"""Timed loop over one workload's job list, in a fresh process.

Runs `paramix.cli.main` in-process on each job in turn (a closed loop with
one caller) and repeats the whole list in passes until the time budget is
spent and at least `--min-passes` passes are done. Only the `cli.main` call
is timed; clearing the previous pass's artifacts and hashing the new ones
happen between jobs, outside the timed region.

All through a pass a probe (reference.py) runs a small chunk of fixed
reference work every 50 ms, to measure the machine's current speed. Each
job record keeps its latency less the probes that ran inside it, and the
mean seconds per reference unit of the probes near it.

With `--trace 1` each job runs twice in a row, untraced and then traced
(every layer wrapped, see tracing.py), so that the machine's speed changes
over the run affect both alike.

The report, a JSON file, holds per-job latencies, exit codes and artifact
hashes of every pass, the process's peak resident memory, and the traced
layer metrics.

Usage: python3 perfbench/worker.py --manifest FILE --report FILE
       --seconds S --min-passes N --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import reference
from checks import sha256
from tracing import Tracer, layer_metrics, write_spans


def _clear(out: Path) -> None:
    for path in out.iterdir():
        path.unlink()


def run_job(cli, job) -> dict:
    out = Path(job["out"])
    _clear(out)
    start = time.perf_counter()
    rc = cli.main(job["argv"])
    end = time.perf_counter()
    hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
    return {"id": job["id"], "start": start, "end": end, "rc": rc, "hashes": hashes}


def run_pass(cli, jobs, probe, tracer=None, pass_no=0) -> tuple[list[dict], list[dict]]:
    """One pass over the jobs; with a tracer each job runs untraced, then traced.

    The probe runs while the untraced jobs run and between them; it is off
    during traced jobs, so that no probe lands in a span.
    """
    gc.collect()
    plain, traced = [], []
    probe.arm()
    for job in jobs:
        plain.append(run_job(cli, job))
        if tracer is not None:
            probe.disarm()
            tracer.job_id = f"{pass_no}:{job['id']}"
            tracer.install()
            try:
                traced.append(run_job(cli, job))
            finally:
                tracer.restore()
            probe.arm()
    probe.disarm()
    samples = probe.take()
    for rec in plain:
        latency, unit_s, used = reference.settle(rec.pop("start"), rec.pop("end"), samples)
        rec.update(latency_s=latency, ref_unit_s=unit_s, probes=used)
    for rec in traced:
        rec["latency_s"] = rec.pop("end") - rec.pop("start")
    return plain, traced


def run_passes(cli, jobs, seconds: float, min_passes: int, tracer=None) -> dict[str, list]:
    """Whole passes until `seconds` would be exceeded by one more pass."""
    plain_passes, traced_passes = [], []
    probe = reference.Probe()
    start = time.perf_counter()
    last = 0.0
    while len(plain_passes) < min_passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        plain, traced = run_pass(cli, jobs, probe, tracer, len(plain_passes))
        plain_passes.append(plain)
        traced_passes.append(traced)
        last = time.perf_counter() - t0
    if tracer is None:
        return {"plain": plain_passes}
    return {"plain": plain_passes, "traced": traced_passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text())
    sys.path.insert(0, manifest["src"])
    import paramix.cli as cli

    warmup = [{"id": j["id"], "rc": cli.main(j["argv"])} for j in manifest["warmup"]]
    reference.chunk(50)
    tracer = Tracer() if args.trace else None
    phases = run_passes(cli, manifest["jobs"], args.seconds, args.min_passes, tracer)
    report = {"warmup": warmup, "phases": phases}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans, tracer.counters, len(phases["traced"]))
        report["missing_targets"] = tracer.missing
        report["spans"] = len(tracer.spans)
        if args.spans:
            write_spans(tracer.spans, args.spans)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
