"""Spans around calls into each paramix layer, recorded from outside.

`Tracer.install` replaces each public function at every place it is bound
(its own module, every `paramix.*` module that imported it by name, and the
package namespace) with a wrapper that records one span: name, start, end,
parent span and job id. Spans stay in memory; `write_spans` dumps them at
the end. `Tracer.restore` puts the original objects back.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _file_bytes(args, kwargs, result, exc):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)} if exc is None else {}


def _sweep_points(args, kwargs, result, exc):
    f = args[1] if len(args) > 1 else kwargs.get("f_ghz")
    return {"points": int(np.size(f))}


def _connect_ports(args, kwargs, result, exc):
    graph = args[0] if args else kwargs.get("graph")
    if exc is not None:
        return {"failed": 1}
    # joined ports come in pairs; the rest are the external ones
    return {"ports": len(result.ports) + 2 * len(graph.joints)}


def _fit_identifiable(args, kwargs, result, exc):
    if exc is not None:
        return {"not_identifiable": int(type(exc).__name__ == "NonIdentifiableError")}
    return {"not_identifiable": int(not result.alpha_identifiable)}


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined and the span name it gets.

    attr may be dotted ("optimize.least_squares"): the wrapper is then set
    on the object the prefix names, if that object exists.
    """

    module: str
    attr: str
    name: str
    count: Callable | None = None


TARGETS = (
    Target("paramix.cli", "main", "cli.main"),
    Target("paramix.schemas", "validate_config", "schemas.validate_config"),
    Target("paramix.schemas", "validate_artifact", "schemas.validate_artifact"),
    Target("paramix.formats", "write_csv", "formats.write_csv", _file_bytes),
    Target("paramix.formats", "write_touchstone", "formats.write_touchstone", _file_bytes),
    Target("paramix.formats", "write_json", "formats.write_json", _file_bytes),
    Target("paramix.isolator", "effective_2port_sweep", "isolator.effective_2port_sweep", _sweep_points),
    Target("paramix.isolator", "composed_4port", "isolator.composed_4port"),
    Target("paramix.mixer", "flux_tuning_curve", "mixer.flux_tuning_curve"),
    Target("paramix.mixer", "t_of_frequency", "mixer.t_of_frequency"),
    Target("paramix.network", "connect", "network.connect", _connect_ports),
    Target("paramix.parity", "chain_transmission", "parity.chain_transmission"),
    Target("paramix.parity", "calibrate", "parity.calibrate"),
    Target("paramix.analysis", "fit_rho_alpha", "analysis.fit_rho_alpha", _fit_identifiable),
    Target("paramix.analysis", "optimize.least_squares", "analysis.least_squares"),
    Target("paramix.analysis", "bandwidth_3dB", "analysis.bandwidth_3dB"),
)

# Span fields, in the order each span list holds them.
NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, self.job_id]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as caught:
                exc = caught
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if count is not None:
                    for key, value in count(args, kwargs, result, exc).items():
                        counters[f"{name}.{key}"] += value

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; `missing` lists the span names with no target."""
        missing = []
        modules = [
            m for n, m in list(sys.modules.items()) if m is not None and (n == "paramix" or n.startswith("paramix."))
        ]
        for target in targets:
            owner = sys.modules.get(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(target.name)
                continue
            wrapper = self.wrap(target.name, original, target.count)
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))
        self.missing = missing

    def restore(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)


def self_times_ns(spans) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counters, passes: int, targets=TARGETS) -> dict[str, float]:
    """Per-pass calls, self seconds and counters of every target."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times_ns(spans)):
        calls[span[NAME]] += 1
        self_ns[span[NAME]] += own
    out: dict[str, float] = {}
    for target in targets:
        out[f"{target.name}.calls"] = calls[target.name] / passes
        out[f"{target.name}.self_s"] = self_ns[target.name] / 1e9 / passes
    for key, value in counters.items():
        out[key] = value / passes
    return out


def write_spans(spans, path) -> None:
    """One JSON object per line: name, start_ns, end_ns, parent, job."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    {"name": span[NAME], "start_ns": span[START], "end_ns": span[END], "parent": span[PARENT], "job": span[JOB]}
                )
                + "\n"
            )
