"""A fixed reference workload that measures the machine's current speed.

On a shared host the speed of one core swings by up to 2x within seconds
and by 1.5x between minute-long phases; process CPU time swings alike, so
the cause is contention outside the process, not scheduling. Wall times
taken minutes apart then differ by more than any useful bound.

The benchmark therefore samples the speed all through a pass: a `Probe`
runs PROBE_UNITS units of fixed reference work every PROBE_INTERVAL_S from
a SIGALRM handler, whether a job is running or not. A job's latency, less
the probes that ran inside it, is divided by the mean seconds per unit of
the probes within WINDOW_S of the job. Multiplied by REF_UNIT_S, the result
is the job's latency in seconds on a machine where one reference unit
takes exactly REF_UNIT_S (about this host's speed). The raw wall times are
kept in the full result file.

The reference work does not touch paramix, so a change to the program
leaves it alone: a faster program shows as a smaller normalized time. Its
mix of pure-Python string and dict work, vectorized complex arithmetic and
small dense solves resembles what the workloads spend their time on.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Nominal seconds of one reference unit; scales normalized times to seconds.
REF_UNIT_S = 1e-3
# PROBE_UNITS units every PROBE_INTERVAL_S: about 3% of the run.
PROBE_UNITS = 2
PROBE_INTERVAL_S = 0.05
# Probes this far before a job's start or after its end still count for it.
WINDOW_S = 0.25

_rng = np.random.default_rng(20060118)
_VEC = _rng.standard_normal(20000) + 1j * _rng.standard_normal(20000)
_MAT = _rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
_FLOATS = [float(x) for x in _rng.standard_normal(400)]


def unit() -> float:
    """One unit of reference work (about 1 ms on a 2.1 GHz Xeon core)."""
    rows = [f"{a:.9g},{a * a:.9g}" for a in _FLOATS]
    index = {row[:6]: k for k, row in enumerate(rows)}
    z = _VEC * _VEC.conj() + 0.5
    total = float(np.abs(z).sum())
    for _ in range(20):
        np.linalg.solve(_MAT, _MAT[0])
    return total + len(index)


def chunk(units: int) -> float:
    """Wall seconds per reference unit over `units` units run now."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


def normalize(latency_s: float, unit_s: float) -> float:
    """A latency in reference seconds, given the seconds per unit around it."""
    return latency_s * REF_UNIT_S / unit_s


class Probe:
    """Runs a chunk of reference work every PROBE_INTERVAL_S while armed.

    The chunks run in a SIGALRM handler, in the main thread between two
    bytecodes of the program, so each lies wholly inside or outside a timed
    window. The handler stays installed after `disarm`, so that a signal
    already on its way is harmless. Single-threaded by design, like the
    batch it measures.
    """

    def __init__(self, units: int = PROBE_UNITS, interval_s: float = PROBE_INTERVAL_S):
        self.units = units
        self.interval_s = interval_s
        self.samples: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        per_unit = chunk(self.units)
        self.samples.append((start, time.perf_counter(), per_unit))

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def take(self) -> list[tuple[float, float, float]]:
        """The (start, end, seconds per unit) of each probe since the last take."""
        samples, self.samples = self.samples, []
        return samples


def settle(start: float, end: float, samples, window_s: float = WINDOW_S) -> tuple[float, float, int]:
    """(latency less probes, mean seconds per unit nearby, probes used) of a window.

    The mean is over the probes that overlap [start - window_s, end +
    window_s]; if there are none, the probe nearest to the window is used.
    """
    inside = sum(t1 - t0 for t0, t1, _ in samples if t0 >= start and t1 <= end)
    near = [u for t0, t1, u in samples if t1 >= start - window_s and t0 <= end + window_s]
    if not near:
        near = [min(samples, key=lambda s: min(abs(s[0] - end), abs(s[1] - start)))[2]]
    return end - start - inside, sum(near) / len(near), len(near)
