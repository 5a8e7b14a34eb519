"""Seeded job lists for the three benchmark workloads.

A job is one `paramix` CLI call: a command, a config, an output format, the
exit code it must return and what the checker needs to judge its artifacts.
The seed is the only source of variation; the program sees only the
generated configs. Every seeded strand of a workload is stratified (one
draw per cell of a fixed partition) so that the cost of a pass depends
little on the seed while the values change from seed to seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_SEED = 1
CHECK_SEED = 2

SCHEMA = "paramix/1"

# Reference device constants, as in paramix.isolator.reference_device.
F_A_GHZ = 6.84
F_B_GHZ = 9.567
GAMMA_A_MHZ = 40.0
GAMMA_B_MHZ = 100.0
# Pump strengths whose isolated-direction dip is bracketed by the grid.
DIP_RHO = (0.29, 0.45)
# Flux must stay inside the primary lobe |phi_ext| <= 1.4 * 2 pi.
FLUX_LIMIT_RAD = 0.95 * 1.4 * 2.0 * math.pi


def _job(job_id, command, config, fmt=None, expect_rc=0, kind=None, check=None):
    return {
        "id": job_id,
        "command": command,
        "format": fmt,
        "config": config,
        "expect_rc": expect_rc,
        "kind": kind or command,
        "check": check or {},
    }


def _strata(rng, lo, hi, n):
    """n values in [lo, hi], one uniform draw per equal-width cell, shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    vals = rng.uniform(edges[:-1], edges[1:])
    rng.shuffle(vals)
    return [float(v) for v in vals]


def _jpc(rho):
    return {
        "f_a_ghz": F_A_GHZ,
        "f_b_ghz": F_B_GHZ,
        "gamma_a_mhz": GAMMA_A_MHZ,
        "gamma_b_mhz": GAMMA_B_MHZ,
        "rho": rho,
    }


def sweep_export(rng):
    """Large grids through the writers: 9 jobs per pass."""
    jpc_rhos = _strata(rng, *DIP_RHO, 2)
    spans = _strata(rng, 200.0, 400.0, 4)
    jobs = [
        _job(
            "ts200k",
            "jis-sweep",
            {
                "schema": SCHEMA,
                "jis": {"preset": "reference"},
                "grid": {"span_mhz": spans[0], "points": 200001},
            },
            "touchstone",
        ),
        _job(
            "jpc-csv200k",
            "jpc-sweep",
            {"schema": SCHEMA, "jpc": _jpc(jpc_rhos[0]), "grid": {"span_mhz": spans[1], "points": 200001}},
            "csv",
        ),
        _job(
            "jpc-json20k",
            "jpc-sweep",
            {"schema": SCHEMA, "jpc": _jpc(jpc_rhos[1]), "grid": {"span_mhz": spans[2], "points": 20001}},
            "json",
        ),
    ]
    for k, rho in enumerate(_strata(rng, *DIP_RHO, 4)):
        jobs.append(
            _job(
                f"jis-csv20k-{k}",
                "jis-sweep",
                {
                    "schema": SCHEMA,
                    "jis": {"preset": "reference", "rho": rho, "pump_port": ("P1", "P2")[k % 2]},
                    "grid": {"span_mhz": spans[3], "points": 20001},
                },
                "csv",
            )
        )
    lobe = float(rng.uniform(0.8, 0.95)) * 1.4 * 2.0 * math.pi
    jobs.append(
        _job(
            "flux20k",
            "flux-curve",
            {"schema": SCHEMA, "grid": {"phi_start_rad": -lobe, "phi_stop_rad": lobe, "points": 20001}},
        )
    )
    jobs.append(
        _job(
            "bw-scan9",
            "bandwidth-scan",
            {
                "schema": SCHEMA,
                "jis": {"preset": "reference"},
                "rho_values": sorted(_strata(rng, *DIP_RHO, 9)),
            },
        )
    )
    return jobs


def forward_powers(rho, alpha, pump_port):
    """On-resonance (|S21|^2, |S12|^2) of the isolator model.

    With t = 2 rho / (1 + rho^2) and r = (1 - rho^2) / (1 + rho^2), the
    reflected and converted amplitudes are r (1 - a^2) / (1 - r^2 a^2) and
    t^2 a / (1 - r^2 a^2); the pump port sets the sign of the converted
    part in each direction.
    """
    t = 2.0 * rho / (1.0 + rho * rho)
    r = (1.0 - rho * rho) / (1.0 + rho * rho)
    loop = 1.0 - (r * alpha) ** 2
    refl = r * (1.0 - alpha * alpha) / loop
    conv = t * t * alpha / loop
    sin_phi = -1.0 if pump_port == "P1" else 1.0
    return (refl - conv * sin_phi) ** 2, (refl + conv * sin_phi) ** 2


# Reference working point (paramix.isolator.reference_device).
RHO_REF = math.sqrt(2.0) - 1.0
ALPHA_REF = 0.51
# Boundary classes of noisy pairs: (pump port, power pushed past 1).
_BOUNDARY = (("P1", "s21_sq"), ("P2", "s21_sq"), ("P2", "s12_sq"), ("P1", "s12_sq"))
_FIT_CELLS = 6  # exact pairs: one per cell of a 6 x 6 partition of [0.02, 0.98]^2
_FIT_INTERIOR = 7


def _fit_job(job_id, s21_sq, s12_sq, port, kind, check, expect_rc=0):
    config = {"schema": SCHEMA, "s21_sq": s21_sq, "s12_sq": s12_sq, "pump_port": port}
    return _job(job_id, "fit", config, expect_rc=expect_rc, kind=kind, check=check)


def fit_batch(rng):
    """Working-point fits: 36 exact, 11 noisy, 1 non-identifiable per pass."""
    jobs = []
    edges = np.linspace(0.02, 0.98, _FIT_CELLS + 1)
    for i, j in itertools.product(range(_FIT_CELLS), repeat=2):
        rho = float(rng.uniform(edges[i], edges[i + 1]))
        alpha = float(rng.uniform(edges[j], edges[j + 1]))
        port = "P1" if (i + j) % 2 == 0 else "P2"
        s21, s12 = forward_powers(rho, alpha, port)
        jobs.append(
            _fit_job(f"exact-{i}{j}", s21, s12, port, "exact", {"rho": rho, "alpha": alpha})
        )
    # noisy pairs off the model image: a model pair moved by 0.02-0.08 in
    # each power, redrawn until both stay inside [0.02, 0.98]
    while len(jobs) < _FIT_CELLS**2 + _FIT_INTERIOR:
        k = len(jobs) - _FIT_CELLS**2
        rho, alpha = (float(v) for v in rng.uniform(0.02, 0.98, 2))
        port = ("P1", "P2")[k % 2]
        base = forward_powers(rho, alpha, port)
        moved = [p + s * d for p, s, d in zip(base, rng.choice((-1.0, 1.0), 2), rng.uniform(0.02, 0.08, 2))]
        if not all(0.02 <= m <= 0.98 for m in moved):
            continue
        jobs.append(
            _fit_job(f"noisy-{k}", moved[0], moved[1], port, "noisy", {"base_powers": list(base)})
        )
    # noisy pairs clipped at the [0, 1] edge: one power pushed past 1, the
    # other at 1/2. These take 20-100x an exact fit and set the tail, so,
    # like (1, 1), they are fixed edge cases rather than seeded draws: a
    # seeded draw made the tail depend on the seed by +-12%.
    for port, clipped in _BOUNDARY:
        pair = {"s21_sq": 0.5, "s12_sq": 0.5, clipped: 1.0}
        base = forward_powers(RHO_REF, ALPHA_REF, port)
        jobs.append(
            _fit_job(
                f"clipped-{port}-{clipped[:3]}",
                pair["s21_sq"],
                pair["s12_sq"],
                port,
                "noisy",
                {"base_powers": list(base)},
            )
        )
    jobs.append(_fit_job("nonident", 1.0, 1.0, "P1", "non-identifiable", {}, expect_rc=3))
    return jobs


def _jis_override(rng):
    return {
        "preset": "reference",
        "rho": float(rng.uniform(0.05, 0.95)),
        "alpha_mag": float(rng.uniform(0.05, 0.95)),
        "pump_port": str(rng.choice(("P1", "P2"))),
        "phi_ext1_rad": float(rng.uniform(-FLUX_LIMIT_RAD, FLUX_LIMIT_RAD)),
        "phi_ext2_rad": float(rng.uniform(-FLUX_LIMIT_RAD, FLUX_LIMIT_RAD)),
    }


def _jis_full(rng):
    f_a = float(rng.uniform(5.0, 8.0))
    return {
        "f_a_ghz": f_a,
        "f_b_ghz": f_a + float(rng.uniform(1.5, 4.0)),
        "gamma_a_mhz": float(rng.uniform(20.0, 80.0)),
        "gamma_b_mhz": float(rng.uniform(50.0, 200.0)),
        "rho": float(rng.uniform(0.05, 0.95)),
        "alpha_mag": float(rng.uniform(0.05, 0.95)),
        "pump_port": str(rng.choice(("P1", "P2"))),
        "phi_ext1_rad": float(rng.uniform(-FLUX_LIMIT_RAD, FLUX_LIMIT_RAD)),
        "phi_ext2_rad": float(rng.uniform(-FLUX_LIMIT_RAD, FLUX_LIMIT_RAD)),
        "delay_length_um": float(rng.uniform(0.0, 20.0)),
        "delay_eps_eff": float(rng.uniform(1.0, 10.0)),
    }


def _chain(rng, length):
    return [
        {"parity": str(rng.choice(("even", "odd"))), "pump_port": str(rng.choice(("P1", "P2")))}
        for _ in range(length)
    ]


_FOUR_PORT_PER_FORMAT = 16
_TABLE_JOBS = 4
_LONG_LENGTHS = (16, 32, 64)
_LONG_CHAINS_PER_JOB = 4


def network_batch(rng):
    """Network reductions: 48 four-port jobs, 4 parity tables, 3 long-chain jobs."""
    jobs = []
    for fmt in ("touchstone", "csv", "json"):
        for k in range(_FOUR_PORT_PER_FORMAT):
            jis = _jis_override(rng) if k % 2 == 0 else _jis_full(rng)
            jobs.append(
                _job(f"4port-{fmt}-{k}", "jis-4port", {"schema": SCHEMA, "jis": jis}, fmt, kind="small-graph")
            )
    for k in range(_TABLE_JOBS):
        chains = [
            [{"parity": p, "pump_port": str(rng.choice(("P1", "P2")))} for p in bits]
            for length in range(1, 7)
            for bits in itertools.product(("even", "odd"), repeat=length)
        ]
        jobs.append(_job(f"parity-table-{k}", "parity", {"schema": SCHEMA, "chains": chains}, kind="large-graph"))
    for length in _LONG_LENGTHS:
        chains = [_chain(rng, length) for _ in range(_LONG_CHAINS_PER_JOB)]
        jobs.append(_job(f"parity-long{length}", "parity", {"schema": SCHEMA, "chains": chains}, kind="large-graph"))
    return jobs


def warmup_jobs():
    """One small job per command, run once before timing so that lazy
    imports and first-call set-up inside numpy, scipy and jsonschema are
    done; they are checked for their exit code only."""
    jis = {"preset": "reference"}
    small = {"span_mhz": 300.0, "points": 101}
    return [
        _job("warm-jis-csv", "jis-sweep", {"schema": SCHEMA, "jis": jis, "grid": small}, "csv"),
        _job("warm-jis-s2p", "jis-sweep", {"schema": SCHEMA, "jis": jis, "grid": small}, "touchstone"),
        _job("warm-jpc-csv", "jpc-sweep", {"schema": SCHEMA, "jpc": _jpc(0.4), "grid": small}, "csv"),
        _job("warm-jpc-json", "jpc-sweep", {"schema": SCHEMA, "jpc": _jpc(0.4), "grid": small}, "json"),
        _job("warm-flux", "flux-curve", {"schema": SCHEMA, "grid": {"points": 101}}),
        _job("warm-bw", "bandwidth-scan", {"schema": SCHEMA, "jis": jis, "rho_values": [0.4]}),
        _job("warm-fit", "fit", {"schema": SCHEMA, "s21_sq": 0.36, "s12_sq": 0.01}),
        _job("warm-s4p", "jis-4port", {"schema": SCHEMA, "jis": jis}, "touchstone"),
        _job("warm-4p-csv", "jis-4port", {"schema": SCHEMA, "jis": jis}, "csv"),
        _job("warm-4p-json", "jis-4port", {"schema": SCHEMA, "jis": jis}, "json"),
        _job("warm-parity", "parity", {"schema": SCHEMA, "chains": [[{"parity": "odd"}]]}),
    ]


WORKLOADS = {
    "sweep-export": sweep_export,
    "fit-batch": fit_batch,
    "network-batch": network_batch,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of `workload`; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


def mix_shares(jobs) -> dict:
    """Share of each job kind in one pass."""
    counts: dict[str, int] = {}
    for job in jobs:
        counts[job["kind"]] = counts.get(job["kind"], 0) + 1
    return {kind: round(n / len(jobs), 4) for kind, n in sorted(counts.items())}
