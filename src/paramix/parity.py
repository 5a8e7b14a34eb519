"""Joint-parity detection with chained nonreciprocal phase shifters.

Each device in the chain acts on the top arm of a Mach-Zehnder as an ideal
gyrator: a converter stage at full conversion, mixer_2port(1, 0, 0, k)
with t = 1 and r = 0, whose phase k (GyratorSpec.quarter_turns) is the
isolator's stage-phase difference in quarter turns for its feed and joint
flux parity p (isolator.stage_quarters). Its forward transmission is
-i^k = i(-1)^p for pump feed P1 and the conjugate for P2. A chain of N
such devices would accumulate a parity-independent i^N (or mixed-feed)
reference on top of the (-1)^{sum p} signal; physically each unit cell is
embedded in a line trimmed to an integer number of wavelengths, so the
chain builder pairs every gyrator with a matching segment
(network.matched_line) that cancels its even-parity transmission. Both
are exact quarter-turn phasors (mixer.turn_phasor), so the cell
contributes exactly +1 (even) or -1 (odd), a single interferometer
calibration then nulls the dark port exactly for every chain length and
pump mix, and the bright port reads out the XOR of the parities.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .isolator import stage_quarters
from .mixer import FLUX_QUANTUM_WB, mixer_2port, turn_phasor
from .network import HYBRID, ConnectionGraph, connect, matched_line

_PARITY_BIT = {"even": 0, "odd": 1}

# Largest B * n^2 of one stack of chain graphs handed to connect(): a call
# holds a few copies of each stack, so memory stays bounded however many
# long chains it is given, as isolator.SWEEP_CHUNK bounds a sweep's.
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GyratorSpec:
    """One chained device: joint flux parity and its pump feed.

    parity_bit (0 even, 1 odd) and quarter_turns, the stage-phase difference
    k1 - k2 whose first stage carries the parity, are derived once and
    cannot be set.
    """

    parity: str = "even"
    pump_port: str = "P1"
    parity_bit: int = field(init=False, repr=False, compare=False)
    quarter_turns: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.parity not in _PARITY_BIT:
            raise ValueError("parity must be 'even' or 'odd'")
        bit = _PARITY_BIT[self.parity]
        k1, k2 = stage_quarters(self.pump_port, bit)  # raises for a pump port other than P1 and P2
        object.__setattr__(self, "parity_bit", bit)
        object.__setattr__(self, "quarter_turns", k1 - k2)


def chain_transmission(chains: Sequence[Sequence[GyratorSpec]]) -> list[complex]:
    """Bright-port amplitude of the interferometer enclosing each chain, in order.

    A chain is a non-empty sequence of GyratorSpec. Hybrid in, hybrid out;
    the top arm holds each gyrator with its wavelength-matching segment
    (transmission conj of the cell's even-parity forward phase, both
    directions), the bottom arm a matched line carrying exactly +1, the
    phasor of the phase calibrate() measures. The magnitude is 0 for an
    even chain and 1 for an odd one.

    Chains of one length share a topology, so they are reduced together by
    one connect() per stack of at most _STACK_ENTRIES matrix entries; the
    stacking changes no bit of any amplitude.
    """
    out = [0j] * len(chains)
    by_length: dict[int, list[int]] = {}
    for i, chain in enumerate(chains):
        if not chain:
            raise ValueError("chain needs at least one gyrator")
        by_length.setdefault(len(chain), []).append(i)
    for length, members in by_length.items():
        # two hybrids, a gyrator and a segment per cell, the bottom line
        n_ports = 2 * HYBRID.n_ports + 4 * length + 2
        step = max(1, _STACK_ENTRIES // n_ports**2)
        for start in range(0, len(members), step):
            batch = members[start : start + step]
            amplitudes = _interferometer([chains[i] for i in batch], 1.0)
            for i, t in zip(batch, amplitudes):
                out[i] = complex(t)
    return out


def _interferometer(chains: list[Sequence[GyratorSpec]], bottom) -> np.ndarray:
    """(B,) bright-port amplitudes of B chains of one length, from one connect().

    bottom is the bottom arm's transmission: one complex shared by all B,
    or one per chain.
    """
    elements = {"hl": HYBRID}
    joints = []
    prev = ("hl", "1p")
    for k, cells in enumerate(zip(*chains)):
        turns = [spec.quarter_turns for spec in cells]
        # the segment carries, both ways, the conjugate of an even cell's
        # forward transmission -i^(q - 2p) = i^(q - 2p + 2): i^(2p - q - 2)
        comp = [turn_phasor(2 * spec.parity_bit - q - 2) for q, spec in zip(turns, cells)]
        elements[f"g{k}"] = mixer_2port(1.0, 0.0, 0.0, turns)
        elements[f"m{k}"] = matched_line(comp)
        joints.append((prev, (f"g{k}", "a")))
        joints.append(((f"g{k}", "b"), (f"m{k}", "1")))
        prev = (f"m{k}", "2")
    elements["bot"] = matched_line(bottom)
    elements["hr"] = HYBRID
    joints.append((prev, ("hr", "1p")))
    joints.append((("hl", "2p"), ("bot", "1")))
    joints.append((("bot", "2"), ("hr", "2p")))
    graph = ConnectionGraph(
        elements,
        tuple(joints),
        external=(("hl", "1"), ("hl", "2"), ("hr", "1"), ("hr", "2")),
    )
    return connect(graph).entry("hr.1", "hl.1")


def calibrate() -> float:
    """Bottom-arm phase that nulls the bright port for one even P1 cell.

    Measures that interferometer with the bottom arm at +1 and -1 (phases 0
    and pi) in one stack, t0 and tpi. T(psi) = A + B e^{i psi} with
    2A = t0 + tpi and 2B = t0 - tpi nulls at e^{i psi} = -A / B, which has
    unit magnitude for this fixed cell, so the phase always exists. Unique
    modulo 2 pi; returned in (-pi, pi]. It is +0.0, the phase whose exact
    phasor chain_transmission puts in the bottom arm.
    """
    cell = (GyratorSpec(parity="even", pump_port="P1"),)
    t0, tpi = _interferometer([cell, cell], (1.0, -1.0))
    psi = cmath.phase(-(t0 + tpi) / (t0 - tpi))
    return psi if psi != -math.pi else math.pi


def field_range(loop_area_um2: float) -> tuple[float, float]:
    """Magnetic field window (tesla) threading 0.1 to 1 flux quanta.

    loop_area_um2 is the gradiometric loop area in square microns.
    """
    if not loop_area_um2 > 0.0:
        raise ValueError("loop_area_um2 must be positive")
    area_m2 = loop_area_um2 * 1e-12
    full = FLUX_QUANTUM_WB / area_m2
    return (0.1 * full, full)
