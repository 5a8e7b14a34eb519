"""Joint-parity detection with chained nonreciprocal phase shifters.

Each device in the chain acts on the top arm of a Mach-Zehnder as an ideal
gyrator whose forward phase encodes its flux parity: for pump feed P1 the
forward transmission is -e^{i(-pi/2 + p pi)} = i(-1)^p, for P2 the
conjugate. A chain of N such devices would accumulate a parity-independent
i^N (or mixed-feed) reference on top of the (-1)^{sum p} signal; physically
each unit cell is embedded in a line trimmed to an integer number of
wavelengths, so the chain builder pairs every gyrator with a matching
segment that cancels its even-parity transmission. The compensated cell
contributes exactly +1 (even) or -1 (odd), a single interferometer
calibration then nulls the dark port for every chain length and pump mix,
and the bright port reads out the XOR of the parities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousParityError, NumericalError
from .isolator import HYBRID, PUMP_PHI_RAD
from .mixer import FLUX_QUANTUM_WB
from .network import ConnectionGraph, ScatteringMatrix, connect

_PARITY_BIT = {"even": 0, "odd": 1}


@dataclass(frozen=True)
class GyratorSpec:
    """One chained device: joint flux parity and its pump feed."""

    parity: str = "even"
    pump_port: str = "P1"

    def __post_init__(self) -> None:
        if self.parity not in _PARITY_BIT:
            raise ValueError("parity must be 'even' or 'odd'")
        if self.pump_port not in PUMP_PHI_RAD:
            raise ValueError("pump_port must be 'P1' or 'P2'")

    @property
    def parity_bit(self) -> int:
        return _PARITY_BIT[self.parity]

    @property
    def phi_rad(self) -> float:
        return PUMP_PHI_RAD[self.pump_port] + self.parity_bit * np.pi


def _two_port(fwd: complex, bwd: complex) -> ScatteringMatrix:
    """Matched 2-port on ports (1, 2): 1 -> 2 carries fwd, 2 -> 1 carries bwd."""
    return ScatteringMatrix(("1", "2"), np.array([[0.0, bwd], [fwd, 0.0]], dtype=complex))


def gyrator_2port(spec: GyratorSpec) -> ScatteringMatrix:
    """Ideal gyrator [[0, -e^{-i phi}], [-e^{i phi}, 0]] on ports (1, 2).

    Forward (1 -> 2) carries -e^{i phi}, backward -e^{-i phi}; their ratio is
    e^{2 i phi} = -1 for every parity and pump feed, the gyrator hallmark.
    """
    ph = np.exp(1j * spec.phi_rad)
    return _two_port(-ph, -np.conj(ph))


@dataclass(frozen=True)
class ChainSpec:
    """Gyrator chain in the top arm plus the bottom-arm trim phase."""

    gyrators: tuple[GyratorSpec, ...]
    calibration_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if not self.gyrators:
            raise ValueError("chain needs at least one gyrator")


def _even_forward(pump_port: str) -> complex:
    """Forward transmission of an even-parity cell before compensation."""
    return -np.exp(1j * PUMP_PHI_RAD[pump_port])


def chain_transmission(chain: ChainSpec) -> complex:
    """Bright-port amplitude of the interferometer enclosing the chain.

    Hybrid in, hybrid out; the top arm holds each gyrator with its
    wavelength-matching segment (transmission conj of the cell's even-parity
    forward phase, both directions), the bottom arm a matched line carrying
    e^{i calibration_phase}. At calibration phase 0 the magnitude is 0 for
    an even chain and 1 for an odd one.
    """
    elements = {"hl": HYBRID}
    joints = []
    prev = ("hl", "1p")
    for k, spec in enumerate(chain.gyrators):
        comp = np.conj(_even_forward(spec.pump_port))
        elements[f"g{k}"] = gyrator_2port(spec)
        elements[f"m{k}"] = _two_port(comp, comp)
        joints.append((prev, (f"g{k}", "1")))
        joints.append(((f"g{k}", "2"), (f"m{k}", "1")))
        prev = (f"m{k}", "2")
    bot = np.exp(1j * chain.calibration_phase_rad)
    elements["bot"] = _two_port(bot, bot)
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


def calibrate(reference: ChainSpec | None = None, tol: float = 1e-9) -> float:
    """Bottom-arm phase that nulls the bright port for an even reference.

    Measures the reference interferometer at trim phases 0 and pi, solves
    T(psi) = A + B e^{i psi} for the nulling phase, and raises if no unit
    e^{i psi} can null the output. Unique modulo 2 pi; returned in (-pi, pi].
    """
    if reference is None:
        reference = ChainSpec((GyratorSpec(parity="even", pump_port="P1"),))
    if any(g.parity != "even" for g in reference.gyrators):
        raise ValueError("calibration reference must be all even")
    t0 = chain_transmission(replace(reference, calibration_phase_rad=0.0))
    tpi = chain_transmission(replace(reference, calibration_phase_rad=np.pi))
    a = (t0 + tpi) / 2.0
    b = (t0 - tpi) / 2.0
    if abs(b) < tol:
        raise NumericalError("no nulling phase exists: trim arm does not reach the output")
    z = -a / b
    if abs(abs(z) - 1.0) > tol:
        raise NumericalError("no nulling phase exists: arms are imbalanced")
    psi = float(np.angle(z))
    return psi if psi != -np.pi else np.pi


def infer_parity(magnitudes) -> list[str]:
    """Threshold bright-port magnitudes into parities (dark even, bright odd).

    Magnitudes in [0.3, 0.7] are rejected as ambiguous before thresholding
    at 1/2.
    """
    out = []
    for m in magnitudes:
        m = float(m)
        if not m >= 0.0:
            raise ValueError("magnitudes must be nonnegative")
        if 0.3 <= m <= 0.7:
            raise AmbiguousParityError(f"ambiguous transmission magnitude {m:g}")
        out.append("even" if m < 0.5 else "odd")
    return out


def field_range(loop_area_um2: float) -> tuple[float, float]:
    """Magnetic field window (tesla) threading 0.1 to 1 flux quanta.

    loop_area_um2 is the gradiometric loop area in square microns.
    """
    if not loop_area_um2 > 0.0:
        raise ValueError("loop_area_um2 must be positive")
    area_m2 = loop_area_um2 * 1e-12
    full = FLUX_QUANTUM_WB / area_m2
    return (0.1 * full, full)
