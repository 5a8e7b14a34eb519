"""Multiport scattering algebra: standard elements, graph reduction, unitarity checks.

Conventions
-----------
A scattering matrix S maps incoming wave amplitudes to outgoing ones,
S[i, j] being the amplitude out of port i per unit amplitude into port j.
Port identity is carried by an ordered tuple of unique string labels; the
row/column index of a label is its position in that tuple. A matrix carries
no frequency: each element of a network is one fixed, read-only matrix, and
frequency (cyclic, in GHz) is an input only of delay_line, the one element
whose response depends on it.

Element conventions (pinned jointly so that composed networks reproduce the
closed-form device responses elsewhere in the package):

* hybrid_90: through ports 1<->1' and 2<->2' carry 1/sqrt2, cross ports
  1<->2' and 2<->1' carry i/sqrt2. Two of them back to back with identity
  inner arms give S21 = S12 = i.
* lossy_coupler: the through path between the internal line ports carries
  -alpha, each branch to its external port carries +beta, and the path
  between the two external ports carries +alpha (unitary completion when
  alpha^2 + beta^2 = 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonInvertibleNetworkError

SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Largest acceptable condition number for the internal system in connect().
_MAX_INTERNAL_COND = 1e12


@dataclass(frozen=True)
class ScatteringMatrix:
    """Complex n-port scattering matrix; s is a read-only copy of the input."""

    ports: tuple[str, ...]
    s: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ports = tuple(str(p) for p in self.ports)
        m = np.array(self.s, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("scattering matrix must be square")
        if m.shape[0] != len(ports):
            raise ValueError("scattering matrix needs one row per port")
        if len(set(ports)) != len(ports):
            raise ValueError("port labels must be unique")
        m.flags.writeable = False
        object.__setattr__(self, "ports", ports)
        object.__setattr__(self, "s", m)

    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def index(self, port: str) -> int:
        try:
            return self.ports.index(port)
        except ValueError:
            raise KeyError(f"no port named {port!r}; have {self.ports}") from None

    def entry(self, out_port: str, in_port: str) -> complex:
        """Amplitude out of out_port per unit drive into in_port."""
        return complex(self.s[self.index(out_port), self.index(in_port)])

    def renamed(self, ports: tuple[str, ...]) -> "ScatteringMatrix":
        return ScatteringMatrix(ports, self.s)


def hybrid_90(phase_imbalance_rad: float = 0.0) -> ScatteringMatrix:
    """Ideal quadrature hybrid on ports (1, 2, 1p, 2p).

    Through paths 1<->1p and 2<->2p carry 1/sqrt2; cross paths 1<->2p and
    2<->1p carry i/sqrt2. The optional phase imbalance skews the two cross
    paths to i*e^{-i delta}/sqrt2 and i*e^{+i delta}/sqrt2 while keeping the
    matrix unitary and reciprocal; delta = 0 is the ideal part.
    """
    d = float(phase_imbalance_rad)
    if not np.isfinite(d):
        raise ValueError("phase_imbalance_rad must be finite")
    c = 1.0 / np.sqrt(2.0)
    cross_12p = 1j * c * np.exp(-1j * d)
    cross_21p = 1j * c * np.exp(1j * d)
    s = np.array(
        [
            [0.0, 0.0, c, cross_12p],
            [0.0, 0.0, cross_21p, c],
            [c, cross_21p, 0.0, 0.0],
            [cross_12p, c, 0.0, 0.0],
        ],
        dtype=complex,
    )
    return ScatteringMatrix(("1", "2", "1p", "2p"), s)


def delay_line(length_um: float, eps_eff: float, freq_ghz: float) -> ScatteringMatrix:
    """Matched transmission line of physical length length_um.

    Both directions carry e^{i theta} with theta = 2 pi f sqrt(eps_eff) l / c,
    evaluated at the actual propagating frequency freq_ghz.
    """
    if not length_um >= 0.0:
        raise ValueError("length_um must be nonnegative")
    if not eps_eff >= 1.0:
        raise ValueError("eps_eff must be >= 1")
    if not np.isfinite(freq_ghz):
        raise ValueError("freq_ghz must be finite")
    theta = delay_phase_rad(length_um, eps_eff, freq_ghz)
    ph = np.exp(1j * theta)
    s = np.array([[0.0, ph], [ph, 0.0]], dtype=complex)
    return ScatteringMatrix(("1", "2"), s)


def delay_phase_rad(length_um: float, eps_eff: float, freq_ghz: float) -> float:
    """Electrical phase 2 pi f sqrt(eps_eff) l / c of a line, in radians."""
    return (
        2.0
        * np.pi
        * (freq_ghz * 1e9)
        * np.sqrt(eps_eff)
        * (length_um * 1e-6)
        / SPEED_OF_LIGHT_M_PER_S
    )


def lossy_coupler(alpha: float, beta: float) -> ScatteringMatrix:
    """Directional power tap on ports (b1, b2, 3, 4).

    b1 and b2 are the internal line ports, 3 and 4 the external taps. The
    through path b1<->b2 carries -alpha, the branches b1<->3 and b2<->4 carry
    +beta, and 3<->4 carries +alpha. Real, symmetric, and orthogonal:
    alpha^2 + beta^2 must equal 1.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("alpha and beta must lie in [0, 1]")
    if not abs(alpha**2 + beta**2 - 1.0) <= 1e-12:
        raise ValueError("alpha^2 + beta^2 must equal 1 for a lossless coupler")
    s = np.array(
        [
            [0.0, -alpha, beta, 0.0],
            [-alpha, 0.0, 0.0, beta],
            [beta, 0.0, 0.0, alpha],
            [0.0, beta, alpha, 0.0],
        ],
        dtype=complex,
    )
    return ScatteringMatrix(("b1", "b2", "3", "4"), s)


def termination(reflection: complex = 0.0) -> ScatteringMatrix:
    """One-port load with the given reflection coefficient (0 = matched)."""
    if not abs(reflection) <= 1.0 + 1e-9:
        raise ValueError("|reflection| must not exceed 1")
    return ScatteringMatrix(("1",), np.array([[reflection]], dtype=complex))


Joint = tuple[tuple[str, str], tuple[str, str]]


@dataclass(frozen=True)
class ConnectionGraph:
    """Named element matrices plus internal joints; unjoined ports are the external ones.

    Each joint pairs (element_name, port_label) with another such pair. A
    port may appear in at most one joint. external, if given, fixes the
    order of the reduced matrix's ports; otherwise external ports keep
    element (insertion) order. External labels are "element.port".
    """

    elements: dict[str, ScatteringMatrix]
    joints: tuple[Joint, ...]
    external: tuple[tuple[str, str], ...] = ()


@functools.lru_cache(maxsize=128)
def _plan(elements, joints, external):
    """Port bookkeeping of one topology, shared by every graph that has it.

    elements is ((name, ports), ...) in graph order, joints the joined
    (element, port) pairs and external the requested external order (or
    ()). Returns (gather, n_ext, labels): s_full[gather] puts the external
    ports first and the internal ones after them, each internal row
    replaced by its joint partner's, so that block is the permuted system
    P S of the joint constraints. Raises ValueError for a bad graph
    (lru_cache stores no exception).
    """
    index: dict[tuple[str, str], int] = {}
    for name, ports in elements:
        for p in ports:
            index[(name, p)] = len(index)

    partner: dict[int, int] = {}
    for (a, b) in joints:
        for ref in (a, b):
            if ref not in index:
                raise ValueError(f"joint references unknown port {ref!r}")
        ia, ib = index[a], index[b]
        if ia in partner or ib in partner or ia == ib:
            raise ValueError("each port may appear in at most one joint")
        partner[ia] = ib
        partner[ib] = ia

    ext_refs = [ref for ref, i in index.items() if i not in partner]
    if external:
        if sorted(external) != sorted(ext_refs):
            raise ValueError("external list must name exactly the unjoined ports")
        ext_refs = list(external)
    ext = [index[r] for r in ext_refs]
    internal = sorted(partner)
    gather = np.ix_(ext + [partner[g] for g in internal], ext + internal)
    for a in gather:
        a.flags.writeable = False
    labels = tuple(f"{name}.{port}" for name, port in ext_refs)
    return gather, len(ext), labels


def connect(graph: ConnectionGraph) -> ScatteringMatrix:
    """Reduce a connection graph to the scattering matrix of its external ports.

    Builds the block-diagonal matrix of all element matrices, eliminates
    joined ports through the joint constraints, and returns the response
    seen from the unjoined ports. Raises
    NonInvertibleNetworkError("non-invertible internal network") when the
    internal system is singular instead of returning NaNs.

    The index bookkeeping (port index, joint partners, internal/external
    split, labels) depends only on the topology: element names with their
    port tuples, the joints and the external order. It is planned once per
    topology and cached; each call then fills the blocks, checks the
    conditioning of the internal system and solves it. A bad graph is never
    cached, so its ValueError is raised on every call.
    """
    matrices = graph.elements.values()
    gather, n_ext, labels = _plan(
        tuple((name, m.ports) for name, m in graph.elements.items()),
        tuple((tuple(a), tuple(b)) for a, b in graph.joints),
        tuple(tuple(r) for r in graph.external),
    )

    n = sum(m.n_ports for m in matrices)
    s_full = np.zeros((n, n), dtype=complex)
    row = 0
    for m in matrices:
        k = m.n_ports
        s_full[row : row + k, row : row + k] = m.s
        row += k

    s = s_full[gather]
    if n_ext < n:
        system = np.eye(n - n_ext) - s[n_ext:, n_ext:]
        if np.linalg.cond(system) > _MAX_INTERNAL_COND:
            raise NonInvertibleNetworkError("non-invertible internal network")
        a_int = np.linalg.solve(system, s[n_ext:, :n_ext])
        s = s[:n_ext, :n_ext] + s[:n_ext, n_ext:] @ a_int
    return ScatteringMatrix(labels, s)


def check_unitarity(matrix: ScatteringMatrix, tol: float = 1e-9) -> tuple[bool, float]:
    """Return (is_unitary, max deviation of S^H S from the identity)."""
    s = matrix.s
    dev = float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))))
    return dev <= tol, dev
