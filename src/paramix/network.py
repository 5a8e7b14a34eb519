"""Multiport scattering algebra: standard elements, graph reduction, unitarity checks.

Conventions
-----------
A scattering matrix S maps incoming wave amplitudes to outgoing ones,
S[i, j] being the amplitude out of port i per unit amplitude into port j.
Port identity is carried by an ordered tuple of unique string labels; the
row/column index of a label is its position in that tuple. A matrix carries
no frequency: each element of a network is one read-only (n, n) matrix or a
read-only (B, n, n) stack of B matrices on the same ports, so a swept
element is a stack with one matrix per frequency. connect() reduces B graphs
of one topology at once when some of their elements are stacks.

Element conventions (pinned jointly so that composed networks reproduce the
closed-form device responses elsewhere in the package):

* HYBRID: through ports 1<->1' and 2<->2' carry 1/sqrt2, cross ports
  1<->2' and 2<->1' carry i/sqrt2. Two of them back to back with identity
  inner arms give S21 = S12 = i.
* lossy_coupler: the through path between the internal line ports carries
  -alpha, each branch to its external port carries +beta = sqrt(1 - alpha^2),
  and the path between the two external ports carries +alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonInvertibleNetworkError

SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Largest acceptable condition number for the internal system in connect().
_MAX_INTERNAL_COND = 1e12


@dataclass(frozen=True)
class ScatteringMatrix:
    """Complex n-port scattering matrix; s is a read-only copy of the input.

    s is one (n, n) matrix or a (B, n, n) stack of B matrices on the same
    ports.
    """

    ports: tuple[str, ...]
    s: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ports = tuple(str(p) for p in self.ports)
        m = np.array(self.s, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
            raise ValueError("scattering matrix must be square")
        if m.shape[-1] != len(ports):
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

    def entry(self, out_port: str, in_port: str) -> complex | np.ndarray:
        """Amplitude out of out_port per unit drive into in_port.

        A complex for one matrix, a read-only (B,) array for a stack.
        """
        value = self.s[..., self.index(out_port), self.index(in_port)]
        return complex(value) if value.ndim == 0 else value


_C = 1.0 / np.sqrt(2.0)

# The ideal quadrature hybrid on ports (1, 2, 1p, 2p); read-only, so every
# composition shares it.
HYBRID = ScatteringMatrix(
    ("1", "2", "1p", "2p"),
    [
        [0.0, 0.0, _C, 1j * _C],
        [0.0, 0.0, 1j * _C, _C],
        [_C, 1j * _C, 0.0, 0.0],
        [1j * _C, _C, 0.0, 0.0],
    ],
)


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


def coupler_beta2(alpha):
    """The coupler's branch power beta^2 = 1 - alpha^2, as (1 - alpha)(1 + alpha): no cancellation as alpha -> 1."""
    return (1.0 - alpha) * (1.0 + alpha)


def lossy_coupler(alpha: float) -> ScatteringMatrix:
    """Directional power tap on ports (b1, b2, 3, 4).

    b1 and b2 are the internal line ports, 3 and 4 the external taps. The
    through path b1<->b2 carries -alpha, the branches b1<->3 and b2<->4 carry
    +beta = sqrt(coupler_beta2(alpha)), and 3<->4 carries +alpha. Real,
    symmetric and orthogonal.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    beta = np.sqrt(coupler_beta2(alpha))
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


def matched_line(t) -> ScatteringMatrix:
    """Matched line on ports (1, 2) carrying t both ways; a (B,) array t gives B lines."""
    s = np.zeros(np.shape(t) + (2, 2), dtype=complex)
    s[..., 0, 1] = s[..., 1, 0] = t
    return ScatteringMatrix(("1", "2"), s)


Joint = tuple[tuple[str, str], tuple[str, str]]


@dataclass(frozen=True)
class ConnectionGraph:
    """Named element matrices plus internal joints; unjoined ports are the external ones.

    Each joint pairs (element_name, port_label) with another such pair. A
    port may appear in at most one joint. external names every unjoined
    port once, in the order of the reduced matrix's ports. External labels
    are "element.port".
    """

    elements: dict[str, ScatteringMatrix]
    joints: tuple[Joint, ...]
    external: tuple[tuple[str, str], ...]


def _plan(graph: ConnectionGraph):
    """Port bookkeeping of a graph's topology.

    Returns (gather, n_ext, labels): s_full[gather] puts the external ports
    first and the internal ones after them, each internal row replaced by
    its joint partner's, so that block is the permuted system P S of the
    joint constraints. Raises ValueError for a bad graph.
    """
    index: dict[tuple[str, str], int] = {}
    for name, m in graph.elements.items():
        for p in m.ports:
            index[(name, p)] = len(index)

    partner: dict[int, int] = {}
    for (a, b) in graph.joints:
        for ref in (a, b):
            if ref not in index:
                raise ValueError(f"joint references unknown port {ref!r}")
        ia, ib = index[a], index[b]
        if ia in partner or ib in partner or ia == ib:
            raise ValueError("each port may appear in at most one joint")
        partner[ia] = ib
        partner[ib] = ia

    unjoined = [ref for ref, i in index.items() if i not in partner]
    if sorted(graph.external) != sorted(unjoined):
        raise ValueError("external list must name exactly the unjoined ports")
    ext = [index[r] for r in graph.external]
    internal = sorted(partner)
    gather = np.ix_(ext + [partner[g] for g in internal], ext + internal)
    labels = tuple(f"{name}.{port}" for name, port in graph.external)
    return gather, len(ext), labels


def connect(graph: ConnectionGraph) -> ScatteringMatrix:
    """Reduce a connection graph to the scattering matrix of its external ports.

    Builds the block-diagonal matrix of all element matrices, eliminates
    joined ports through the joint constraints, and returns the response
    seen from the unjoined ports. Raises
    NonInvertibleNetworkError("non-invertible internal network") when the
    internal system is singular instead of returning NaNs.

    A graph whose elements include (B, n, n) stacks is B graphs of one
    topology, reduced in one pass: every stack must have the same B
    (ValueError otherwise), a single-matrix element is shared by all B,
    and the result is a (B, m, m) stack whose slice k is bit for bit the
    reduction of graph k alone. A graph with no stack reduces as a stack of
    one and returns one matrix. If any member's internal system is
    singular, the whole call raises.
    """
    matrices = graph.elements.values()
    gather, n_ext, labels = _plan(graph)
    depths = {m.s.shape[0] for m in matrices if m.s.ndim == 3}
    if len(depths) > 1:
        raise ValueError(f"stacked elements must share one stack size; got {sorted(depths)}")
    (depth,) = depths or {1}

    n = sum(m.n_ports for m in matrices)
    s_full = np.zeros((depth, n, n), dtype=complex)
    row = 0
    for m in matrices:
        k = m.n_ports
        s_full[:, row : row + k, row : row + k] = m.s
        row += k

    s = s_full[:, gather[0], gather[1]]
    if n_ext < n:
        system = np.eye(n - n_ext) - s[:, n_ext:, n_ext:]
        if (np.linalg.cond(system) > _MAX_INTERNAL_COND).any():
            raise NonInvertibleNetworkError("non-invertible internal network")
        a_int = np.linalg.solve(system, s[:, n_ext:, :n_ext])
        s = s[:, :n_ext, :n_ext] + s[:, :n_ext, n_ext:] @ a_int
    return ScatteringMatrix(labels, s if depths else s[0])


def check_unitarity(matrix: ScatteringMatrix) -> float:
    """Largest deviation of S^H S from the identity, of one matrix."""
    s = matrix.s
    return float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))))
