import numpy as np
import pytest

from paramix.errors import NonInvertibleNetworkError
from paramix.network import (
    ConnectionGraph,
    ScatteringMatrix,
    check_unitarity,
    connect,
    delay_line,
    delay_phase_rad,
    hybrid_90,
    lossy_coupler,
    termination,
)

C = 1.0 / np.sqrt(2.0)


def test_scattering_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        ScatteringMatrix(("1",), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="one row per port"):
        ScatteringMatrix(("1",), np.zeros((2, 2)))
    for ports in (("1", "1"), ("1", 1)):
        # labels are compared after str(), so "1" and 1 are one label
        with pytest.raises(ValueError, match="unique"):
            ScatteringMatrix(ports, np.eye(2))


def test_scattering_matrix_entry_and_rename():
    m = ScatteringMatrix(("a", "b"), np.array([[0.0, 2.0], [3.0, 0.0]]))
    assert m.n_ports == 2
    assert m.entry("b", "a") == 3.0
    assert m.entry("a", "b") == 2.0
    with pytest.raises(KeyError):
        m.index("c")
    renamed = m.renamed(("x", "y"))
    assert renamed.entry("y", "x") == 3.0


def test_hybrid_structure():
    h = hybrid_90()
    assert h.ports == ("1", "2", "1p", "2p")
    assert h.entry("1p", "1") == pytest.approx(C)
    assert h.entry("2p", "2") == pytest.approx(C)
    assert h.entry("2p", "1") == pytest.approx(1j * C)
    assert h.entry("1p", "2") == pytest.approx(1j * C)
    assert np.allclose(h.s, h.s.T), "hybrid must be reciprocal"
    ok, dev = check_unitarity(h, tol=1e-12)
    assert ok, dev


def test_hybrid_imbalance_stays_unitary():
    h = hybrid_90(phase_imbalance_rad=0.37)
    ok, dev = check_unitarity(h, tol=1e-12)
    assert ok, dev
    assert h.entry("2p", "1") != h.entry("1p", "2")


def test_back_to_back_hybrids_give_transparency():
    graph = ConnectionGraph(
        elements={"h1": hybrid_90(), "h2": hybrid_90()},
        joints=((("h1", "1p"), ("h2", "1p")), (("h1", "2p"), ("h2", "2p"))),
        external=(("h1", "1"), ("h1", "2"), ("h2", "1"), ("h2", "2")),
    )
    s = connect(graph)
    # identity inner arms: constructive interference lands on the crossed
    # port with amplitude i, the straight-through port nulls out
    assert abs(s.entry("h2.2", "h1.1") - 1j) < 1e-12
    assert abs(s.entry("h2.1", "h1.2") - 1j) < 1e-12
    assert abs(s.entry("h1.1", "h1.1")) < 1e-12
    assert abs(s.entry("h2.1", "h1.1")) < 1e-12


def test_delay_line_phase_and_validation():
    f, l, eps = 9.567, 11.283, 7.418
    d = delay_line(l, eps, f)
    theta = delay_phase_rad(l, eps, f)
    assert d.entry("2", "1") == pytest.approx(np.exp(1j * theta), abs=1e-15)
    assert d.entry("1", "2") == d.entry("2", "1")
    assert d.entry("1", "1") == 0.0
    assert delay_line(0.0, 1.0, f).entry("2", "1") == 1.0
    with pytest.raises(ValueError):
        delay_line(-1.0, 1.0, f)
    with pytest.raises(ValueError):
        delay_line(1.0, 0.5, f)


def test_lossy_coupler_structure():
    alpha = 0.6
    beta = 0.8
    c = lossy_coupler(alpha, beta)
    assert c.entry("b2", "b1") == -alpha
    assert c.entry("3", "b1") == beta
    assert c.entry("4", "b2") == beta
    assert c.entry("4", "3") == alpha
    assert c.entry("b1", "b1") == 0.0
    assert np.allclose(c.s, c.s.T)
    ok, dev = check_unitarity(c, tol=1e-12)
    assert ok, dev


def test_lossy_coupler_validation():
    # the split must be lossless: alpha^2 + beta^2 = 1 from either side
    for alpha, beta in ((0.5, 0.5), (0.9, 0.9)):
        with pytest.raises(ValueError, match="lossless"):
            lossy_coupler(alpha, beta)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        lossy_coupler(-0.1, 0.8)


def test_termination():
    t = termination()
    assert t.s[0, 0] == 0.0
    assert termination(-1.0).s[0, 0] == -1.0
    with pytest.raises(ValueError):
        termination(1.5)


def test_connect_joint_validation():
    elems = {"h": hybrid_90(), "t": termination()}
    # a bad graph is never planned: the same call raises every time
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown port"):
            connect(ConnectionGraph(elems, ((("h", "9"), ("t", "1")),)))
        with pytest.raises(ValueError, match="at most one joint"):
            connect(
                ConnectionGraph(
                    {**elems, "t2": termination()},
                    ((("h", "1p"), ("t", "1")), (("h", "1p"), ("t2", "1"))),
                )
            )
        with pytest.raises(ValueError, match="external list"):
            connect(ConnectionGraph(elems, ((("h", "1p"), ("t", "1")),), external=(("h", "1"),)))


def reference_connect(graph):
    """The dense reduction: full block matrix, np.ix_ blocks, joint permutation matrix."""
    matrices = list(graph.elements.values())
    refs = [(name, p) for name, m in graph.elements.items() for p in m.ports]
    index = {ref: i for i, ref in enumerate(refs)}
    n = len(refs)
    s_full = np.zeros((n, n), dtype=complex)
    row = 0
    for m in matrices:
        s_full[row : row + m.n_ports, row : row + m.n_ports] = m.s
        row += m.n_ports
    partner = {}
    for a, b in graph.joints:
        partner[index[a]] = index[b]
        partner[index[b]] = index[a]
    internal = sorted(partner)
    ext_refs = list(graph.external) or [r for r in refs if index[r] not in partner]
    ext = [index[r] for r in ext_refs]
    s_ee = s_full[np.ix_(ext, ext)]
    perm = np.zeros((len(internal), len(internal)))
    for k, g in enumerate(internal):
        perm[k, internal.index(partner[g])] = 1.0
    system = np.eye(len(internal)) - perm @ s_full[np.ix_(internal, internal)]
    a_int = np.linalg.solve(system, perm @ s_full[np.ix_(internal, ext)])
    s_red = s_ee + s_full[np.ix_(ext, internal)] @ a_int
    return tuple(f"{name}.{port}" for name, port in ext_refs), s_red


def _loaded_line(length_um, reflection, external=()):
    return ConnectionGraph(
        {
            "h": hybrid_90(),
            "d": delay_line(length_um, 3.3, 4.2),
            "t": termination(reflection),
        },
        ((("h", "1p"), ("d", "1")), (("d", "2"), ("t", "1"))),
        external=external,
    )


def test_graphs_of_one_topology_reduce_as_the_dense_reference():
    # one cached plan serves both graphs; interleaved calls must not mix them
    graphs = [_loaded_line(37.0, 0.3j), _loaded_line(5.0, -0.8)]
    for g in graphs + graphs[::-1]:
        labels, want = reference_connect(g)
        got = connect(g)
        assert got.ports == labels
        assert np.array_equal(got.s, want)


def test_external_order_is_part_of_the_topology():
    ext = (("h", "1"), ("h", "2"), ("h", "2p"))
    for order in (ext, ext[::-1], ext[1:] + ext[:1]):
        g = _loaded_line(37.0, 0.3j, external=order)
        labels, want = reference_connect(g)
        got = connect(g)
        assert got.ports == tuple(f"{name}.{port}" for name, port in order) == labels
        assert np.array_equal(got.s, want)


def test_a_reduction_leaves_its_element_matrices_bit_identical():
    g = _loaded_line(37.0, 0.3j)
    before = {name: m.s.copy() for name, m in g.elements.items()}
    connect(g)
    connect(g)
    for name, m in g.elements.items():
        assert m.s.tobytes() == before[name].tobytes()


def test_a_shared_element_matrix_is_read_only():
    h = hybrid_90()
    first = connect(ConnectionGraph({"a": h, "b": h}, ((("a", "1p"), ("b", "1p")),)))
    with pytest.raises(ValueError, match="read-only"):
        h.s[0, 2] = 0.0
    # the input array stays the caller's: the matrix holds its own copy
    raw = np.eye(2, dtype=complex)
    m = ScatteringMatrix(("1", "2"), raw)
    raw[0, 0] = 5.0
    assert m.s[0, 0] == 1.0
    again = connect(ConnectionGraph({"a": h, "b": h}, ((("a", "1p"), ("b", "1p")),)))
    assert np.array_equal(again.s, first.s)


def test_connect_no_joints_is_block_diagonal():
    g = ConnectionGraph({"t": termination(0.25)}, ())
    s = connect(g)
    assert s.ports == ("t.1",)
    assert s.s[0, 0] == 0.25


def test_connect_order_invariance(rng):
    # the reduced response must not depend on element order or joint order
    def build(elem_order, joint_order):
        elems = {
            "h": hybrid_90(),
            "d": delay_line(37.0, 3.3, 4.2),
            "c": lossy_coupler(0.6, 0.8),
            "t": termination(0.3j),
        }
        joints = {
            "j1": (("h", "1p"), ("d", "1")),
            "j2": (("d", "2"), ("c", "b1")),
            "j3": (("c", "4"), ("t", "1")),
        }
        graph = ConnectionGraph(
            {k: elems[k] for k in elem_order},
            tuple(joints[k] for k in joint_order),
            external=(("h", "1"), ("h", "2"), ("h", "2p"), ("c", "b2"), ("c", "3")),
        )
        return connect(graph).s

    base = build("hdct", ["j1", "j2", "j3"])
    for _ in range(6):
        eo = "".join(rng.permutation(list("hdct")))
        jo = [f"j{i + 1}" for i in rng.permutation(3)]
        assert np.max(np.abs(build(eo, jo) - base)) < 1e-12


def test_connect_unitary_composition(rng):
    # chaining unitary elements through matched joints stays unitary
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        g = ConnectionGraph(
            {
                "h1": hybrid_90(rng.uniform(-1, 1)),
                "d": delay_line(rng.uniform(0, 50), 2.0, theta),
                "h2": hybrid_90(),
            },
            (
                (("h1", "1p"), ("d", "1")),
                (("d", "2"), ("h2", "1p")),
            ),
        )
        s = connect(g)
        ok, dev = check_unitarity(s, tol=1e-9)
        assert ok, dev


def test_connect_singular_internal_network():
    # two unit reflectors facing each other have no steady solution
    g = ConnectionGraph(
        {"t1": termination(1.0), "t2": termination(1.0)},
        ((("t1", "1"), ("t2", "1")),),
    )
    with pytest.raises(NonInvertibleNetworkError, match="non-invertible"):
        connect(g)


def test_check_unitarity_reports_deviation():
    bad = ScatteringMatrix(("1",), np.array([[0.5]], dtype=complex))
    ok, dev = check_unitarity(bad)
    assert not ok
    assert dev == pytest.approx(0.75)
