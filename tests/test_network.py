import numpy as np
import pytest

from paramix.errors import NonInvertibleNetworkError
from paramix.mixer import mixer_2port, t_r_of_rho
from paramix.network import (
    HYBRID,
    ConnectionGraph,
    ScatteringMatrix,
    check_unitarity,
    connect,
    delay_phase_rad,
    lossy_coupler,
    matched_line,
)

C = 1.0 / np.sqrt(2.0)


def _line(length_um, eps_eff, freq_ghz):
    """Matched line whose both directions carry e^{i theta}, theta from delay_phase_rad."""
    return matched_line(np.exp(1j * delay_phase_rad(length_um, eps_eff, freq_ghz)))


def test_scattering_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        ScatteringMatrix(("1",), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="one row per port"):
        ScatteringMatrix(("1",), np.zeros((2, 2)))
    for ports in (("1", "1"), ("1", 1)):
        # labels are compared after str(), so "1" and 1 are one label
        with pytest.raises(ValueError, match="unique"):
            ScatteringMatrix(ports, np.eye(2))


def test_scattering_matrix_entry():
    m = ScatteringMatrix(("a", "b"), np.array([[0.0, 2.0], [3.0, 0.0]]))
    assert m.n_ports == 2
    assert m.entry("b", "a") == 3.0
    assert m.entry("a", "b") == 2.0
    with pytest.raises(KeyError):
        m.index("c")


def test_hybrid_structure():
    h = HYBRID
    assert h.ports == ("1", "2", "1p", "2p")
    assert h.entry("1p", "1") == pytest.approx(C)
    assert h.entry("2p", "2") == pytest.approx(C)
    assert h.entry("2p", "1") == pytest.approx(1j * C)
    assert h.entry("1p", "2") == pytest.approx(1j * C)
    assert np.allclose(h.s, h.s.T), "hybrid must be reciprocal"
    assert check_unitarity(h) <= 1e-12


def test_back_to_back_hybrids_give_transparency():
    graph = ConnectionGraph(
        elements={"h1": HYBRID, "h2": HYBRID},
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


def test_delay_phase_is_one_turn_per_wavelength():
    # at 5 GHz and eps_eff 4 a wavelength is c / (f sqrt(eps_eff)) = 29979.2458 um
    wavelength_um = 299792458.0 / (5e9 * 2.0) * 1e6
    assert delay_phase_rad(wavelength_um, 4.0, 5.0) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert delay_phase_rad(wavelength_um / 2.0, 4.0, 5.0) == pytest.approx(np.pi, rel=1e-15)
    assert delay_phase_rad(0.0, 4.0, 5.0) == 0.0
    # an array of frequencies gives one phase per frequency
    f = np.array([2.5, 5.0, 10.0])
    np.testing.assert_allclose(delay_phase_rad(wavelength_um, 4.0, f), [np.pi, 2 * np.pi, 4 * np.pi], rtol=1e-15)


def test_lossy_coupler_structure():
    alpha = 0.6
    c = lossy_coupler(alpha)
    assert c.entry("b2", "b1") == -alpha
    # the branches carry beta = sqrt(1 - alpha^2) = 0.8
    assert c.entry("3", "b1") == pytest.approx(0.8, abs=1e-15)
    assert c.entry("4", "b2") == c.entry("3", "b1")
    assert c.entry("4", "3") == alpha
    assert c.entry("b1", "b1") == 0.0
    assert np.allclose(c.s, c.s.T)
    assert check_unitarity(c) <= 1e-12


def test_lossy_coupler_validation():
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lossy_coupler(alpha)
    # alpha = 1 is the fully reflecting limit: the branches carry nothing
    assert lossy_coupler(1.0).entry("3", "b1") == 0.0


def _load(reflection):
    """One-port load with the given reflection coefficient."""
    return ScatteringMatrix(("1",), [[reflection]])


def test_connect_joint_validation():
    elems = {"h": HYBRID, "t": _load(0.0)}
    # a bad graph is never planned: the same call raises every time
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown port"):
            connect(ConnectionGraph(elems, ((("h", "9"), ("t", "1")),), (("h", "1"),)))
        with pytest.raises(ValueError, match="at most one joint"):
            connect(
                ConnectionGraph(
                    {**elems, "t2": _load(0.0)},
                    ((("h", "1p"), ("t", "1")), (("h", "1p"), ("t2", "1"))),
                    (("h", "1"), ("h", "2"), ("h", "2p")),
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
    ext = [index[r] for r in graph.external]
    s_ee = s_full[np.ix_(ext, ext)]
    perm = np.zeros((len(internal), len(internal)))
    for k, g in enumerate(internal):
        perm[k, internal.index(partner[g])] = 1.0
    system = np.eye(len(internal)) - perm @ s_full[np.ix_(internal, internal)]
    a_int = np.linalg.solve(system, perm @ s_full[np.ix_(internal, ext)])
    s_red = s_ee + s_full[np.ix_(ext, internal)] @ a_int
    return tuple(f"{name}.{port}" for name, port in graph.external), s_red


def _loaded_line(length_um, reflection, external=(("h", "1"), ("h", "2"), ("h", "2p"))):
    return ConnectionGraph(
        {
            "h": HYBRID,
            "d": _line(length_um, 3.3, 4.2),
            "t": _load(reflection),
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
    h = HYBRID
    graph = ConnectionGraph(
        {"a": h, "b": h},
        ((("a", "1p"), ("b", "1p")),),
        tuple((name, p) for name in "ab" for p in ("1", "2", "2p")),
    )
    first = connect(graph)
    with pytest.raises(ValueError, match="read-only"):
        h.s[0, 2] = 0.0
    # the input array stays the caller's: the matrix holds its own copy
    raw = np.eye(2, dtype=complex)
    m = ScatteringMatrix(("1", "2"), raw)
    raw[0, 0] = 5.0
    assert m.s[0, 0] == 1.0
    again = connect(graph)
    assert np.array_equal(again.s, first.s)


def test_connect_no_joints_is_block_diagonal():
    g = ConnectionGraph({"t": _load(0.25)}, (), (("t", "1"),))
    s = connect(g)
    assert s.ports == ("t.1",)
    assert s.s[0, 0] == 0.25


def test_connect_order_invariance(rng):
    # the reduced response must not depend on element order or joint order
    def build(elem_order, joint_order):
        elems = {
            "h": HYBRID,
            "d": _line(37.0, 3.3, 4.2),
            "c": lossy_coupler(0.6),
            "t": _load(0.3j),
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


def _random_composition(rng):
    """Two hybrids joined through a random delay line, a random nonreciprocal mixer on a side arm."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    t, r = t_r_of_rho(rng.uniform(0.0, 1.0))
    return ConnectionGraph(
        {
            "h1": HYBRID,
            "d": _line(rng.uniform(0, 50), 2.0, theta),
            # an odd number of quarter turns: nonreciprocal whenever t > 0
            "m": mixer_2port(t, r, r, 2 * rng.integers(-4, 4) + 1),
            "h2": HYBRID,
        },
        (
            (("h1", "1p"), ("d", "1")),
            (("d", "2"), ("h2", "1p")),
            (("h1", "2p"), ("m", "a")),
        ),
        (("h1", "1"), ("h1", "2"), ("m", "b"), ("h2", "1"), ("h2", "2"), ("h2", "2p")),
    )


def test_connect_unitary_composition(rng):
    # chaining unitary elements through matched joints stays unitary
    for _ in range(20):
        s = connect(_random_composition(rng))
        assert check_unitarity(s) <= 1e-9


def test_connect_singular_internal_network():
    # two unit reflectors facing each other have no steady solution
    g = ConnectionGraph(
        {"t1": _load(1.0), "t2": _load(1.0)},
        ((("t1", "1"), ("t2", "1")),),
        (),
    )
    with pytest.raises(NonInvertibleNetworkError, match="non-invertible"):
        connect(g)


def _stacked(graphs, shared=()):
    """One graph of the same topology whose elements stack those of graphs.

    The elements named in shared keep the first graph's single matrix.
    """
    first = graphs[0]
    elements = {
        name: m if name in shared else ScatteringMatrix(m.ports, np.stack([g.elements[name].s for g in graphs]))
        for name, m in first.elements.items()
    }
    return ConnectionGraph(elements, first.joints, first.external)


def test_a_stacked_matrix_keeps_its_members_and_reads_entries_as_arrays():
    raw = np.arange(12.0).reshape(3, 2, 2)
    m = ScatteringMatrix(("a", "b"), raw)
    assert m.s.shape == (3, 2, 2) and m.n_ports == 2
    assert not m.s.flags.writeable
    got = m.entry("b", "a")
    assert isinstance(got, np.ndarray) and got.tolist() == [2.0, 6.0, 10.0]
    assert isinstance(ScatteringMatrix(("a", "b"), raw[0]).entry("b", "a"), complex)
    with pytest.raises(ValueError, match="square"):
        ScatteringMatrix(("a", "b"), np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        ScatteringMatrix(("a", "b"), np.zeros((1, 3, 2, 2)))


@pytest.mark.parametrize("make", [_random_composition, lambda rng: _loaded_line(rng.uniform(0, 80), rng.uniform(-0.9, 0.9))])
def test_a_stack_reduces_to_each_of_its_graphs_bit_for_bit(rng, make):
    graphs = [make(rng) for _ in range(25)]
    single = [connect(g) for g in graphs]
    stacked = connect(_stacked(graphs))
    assert stacked.ports == single[0].ports
    assert stacked.s.shape == (len(graphs),) + single[0].s.shape
    for k, one in enumerate(single):
        assert stacked.s[k].tobytes() == one.s.tobytes()
    out, inp = stacked.ports[-1], stacked.ports[0]
    assert stacked.entry(out, inp).tobytes() == np.array([m.entry(out, inp) for m in single]).tobytes()
    # a stack of one stays a stack and keeps the bits of the single graph
    alone = connect(_stacked(graphs[:1]))
    assert alone.s.shape == (1,) + single[0].s.shape
    assert alone.s[0].tobytes() == single[0].s.tobytes()


def test_a_single_matrix_element_broadcasts_over_the_stack(rng):
    graphs = [_random_composition(rng) for _ in range(8)]
    everything = connect(_stacked(graphs)).s
    assert connect(_stacked(graphs, shared=("h1", "h2"))).s.tobytes() == everything.tobytes()
    # one delay line shared by all eight graphs
    same_delay = [ConnectionGraph({**g.elements, "d": graphs[0].elements["d"]}, g.joints, g.external) for g in graphs]
    got = connect(_stacked(same_delay, shared=("h1", "d", "h2"))).s
    for k, g in enumerate(same_delay):
        assert got[k].tobytes() == connect(g).s.tobytes()


def test_one_singular_member_fails_the_whole_stack():
    def facing(reflections):
        return ConnectionGraph(
            {"t1": _load(1.0), "t2": ScatteringMatrix(("1",), np.reshape(reflections, (-1, 1, 1)))},
            ((("t1", "1"), ("t2", "1")),),
            external=(),
        )

    fine = connect(facing([0.5, -0.2j, 0.3]))
    assert fine.ports == () and fine.s.shape == (3, 0, 0)
    for _ in range(2):
        with pytest.raises(NonInvertibleNetworkError, match="non-invertible"):
            connect(facing([0.5, 1.0, 0.3]))


def test_stacks_of_unequal_size_are_refused():
    two = ScatteringMatrix(("1",), np.zeros((2, 1, 1)))
    three = ScatteringMatrix(("1",), np.zeros((3, 1, 1)))
    graph = ConnectionGraph(
        {"h": HYBRID, "a": two, "b": three},
        ((("h", "1p"), ("a", "1")), (("h", "2p"), ("b", "1"))),
        (("h", "1"), ("h", "2")),
    )
    with pytest.raises(ValueError, match="one stack size"):
        connect(graph)


def test_check_unitarity_reports_deviation():
    bad = ScatteringMatrix(("1",), np.array([[0.5]], dtype=complex))
    assert check_unitarity(bad) == pytest.approx(0.75)
