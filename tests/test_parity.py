import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from test_sweep_chunks import _peak_rss_kb

from paramix import network, parity
from paramix.mixer import mixer_2port, turn_phasor
from paramix.network import HYBRID
from paramix.parity import GyratorSpec, calibrate, chain_transmission, field_range
from paramix.schemas import SCHEMA_TAG


def test_gyrator_spec_phases():
    # the stage-phase difference k1 - k2, in quarter turns
    assert GyratorSpec("even", "P1").quarter_turns == -1
    assert GyratorSpec("odd", "P1").quarter_turns == 1
    assert GyratorSpec("even", "P2").quarter_turns == 1
    assert GyratorSpec("odd", "P2").quarter_turns == 3
    assert GyratorSpec("odd").parity_bit == 1
    # both are derived once: not set, not compared, not printed
    with pytest.raises(ValueError, match="quarter_turns"):
        replace(GyratorSpec(), quarter_turns=1)
    assert replace(GyratorSpec("odd", "P1"), pump_port="P2").quarter_turns == 3
    assert GyratorSpec("odd", "P2") == GyratorSpec("odd", "P2")
    assert repr(GyratorSpec("odd", "P2")) == "GyratorSpec(parity='odd', pump_port='P2')"
    with pytest.raises(ValueError, match="parity"):
        GyratorSpec("mixed", "P1")
    with pytest.raises(ValueError, match="pump_port"):
        GyratorSpec("even", "P0")


def test_gyrator_matrix_is_nonreciprocal():
    # a gyrator is a converter stage at full conversion; its forward and
    # backward transmissions differ by exactly -1 regardless of parity or feed
    for spec in (GyratorSpec("even", "P1"), GyratorSpec("odd", "P2")):
        s = mixer_2port(1.0, 0.0, 0.0, spec.quarter_turns)
        fwd, bwd = s.entry("b", "a"), s.entry("a", "b")
        assert abs(fwd) == 1.0 and fwd / bwd == -1.0
        assert s.entry("a", "a") == 0.0 and s.entry("b", "b") == 0.0
    assert mixer_2port(1.0, 0.0, 0.0, GyratorSpec("even", "P1").quarter_turns).entry("b", "a") == 1j


def test_chain_spec_needs_a_gyrator():
    # an empty chain is refused before any chain is reduced
    for chains in ([()], [(GyratorSpec(),), []]):
        with pytest.raises(ValueError, match="chain needs at least one gyrator"):
            chain_transmission(chains)


def test_calibration_phase_is_zero():
    assert calibrate() == pytest.approx(0.0, abs=1e-12)


def test_transmission_reads_parity_xor():
    for n in (1, 2, 3):
        for parities in itertools.product(("even", "odd"), repeat=n):
            for pumps in (("P1",) * n, ("P2",) * n, tuple("P1" if k % 2 else "P2" for k in range(n))):
                chain = tuple(GyratorSpec(p, q) for p, q in zip(parities, pumps))
                xor = sum(1 for p in parities if p == "odd") % 2
                assert abs(chain_transmission([chain])[0]) == pytest.approx(float(xor), abs=1e-12)


def test_even_cells_do_not_change_an_odd_chain():
    base = (GyratorSpec("odd", "P1"),)
    grown = base + (GyratorSpec("even", "P2"), GyratorSpec("even", "P1"))
    t_base, t_grown = chain_transmission([base, grown])
    assert abs(abs(t_base) - abs(t_grown)) < 1e-12


def test_chain_order_does_not_matter():
    specs = (
        GyratorSpec("odd", "P1"),
        GyratorSpec("even", "P2"),
        GyratorSpec("odd", "P2"),
        GyratorSpec("even", "P1"),
    )
    # a chain may be any sequence of specs
    chains = [list(perm) for perm in itertools.permutations(specs)]
    mags = {round(abs(t), 12) for t in chain_transmission(chains)}
    assert mags == {0.0}


def _seeded_chains(seed):
    """All 126 chains of lengths 1-6 and 4 of length 64, with seeded pump feeds."""
    rng = np.random.default_rng(seed)
    bits = [b for n in range(1, 7) for b in itertools.product(("even", "odd"), repeat=n)]
    bits += [tuple(rng.choice(("even", "odd"), 64)) for _ in range(4)]
    return [tuple(GyratorSpec(str(p), str(rng.choice(("P1", "P2")))) for p in b) for b in bits]


@pytest.fixture(scope="module")
def chains_alone():
    chains = _seeded_chains(7)
    return chains, [chain_transmission([c])[0] for c in chains]


def test_every_amplitude_is_exactly_the_parity(chains_alone):
    # whole quarter turns from the exact table leave no rounding noise: an
    # even chain is exactly dark, and every odd chain gives the same float,
    # the two hybrid paths 2 c^2 with c the hybrid's rounded 1/sqrt2 (one ulp
    # below 1; artifacts print it as 1.0)
    c = HYBRID.s[0, 2].real
    chains, alone = chains_alone
    for chain, t in zip(chains, alone):
        odd = sum(g.parity_bit for g in chain) % 2
        assert abs(t) == (2.0 * c * c if odd else 0.0)
    psi = calibrate()
    assert psi == 0.0 and math.copysign(1.0, psi) == 1.0


def test_every_amplitude_is_the_closed_form_cell_product(chains_alone):
    # each cell is its gyrator's forward phasor -i^q times its segment's
    # i^(2p - q - 2), exactly +1 or -1; the bright port is c c (T - 1), T the
    # product of the cells and c the hybrid's 1/sqrt2, the bottom arm +1
    c = HYBRID.s[0, 2].real
    chains, alone = chains_alone
    for chain, t in zip(chains, alone):
        product = 1.0
        for g in chain:
            q = g.quarter_turns
            product *= -turn_phasor(q) * turn_phasor(2 * g.parity_bit - q - 2)
        assert t == c * c * (product - 1.0)


# 1 reduces every chain alone; 1 << 22 puts all chains of one length in one stack
@pytest.mark.parametrize("entries", [parity._STACK_ENTRIES, 1, 1 << 22])
def test_the_stack_size_never_changes_the_bits(monkeypatch, chains_alone, entries):
    chains, alone = chains_alone
    monkeypatch.setattr(parity, "_STACK_ENTRIES", entries)
    stacks = []  # (B, n) of each connect(): B graphs of n ports

    def connect(graph):
        stacks.append((len(graph.elements["g0"].s), sum(m.n_ports for m in graph.elements.values())))
        return network.connect(graph)

    monkeypatch.setattr(parity, "connect", connect)
    together = chain_transmission(chains)
    # a stack holds at most the entry budget, unless one chain alone exceeds it
    assert all(b == 1 or b * n * n <= entries for b, n in stacks)
    assert all(isinstance(t, complex) for t in together)
    assert np.array(together).tobytes() == np.array(alone).tobytes()
    # the output keeps the order of the input, whatever the lengths' order
    order = np.random.default_rng(0).permutation(len(chains))
    shuffled = chain_transmission([chains[i] for i in order])
    assert np.array(shuffled).tobytes() == np.array(alone)[order].tobytes()


def test_no_chains_give_no_amplitudes():
    assert chain_transmission([]) == []


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc")
def test_long_chains_add_no_memory_per_chain(tmp_path):
    rng = np.random.default_rng(3)

    def peak(count):
        chains = [[{"parity": str(p)} for p in rng.choice(("even", "odd"), 64)] for _ in range(count)]
        cfg = tmp_path / f"chains{count}.json"
        cfg.write_text(json.dumps({"schema": SCHEMA_TAG, "chains": chains}))
        out = tmp_path / f"out{count}"
        kb, rc = _peak_rss_kb(tmp_path, ["parity", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        return kb

    # one stack of all eight chains holds several 9 MB copies at once
    assert (peak(8) - peak(1)) / 1024 < 2.0


def test_field_range():
    lo, hi = field_range(100.0 * 100.0)
    assert hi == pytest.approx(2.0678e-7, rel=1e-3)
    assert lo == pytest.approx(0.1 * hi, rel=1e-12)
    # field window scales inversely with loop area
    lo2, hi2 = field_range(2.0 * 100.0 * 100.0)
    assert hi2 == pytest.approx(hi / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        field_range(0.0)
