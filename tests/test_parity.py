import itertools

import numpy as np
import pytest

from paramix.parity import (
    ChainSpec,
    GyratorSpec,
    calibrate,
    chain_transmission,
    field_range,
    gyrator_2port,
)


def test_gyrator_spec_phases():
    assert GyratorSpec("even", "P1").phi_rad == -np.pi / 2.0
    assert GyratorSpec("odd", "P1").phi_rad == np.pi / 2.0
    assert GyratorSpec("even", "P2").phi_rad == np.pi / 2.0
    assert GyratorSpec("odd", "P2").phi_rad == 3.0 * np.pi / 2.0
    assert GyratorSpec("odd").parity_bit == 1
    with pytest.raises(ValueError, match="parity"):
        GyratorSpec("mixed", "P1")
    with pytest.raises(ValueError, match="pump_port"):
        GyratorSpec("even", "P0")


def test_gyrator_matrix_is_nonreciprocal():
    for spec in (GyratorSpec("even", "P1"), GyratorSpec("odd", "P2")):
        s = gyrator_2port(spec)
        fwd = s.entry("2", "1")
        bwd = s.entry("1", "2")
        assert abs(fwd) == pytest.approx(1.0, abs=1e-15)
        # forward/backward ratio -1 regardless of parity or feed
        assert fwd / bwd == pytest.approx(-1.0, abs=1e-12)
        assert s.entry("1", "1") == 0.0 and s.entry("2", "2") == 0.0
    even = gyrator_2port(GyratorSpec("even", "P1"))
    assert even.entry("2", "1") == pytest.approx(1j, abs=1e-15)


def test_chain_spec_needs_a_gyrator():
    with pytest.raises(ValueError, match="at least one"):
        ChainSpec(())


def test_calibration_phase_is_zero():
    psi = calibrate()
    assert psi == pytest.approx(0.0, abs=1e-12)
    # idempotent and independent of the (even) reference chain chosen
    ref = ChainSpec(tuple(GyratorSpec("even", p) for p in ("P1", "P2", "P1")))
    assert calibrate(ref) == pytest.approx(psi, abs=1e-12)
    with pytest.raises(ValueError, match="all even"):
        calibrate(ChainSpec((GyratorSpec("odd", "P1"),)))


def test_transmission_reads_parity_xor():
    psi = calibrate()
    for n in (1, 2, 3):
        for parities in itertools.product(("even", "odd"), repeat=n):
            for pumps in (("P1",) * n, ("P2",) * n, tuple("P1" if k % 2 else "P2" for k in range(n))):
                chain = ChainSpec(
                    tuple(GyratorSpec(p, q) for p, q in zip(parities, pumps)),
                    calibration_phase_rad=psi,
                )
                xor = sum(1 for p in parities if p == "odd") % 2
                assert abs(chain_transmission(chain)) == pytest.approx(float(xor), abs=1e-12)


def test_even_cells_do_not_change_an_odd_chain():
    psi = calibrate()
    base = (GyratorSpec("odd", "P1"),)
    grown = base + (GyratorSpec("even", "P2"), GyratorSpec("even", "P1"))
    t_base = chain_transmission(ChainSpec(base, psi))
    t_grown = chain_transmission(ChainSpec(grown, psi))
    assert abs(abs(t_base) - abs(t_grown)) < 1e-12


def test_chain_order_does_not_matter():
    psi = calibrate()
    specs = (
        GyratorSpec("odd", "P1"),
        GyratorSpec("even", "P2"),
        GyratorSpec("odd", "P2"),
        GyratorSpec("even", "P1"),
    )
    mags = {
        round(abs(chain_transmission(ChainSpec(perm, psi))), 12)
        for perm in itertools.permutations(specs)
    }
    assert mags == {0.0}


def test_field_range():
    lo, hi = field_range(100.0 * 100.0)
    assert hi == pytest.approx(2.0678e-7, rel=1e-3)
    assert lo == pytest.approx(0.1 * hi, rel=1e-12)
    # field window scales inversely with loop area
    lo2, hi2 = field_range(2.0 * 100.0 * 100.0)
    assert hi2 == pytest.approx(hi / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        field_range(0.0)
