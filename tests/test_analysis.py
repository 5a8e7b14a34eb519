import math

import numpy as np
import pytest

from paramix.analysis import (
    ReadoutChainRecord,
    backaction_report,
    bandwidth_3dB,
    bandwidth_attenuation_scan,
    eta_from_separation,
    fit_rho_alpha,
    gamma0,
    isolation_estimate_dB,
    nbar_from_dephasing,
    t_phi,
    theta_from_chi_kappa,
    to_power_dB,
    _on_resonance_powers,
)
from paramix.errors import NoDipError, NumericalError, UnbracketedBandwidthError
from paramix.isolator import SweepResult, default_grid, effective_2port_sweep, with_rho
from paramix.mixer import RHO_5050


def test_to_power_dB():
    assert to_power_dB(1.0) == 0.0
    assert to_power_dB(0.5) == pytest.approx(-6.020599913279624)
    assert to_power_dB(0.0) == -np.inf
    arr = to_power_dB(np.array([1.0, 1j, 0.0]))
    assert arr.shape == (3,)
    assert arr[1] == 0.0 and arr[2] == -np.inf


def test_gamma0():
    assert gamma0(40.0, 100.0) == pytest.approx(400.0 / 7.0, abs=1e-12)
    assert gamma0(100.0, 40.0) == gamma0(40.0, 100.0)
    assert gamma0(80.0, 80.0) == 80.0
    with pytest.raises(ValueError, match="positive"):
        gamma0(0.0, 50.0)


def _synthetic_sweep(config, f, power):
    amp = np.sqrt(power)
    one = np.ones_like(amp)
    return SweepResult(f_ghz=f, s11=one, s12=amp, s21=one, s22=one, config=config)


def test_bandwidth_on_piecewise_linear_dip(reference):
    # power L (1 + |f - f0| / w) crosses 2 L exactly at f0 +/- w, and the
    # linear interpolation reproduces that without discretization error
    f0, w, floor = 5.0, 0.01, 0.04
    f = np.linspace(4.95, 5.05, 101)
    power = floor * (1.0 + np.abs(f - f0) / w)
    bw = bandwidth_3dB(_synthetic_sweep(reference, f, power), "s12")
    assert bw.f_dip_ghz == 5.0
    assert bw.floor == pytest.approx(floor, rel=1e-12)
    assert bw.gamma_mhz == pytest.approx(20.0, abs=1e-9)


def test_bandwidth_failure_modes(reference):
    f = np.linspace(4.95, 5.05, 101)
    with pytest.raises(NoDipError, match="grid too short"):
        bandwidth_3dB(_synthetic_sweep(reference, f[:2], f[:2]), "s12")
    with pytest.raises(NoDipError, match="edge"):
        bandwidth_3dB(_synthetic_sweep(reference, f, 0.1 + 0.01 * (f - 4.95)), "s12")
    shallow = 0.04 * (1.0 + np.abs(f - 5.0) / 1.0)  # never reaches 2 L
    with pytest.raises(UnbracketedBandwidthError, match="not bracketed"):
        bandwidth_3dB(_synthetic_sweep(reference, f, shallow), "s12")
    with pytest.raises(ValueError, match="direction"):
        bandwidth_3dB(_synthetic_sweep(reference, f, shallow), "s13")


def test_reference_dip_regression(reference):
    sweep = effective_2port_sweep(reference, default_grid(reference, 200.0, 401))
    bw = bandwidth_3dB(sweep, "s12")
    assert abs(bw.f_dip_ghz - 6.84) < 2e-3
    assert bw.gamma_mhz == pytest.approx(17.1325424, abs=1e-6)
    assert bw.floor == pytest.approx(0.0950669529, abs=1e-9)


def test_scan_matches_single_extractions(reference):
    rhos = [0.30, 0.40]
    scan = bandwidth_attenuation_scan(reference, rhos, "s12", default_grid(reference, 300.0, 1001))
    assert len(scan) == 2
    for rho, (sqrt_l, gamma) in zip(rhos, scan):
        cfg = with_rho(reference, rho)
        bw = bandwidth_3dB(
            effective_2port_sweep(cfg, default_grid(cfg, 300.0, 1001)), "s12"
        )
        assert sqrt_l == pytest.approx(math.sqrt(bw.floor), abs=1e-15)
        assert gamma == pytest.approx(bw.gamma_mhz, abs=1e-12)
    # deeper dip (larger rho here) is narrower
    assert scan[1][0] < scan[0][0]
    assert scan[1][1] < scan[0][1]


def test_fit_recovers_reference_point():
    p21, p12 = _on_resonance_powers(RHO_5050, 0.51, -np.pi / 2.0)
    fit = fit_rho_alpha(float(p21), float(p12))
    assert fit.rho == pytest.approx(RHO_5050, abs=1e-6)
    assert fit.alpha_mag == pytest.approx(0.51, abs=1e-6)
    assert fit.residual < 1e-15
    assert fit.alpha_identifiable


def test_fit_round_trip_reproduces_measurements(rng):
    for _ in range(10):
        rho, alpha = rng.uniform(0.1, 0.9, size=2)
        p21, p12 = _on_resonance_powers(rho, alpha, -np.pi / 2.0)
        fit = fit_rho_alpha(float(p21), float(p12))
        m21, m12 = _on_resonance_powers(fit.rho, fit.alpha_mag, -np.pi / 2.0)
        assert abs(m21 - p21) < 1e-9 and abs(m12 - p12) < 1e-9
        assert fit.residual < 1e-15


def test_fit_pump_port_two():
    p21, p12 = _on_resonance_powers(0.3, 0.6, np.pi / 2.0)
    fit = fit_rho_alpha(float(p21), float(p12), pump_port="P2")
    assert fit.rho == pytest.approx(0.3, abs=1e-6)
    assert fit.alpha_mag == pytest.approx(0.6, abs=1e-6)


def test_fit_equal_powers_picks_decoupled_line():
    # |S21|^2 = |S12|^2 forces zero conversion to the internal line; the
    # smallest-alpha tie-break then pins alpha at 0 with r = 1/2
    fit = fit_rho_alpha(0.25, 0.25)
    assert fit.rho == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)
    assert fit.alpha_mag < 1e-6
    assert fit.residual < 1e-15
    assert fit.alpha_identifiable


def test_fit_full_transmission_leaves_alpha_unidentified():
    fit = fit_rho_alpha(1.0, 1.0)
    assert fit.rho < 1e-6
    assert fit.alpha_mag == 0.0
    assert not fit.alpha_identifiable


def test_fit_input_validation():
    with pytest.raises(ValueError, match="s21_sq"):
        fit_rho_alpha(-0.1, 0.5)
    with pytest.raises(ValueError, match="s12_sq"):
        fit_rho_alpha(0.5, 1.2)
    with pytest.raises(ValueError, match="pump_port"):
        fit_rho_alpha(0.5, 0.5, pump_port="P3")


def test_theta_from_chi_kappa():
    assert theta_from_chi_kappa(0.94, 1.1) == pytest.approx(81.031, abs=2e-3)
    assert theta_from_chi_kappa(1.0, 1.0) == pytest.approx(90.0, abs=1e-12)
    with pytest.raises(ValueError):
        theta_from_chi_kappa(-1.0, 1.0)


def test_eta_from_separation():
    theta = theta_from_chi_kappa(0.94, 1.1)
    eta = eta_from_separation(1.55, 2.0, 1.1, 1.0, theta)
    assert eta == pytest.approx(0.2059, abs=1e-3)
    with pytest.raises(ValueError, match="positive"):
        eta_from_separation(0.0, 2.0, 1.1, 1.0, theta)


def test_t_phi():
    assert t_phi(60.0, 54.0) == pytest.approx(6480.0 / 66.0)
    assert t_phi(math.inf, 54.0) == pytest.approx(54.0)
    with pytest.raises(ValueError, match="positive"):
        t_phi(0.0, 10.0)
    with pytest.raises(NumericalError, match="no measurable dephasing"):
        t_phi(10.0, 20.0)
    with pytest.raises(NumericalError):
        t_phi(10.0, 25.0)
    # 1 / T2E overflows: T_phi would underflow to 0
    with pytest.raises(NumericalError, match="dephasing rate is out of range"):
        t_phi(60.0, 1e-320)


def test_nbar_from_dephasing():
    # occupancy-to-rate conversion is linear, so nbar(T) T is constant
    n1 = nbar_from_dephasing(10.0, 1.1, 0.94)
    n2 = nbar_from_dephasing(20.0, 1.1, 0.94)
    assert n1 == pytest.approx(2.0 * n2, rel=1e-12)
    assert nbar_from_dephasing(math.inf, 1.1, 0.94) == 0.0
    with pytest.raises(ValueError):
        nbar_from_dephasing(-1.0, 1.1, 0.94)
    with pytest.raises(ValueError):
        nbar_from_dephasing(10.0, 0.0, 0.94)


def test_isolation_estimate():
    assert isolation_estimate_dB(0.04, 0.002) == pytest.approx(13.0103, abs=1e-4)
    assert isolation_estimate_dB(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        isolation_estimate_dB(0.0, 0.1)


def _chain_records():
    mk = lambda label, t1, t2e, jis, jda: ReadoutChainRecord(
        label=label, t1_us=t1, t2e_us=t2e, kappa_mhz=1.1, chi_mhz=0.94, jis=jis, jda=jda
    )
    return [
        mk("bare", 60.0, 54.0, "off", "off"),
        mk("jis only", 63.0, 55.0, "on", "off"),
        mk("jda only", 55.0, 6.0, "off", "on"),
        mk("full chain", 65.0, 40.0, "on", "on"),
    ]


def test_backaction_report_values():
    report = backaction_report(_chain_records())
    tphi = [r.t_phi_us for r in report.rows]
    assert tphi == pytest.approx([98.1818, 97.6056, 6.3462, 57.7778], abs=5e-4)
    assert report.nbar_th == pytest.approx(0.003492, abs=1e-5)
    assert report.rows[0].nbar_ba == 0.0
    assert report.rows[2].nbar_ba == pytest.approx(0.050528, abs=1e-5)
    assert report.rows[3].nbar_ba == pytest.approx(0.002442, abs=1e-5)
    # the amplifier-on pair isolates the effect of the isolator itself
    assert report.isolation_db == pytest.approx(13.158, abs=5e-3)
    assert [r.label for r in report.rows] == [rec.label for rec in _chain_records()]
    for row, rec in zip(report.rows, _chain_records()):
        assert row.gamma_phi_per_us == pytest.approx(1.0 / row.t_phi_us, rel=1e-12)
        assert row.jis == rec.jis and row.jda == rec.jda


def test_backaction_report_edge_cases():
    single = backaction_report(_chain_records()[:1])
    assert single.isolation_db is None
    assert single.rows[0].nbar_ba == 0.0
    with pytest.raises(ValueError, match="at least one record"):
        backaction_report([])
    # records without chain flags never produce an isolation figure
    bare = ReadoutChainRecord(label="x", t1_us=60.0, t2e_us=54.0, kappa_mhz=1.1, chi_mhz=0.94)
    report = backaction_report([bare, bare])
    assert report.isolation_db is None
    assert report.rows[1].jis is None
