"""Every bound check refuses NaN.

A check written as `x <= 0` or `abs(x) > limit` is false for NaN, so the
value slips through and comes back as a number (or as `n_g = 1`, or as
parity "odd"). Each call below passes NaN to one checked input and must
raise ValueError instead of returning.
"""

import pytest

import paramix as pm
from paramix import analysis, mixer, network, parity

NAN = float("nan")
JPC = dict(f_a_ghz=6.84, f_b_ghz=9.567, gamma_a_mhz=40.0, gamma_b_mhz=100.0, rho=0.4)
JIS = dict(JPC, alpha_mag=0.51)

CALLS = {
    "JpcParams.gamma_a_mhz": lambda: mixer.JpcParams(**{**JPC, "gamma_a_mhz": NAN}),
    "JpcParams.phi_ext_rad": lambda: mixer.JpcParams(**JPC, phi_ext_rad=NAN),
    "JisConfig.delay_length_um": lambda: pm.JisConfig(**JIS, delay_length_um=NAN),
    "JisConfig.delay_eps_eff": lambda: pm.JisConfig(**JIS, delay_eps_eff=NAN),
    "JrmParams.i0_ua": lambda: mixer.JrmParams(i0_ua=NAN),
    "delay_line.length_um": lambda: network.delay_line(NAN, 2.0, 5.0),
    "delay_line.freq_ghz": lambda: network.delay_line(10.0, 2.0, NAN),
    "termination": lambda: network.termination(NAN),
    "hybrid_90": lambda: network.hybrid_90(NAN),
    "n_g": lambda: mixer.n_g(NAN),
    "g3_sign": lambda: mixer.g3_sign(NAN),
    "g3_magnitude.f_a_ghz": lambda: mixer.g3_magnitude(0.1, 1.0, 1.0, 1.0, NAN, 9.0, 2.7, 100.0),
    "chi_inv.gamma_mhz": lambda: mixer.chi_inv(6.9, 6.84, NAN),
    "gamma0": lambda: analysis.gamma0(NAN, 100.0),
    "field_range": lambda: parity.field_range(NAN),
    "theta_from_chi_kappa": lambda: analysis.theta_from_chi_kappa(1.0, NAN),
    "eta_from_separation": lambda: analysis.eta_from_separation(3.0, NAN, 1.0, 1.0, 90.0),
    "eta_from_separation.theta_deg": lambda: analysis.eta_from_separation(3.0, 1.0, 1.0, 1.0, NAN),
    "isolation_estimate_dB": lambda: analysis.isolation_estimate_dB(NAN, 1.0),
    "t_phi": lambda: analysis.t_phi(NAN, 10.0),
    "nbar_from_dephasing": lambda: analysis.nbar_from_dephasing(NAN, 1.0, 1.0),
    "infer_parity": lambda: parity.infer_parity([NAN]),
    "default_grid.span_mhz": lambda: pm.default_grid(pm.reference_device(), NAN),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_nan_fails_the_bound_check(call):
    with pytest.raises(ValueError):
        call()
