"""Every bound check refuses NaN, and so does every input with no bound.

A check written as `x <= 0` or `abs(x) > limit` is false for NaN, so the
value slips through and comes back as a number (or as `n_g = 1`); an input
with no check at all, such as a phase, carries NaN into the result. Each
call below passes NaN (or, where noted, inf) to one input and must raise
ValueError instead of returning.
"""

import numpy as np
import pytest

import paramix as pm
from paramix import analysis, isolator, mixer, parity

NAN = float("nan")
JPC = dict(f_a_ghz=6.84, f_b_ghz=9.567, gamma_a_mhz=40.0, gamma_b_mhz=100.0, rho=0.4)
JIS = dict(JPC, alpha_mag=0.51)

CALLS = {
    "JpcParams.gamma_a_mhz": lambda: mixer.JpcParams(**{**JPC, "gamma_a_mhz": NAN}),
    "JisConfig.phi_ext1_rad": lambda: pm.JisConfig(**JIS, phi_ext1_rad=NAN),
    "JisConfig.phi_ext2_rad": lambda: pm.JisConfig(**JIS, phi_ext2_rad=NAN),
    "JisConfig.delay_length_um": lambda: pm.JisConfig(**JIS, delay_length_um=NAN),
    "JisConfig.delay_eps_eff": lambda: pm.JisConfig(**JIS, delay_eps_eff=NAN),
    "JrmParams.i0_ua": lambda: mixer.JrmParams(i0_ua=NAN),
    "n_g": lambda: mixer.n_g(NAN),
    "chi_inv.gamma_mhz": lambda: mixer.chi_inv(6.9, 6.84, NAN),
    "flux_tuning_curve": lambda: mixer.flux_tuning_curve(NAN),
    "flux_tuning_curve.array": lambda: mixer.flux_tuning_curve(np.array([0.0, NAN, 1.0])),
    "mixer_2port.quarter_turns": lambda: mixer.mixer_2port(0.6, 0.8, 0.8, NAN),
    "gamma0": lambda: analysis.gamma0(NAN, 100.0),
    "field_range": lambda: parity.field_range(NAN),
    "theta_from_chi_kappa": lambda: analysis.theta_from_chi_kappa(1.0, NAN),
    "eta_from_separation": lambda: analysis.eta_from_separation(3.0, NAN, 1.0, 1.0, 90.0),
    "eta_from_separation.theta_deg": lambda: analysis.eta_from_separation(3.0, 1.0, 1.0, 1.0, NAN),
    "isolation_estimate_dB": lambda: analysis.isolation_estimate_dB(NAN, 1.0),
    "t_phi": lambda: analysis.t_phi(NAN, 10.0),
    "t_phi.t2e_us": lambda: analysis.t_phi(10.0, NAN),
    "nbar_from_dephasing": lambda: analysis.nbar_from_dephasing(NAN, 1.0, 1.0),
    "default_grid.span_mhz": lambda: isolator.default_grid(pm.reference_device(), NAN),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_nan_fails_the_bound_check(call):
    with pytest.raises(ValueError):
        call()
