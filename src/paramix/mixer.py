"""Single-stage parametric frequency converter: working point, line shapes, flux logic.

Working-point scattering is parameterized by the dimensionless pump strength
rho in [0, 1]. Frequency dependence enters through the inverse
susceptibilities of the two resonant modes; with the pump locked to the
difference of the mode frequencies, the idler offset cancels and both
susceptibilities are functions of the signal detuning from the low mode.

Flux logic: within the primary flux lobe |phi_ext| <= 1.4 * 2 pi, the
negative-flux half selects coupling index n_g = 0 and the positive-flux half
selects n_g = 1 (the boundary counts as 0). Crossing zero flips the sign of
the three-wave coupling and shifts the effective pump phase by pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .network import ScatteringMatrix

FLUX_QUANTUM_WB = 2.067833848e-15

# Half-width of the primary flux lobe, in radians of reduced flux.
PRIMARY_LOBE_RAD = 1.4 * 2.0 * np.pi

# Pump strength giving the 50:50 beam-splitter working point, t = r = 1/sqrt2.
RHO_5050 = np.sqrt(2.0) - 1.0


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return rho


def _check_flux(phi_ext_rad: float) -> None:
    if not abs(phi_ext_rad) <= PRIMARY_LOBE_RAD:
        raise ValueError("phi_ext_rad outside the primary flux lobe")


def t_on_resonance(rho: float) -> float:
    """Conversion amplitude 2 rho / (1 + rho^2) at zero detuning."""
    rho = _check_rho(rho)
    return 2.0 * rho / (1.0 + rho**2)


def r_on_resonance(rho: float) -> float:
    """Reflection amplitude (1 - rho^2) / (1 + rho^2) at zero detuning."""
    rho = _check_rho(rho)
    return (1.0 - rho**2) / (1.0 + rho**2)


def chi_inv(f1_ghz: float, f_a_ghz: float, gamma_mhz: float) -> complex:
    """Inverse susceptibility 1 - 2i (f1 - f_a) / gamma of one mode.

    gamma_mhz is the full linewidth in MHz; frequencies are in GHz. Both
    modes of a converter use the signal detuning from the low mode, because
    the pump frequency pins the idler offset to the same value.
    """
    if not gamma_mhz > 0.0:
        raise ValueError("gamma_mhz must be positive")
    return 1.0 - 2j * (f1_ghz - f_a_ghz) * 1e3 / gamma_mhz


@dataclass(frozen=True)
class JpcParams:
    """Working point of one converter stage.

    Frequencies in GHz, linewidths in MHz, phases in radians. phi_ext_rad is
    the reduced external flux threading the ring modulator and must stay
    inside the primary lobe.
    """

    f_a_ghz: float
    f_b_ghz: float
    gamma_a_mhz: float
    gamma_b_mhz: float
    rho: float
    pump_phase_rad: float = 0.0
    phi_ext_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.f_a_ghz < self.f_b_ghz:
            raise ValueError("need 0 < f_a_ghz < f_b_ghz")
        if not (self.gamma_a_mhz > 0.0 and self.gamma_b_mhz > 0.0):
            raise ValueError("linewidths must be positive")
        _check_rho(self.rho)
        _check_flux(self.phi_ext_rad)

    @property
    def n_g(self) -> int:
        return n_g(self.phi_ext_rad)

    @property
    def generalized_pump_phase_rad(self) -> float:
        return generalized_pump_phase(self.pump_phase_rad, self.phi_ext_rad)


def amplitudes_of_frequency(f1_ghz: float, params: JpcParams) -> tuple[complex, complex, complex]:
    """(t, r_a, r_b) at signal frequency f1, from one pair of susceptibilities.

    With D = chi_a^-1 chi_b^-1 + rho^2: the conversion amplitude t = 2 rho / D,
    the reflection at the low-mode port r_a = (chi_a^-1* chi_b^-1 - rho^2) / D,
    and the reflection at the high-mode port (idler frequency f1 + f_p)
    r_b = (chi_a^-1 chi_b^-1* - rho^2) / D.
    """
    ca = chi_inv(f1_ghz, params.f_a_ghz, params.gamma_a_mhz)
    cb = chi_inv(f1_ghz, params.f_a_ghz, params.gamma_b_mhz)
    den = ca * cb + params.rho**2
    t = 2.0 * params.rho / den
    r_a = (np.conj(ca) * cb - params.rho**2) / den
    r_b = (ca * np.conj(cb) - params.rho**2) / den
    return t, r_a, r_b


def t_of_frequency(f1_ghz: float, params: JpcParams) -> complex:
    """Conversion amplitude t of `amplitudes_of_frequency`."""
    return amplitudes_of_frequency(f1_ghz, params)[0]


def r_a_of_frequency(f1_ghz: float, params: JpcParams) -> complex:
    """Low-mode reflection r_a of `amplitudes_of_frequency`."""
    return amplitudes_of_frequency(f1_ghz, params)[1]


def r_b_of_frequency(f1_ghz: float, params: JpcParams) -> complex:
    """High-mode reflection r_b of `amplitudes_of_frequency`."""
    return amplitudes_of_frequency(f1_ghz, params)[2]


def n_g(phi_ext_rad: float) -> int:
    """Coupling index of the flux working point: 0 for phi <= 0, 1 for phi > 0."""
    _check_flux(phi_ext_rad)
    return 0 if phi_ext_rad <= 0.0 else 1


def generalized_pump_phase(pump_phase_rad: float, phi_ext_rad: float) -> float:
    """Effective pump phase phi_p + n_g pi seen by the conversion process."""
    return float(pump_phase_rad) + n_g(phi_ext_rad) * np.pi


def g3_sign(phi_ext_rad: float) -> int:
    """Sign of the three-wave coupling: -sign(phi_ext), 0 at zero flux."""
    _check_flux(phi_ext_rad)
    if phi_ext_rad == 0.0:
        return 0
    return -1 if phi_ext_rad > 0.0 else 1


def g3_magnitude(
    phi_ext_rad: float,
    p_a: float,
    p_b: float,
    p_c: float,
    f_a_ghz: float,
    f_b_ghz: float,
    f_c_ghz: float,
    ej_eff_over_h_ghz: float,
) -> float:
    """Three-wave coupling magnitude in GHz.

    |g3| = |sin(phi_ext / 4)| sqrt(p_a p_b p_c f_a f_b f_c / (E_J^eff / h)).
    The participation ratios p_x are dimensionless; the effective junction
    energy is supplied directly as a frequency E_J^eff / h in GHz.
    """
    for name, val in (("p_a", p_a), ("p_b", p_b), ("p_c", p_c)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not all(f > 0.0 for f in (f_a_ghz, f_b_ghz, f_c_ghz)):
        raise ValueError("mode frequencies must be positive")
    if not ej_eff_over_h_ghz > 0.0:
        raise ValueError("ej_eff_over_h_ghz must be positive")
    return abs(np.sin(phi_ext_rad / 4.0)) * np.sqrt(
        p_a * p_b * p_c * f_a_ghz * f_b_ghz * f_c_ghz / ej_eff_over_h_ghz
    )


@dataclass(frozen=True)
class JrmParams:
    """Lumped model of the flux-tunable ring resonance.

    i0_ua is the junction critical current in microamps; f_max_ghz the
    zero-flux resonance; z_res_ohm the resonator impedance; lj0_over_l and
    lj0_over_ls the ratios of the zero-flux junction inductance to the shunt
    and series inductances.
    """

    i0_ua: float = 2.82
    f_max_ghz: float = 7.0232
    z_res_ohm: float = 51.1
    lj0_over_l: float = 3.1
    lj0_over_ls: float = 5.0

    def __post_init__(self) -> None:
        if not all(v > 0.0 for v in (self.i0_ua, self.f_max_ghz, self.z_res_ohm)):
            raise ValueError("i0_ua, f_max_ghz, z_res_ohm must be positive")
        if not (self.lj0_over_l > 0.0 and self.lj0_over_ls > 0.0):
            raise ValueError("inductance ratios must be positive")


def _lj0_nh(jrm: JrmParams) -> float:
    """Zero-flux junction inductance Phi_0 / (2 pi I_0), in nH."""
    current_a = 2.0 * np.pi * jrm.i0_ua * 1e-6
    if current_a == 0.0:  # i0_ua near the smallest floats underflows in amperes
        raise NumericalError(f"junction inductance diverges at i0_ua={jrm.i0_ua:g}")
    return FLUX_QUANTUM_WB / current_a * 1e9


def _l_jrm_nh(phi_ext_rad, jrm: JrmParams, lj0_nh: float):
    denom = jrm.lj0_over_l / 2.0 + np.cos(phi_ext_rad / 4.0)
    if np.any(denom <= 0.0):
        raise NumericalError("JRM inductance diverges at this flux")
    return lj0_nh / denom


def flux_tuning_curve(phi_ext_rad, jrm: JrmParams = JrmParams()):
    """Resonance frequency in GHz at the given reduced flux (a float or an array).

    The ring inductance is shunt-limited, L_JRM = L_J0 / (L_J0 / 2L +
    cos(phi/4)), in series with a stray inductance and the geometric
    inductance set by the resonator impedance. The resonance scales as
    1/sqrt(L_total), normalized to f_max at zero flux. Raises NumericalError
    if L_J0 or L_JRM diverges at any of the fluxes.
    """
    lj0_nh = _lj0_nh(jrm)
    ls_nh = lj0_nh / jrm.lj0_over_ls
    l_jrm0_nh = _l_jrm_nh(0.0, jrm, lj0_nh)
    l_geo_nh = max(
        0.0,
        (np.pi / 2.0) * jrm.z_res_ohm / (2.0 * np.pi * jrm.f_max_ghz) - ls_nh - l_jrm0_nh,
    )
    l_tot0 = l_geo_nh + ls_nh + l_jrm0_nh
    l_tot = l_geo_nh + ls_nh + _l_jrm_nh(phi_ext_rad, jrm, lj0_nh)
    return jrm.f_max_ghz * np.sqrt(l_tot0 / l_tot)


def mixer_2port(t: float, generalized_phase_rad: float) -> ScatteringMatrix:
    """On-resonance 2-port of one converter stage on ports (a, b).

    S = [[r, -t e^{-i phi'}], [-t e^{+i phi'}, -r]] with r = sqrt(1 - t^2):
    conversion a->b picks up +phi', b->a picks up -phi', reflection is +r at
    the signal port and -r at the internal port. These signs are pinned
    jointly with lossy_coupler by the pump-off and 50:50 composed matrices.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    r = np.sqrt(1.0 - t**2)
    ph = np.exp(1j * generalized_phase_rad)
    s = np.array([[r, -t * np.conj(ph)], [-t * ph, -r]], dtype=complex)
    return ScatteringMatrix(("a", "b"), s)
