"""Single-stage parametric frequency converter: working point, line shapes, flux logic.

Working-point scattering is parameterized by the dimensionless pump strength
rho in [0, 1]. Frequency dependence enters through the inverse
susceptibilities of the two resonant modes; with the pump locked to the
difference of the mode frequencies, the idler offset cancels and both
susceptibilities are functions of the signal detuning from the low mode.

Flux logic: within the primary flux lobe |phi_ext| <= 1.4 * 2 pi, the
negative-flux half selects coupling index n_g = 0 and the positive-flux half
selects n_g = 1 (the boundary counts as 0). Crossing zero flips the sign of
the three-wave coupling and shifts the effective pump phase by pi; the
isolator adds that half turn to each stage's phase (isolator.stage_quarters).
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


def t_r_of_rho(rho):
    """Conversion t = 2 rho / (1 + rho^2) and reflection r of one stage at zero detuning.

    r = (1 - rho)(1 + rho) / (1 + rho^2) keeps its digits as rho -> 1, where
    sqrt(1 - t^2) cancels; rho = 1 gives exactly t = 1 and r = 0. Broadcasts
    over an array of rho, with no range check.
    """
    den = 1.0 + rho**2
    return 2.0 * rho / den, (1.0 - rho) * (1.0 + rho) / den


def rho_of_r(r):
    """The pump strength rho = sqrt((1 - r) / (1 + r)) whose reflection is r: t_r_of_rho's inverse."""
    return np.sqrt((1.0 - r) / (1.0 + r))


def amplitudes_on_resonance(rho: float) -> tuple[float, float]:
    """(t, r) of t_r_of_rho for one rho, which must lie in [0, 1] (else ValueError)."""
    return t_r_of_rho(_check_rho(rho))


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
    """Working point of one converter stage: frequencies in GHz, linewidths in MHz.

    Its line shapes do not depend on the pump phase or the flux bias; the
    phase a stage's conversion picks up is set by the isolator's feed and
    flux parity (isolator.stage_quarters).
    """

    f_a_ghz: float
    f_b_ghz: float
    gamma_a_mhz: float
    gamma_b_mhz: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.f_a_ghz < self.f_b_ghz:
            raise ValueError("need 0 < f_a_ghz < f_b_ghz")
        if not (self.gamma_a_mhz > 0.0 and self.gamma_b_mhz > 0.0):
            raise ValueError("linewidths must be positive")
        _check_rho(self.rho)


def susceptibilities(f1_ghz, params: JpcParams):
    """(chi_a^-1, chi_b^-1, D = chi_a^-1 chi_b^-1 + rho^2) at signal frequency f1: a stage's shared terms."""
    ca = chi_inv(f1_ghz, params.f_a_ghz, params.gamma_a_mhz)
    cb = chi_inv(f1_ghz, params.f_a_ghz, params.gamma_b_mhz)
    return ca, cb, ca * cb + params.rho**2


def reflections(ca, cb, den, rho):
    """(r_a, r_b) = (chi_a^-1* chi_b^-1 - rho^2, chi_a^-1 chi_b^-1* - rho^2) / D of `susceptibilities`."""
    return (ca.conjugate() * cb - rho**2) / den, (ca * cb.conjugate() - rho**2) / den


def amplitudes_of_frequency(f1_ghz: float, params: JpcParams) -> tuple[complex, complex, complex]:
    """(t, r_a, r_b) at signal frequency f1: conversion t = 2 rho / D and the mode ports' `reflections`."""
    ca, cb, den = susceptibilities(f1_ghz, params)
    return 2.0 * params.rho / den, *reflections(ca, cb, den, params.rho)


def t_of_frequency(f1_ghz: float, params: JpcParams) -> complex:
    """Conversion amplitude t of `amplitudes_of_frequency`."""
    return amplitudes_of_frequency(f1_ghz, params)[0]


def r_a_of_frequency(f1_ghz: float, params: JpcParams) -> complex:
    """Low-mode reflection r_a of `amplitudes_of_frequency`."""
    return amplitudes_of_frequency(f1_ghz, params)[1]


def n_g(phi_ext_rad: float) -> int:
    """Coupling index of the flux working point: 0 for phi <= 0, 1 for phi > 0."""
    if not abs(phi_ext_rad) <= PRIMARY_LOBE_RAD:
        raise ValueError("phi_ext_rad outside the primary flux lobe")
    return 0 if phi_ext_rad <= 0.0 else 1


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
    1/sqrt(L_total), normalized to f_max at zero flux. Raises ValueError if
    any flux is not finite, and NumericalError if L_J0 or L_JRM diverges at
    any of the fluxes.
    """
    if not np.all(np.isfinite(phi_ext_rad)):
        raise ValueError("phi_ext_rad must be finite")
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


# e^{i k pi/2} for k = 0..3, each part an exact float with no -0.0
_QUARTER_PHASORS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


def turn_phasor(k: int) -> complex:
    """e^{i k pi/2} for k quarter turns, exactly: 1, i, -1 or -i."""
    return _QUARTER_PHASORS[k % 4]


def mixer_2port(t, r_a, r_b, quarter_turns) -> ScatteringMatrix:
    """2-port of one converter stage on ports (a, b).

    S = [[r_a, -t e^{-i phi'}], [-t e^{+i phi'}, -r_b]] with phi' = k pi/2 for
    k quarter_turns, signs pinned jointly with lossy_coupler by the pump-off
    and 50:50 composed matrices; t = 1, r_a = r_b = 0 is an ideal gyrator.
    Each argument is a scalar or a (B,) array, and any array gives a (B, 2, 2)
    stack. k must be ints (else ValueError). Phasors are exact, zeros +0.0.
    """
    k = np.asarray(quarter_turns)
    if k.dtype.kind not in "iu":
        raise ValueError("quarter_turns must be an int or an array of ints")
    q = np.array(_QUARTER_PHASORS)[k % 4]
    shape = np.broadcast(t, r_a, r_b, k).shape
    s = np.empty(shape + (2, 2), dtype=complex)
    s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1] = r_a, -t * q.conjugate(), -t * q, -r_b
    return ScatteringMatrix(("a", "b"), s + 0.0)
