"""Two-stage interferometric isolator: closed forms, network composition, sweeps.

The device interleaves two balanced frequency-conversion stages between a
quadrature hybrid (signal side) and a weakly coupled internal line whose
taps 3 and 4 end in cold loads. Nonreciprocity is controlled by the phase
difference phi between the effective pump phases of the two stages; the sum
phi_s only rotates the references of the internal taps.

Phase bookkeeping: phi and phi_s as carried by JisConfig are the exact real
difference and sum of the per-stage generalized pump phases. They enter the
closed form through half-angle factors, so a 2 pi shift is observable in
the signs of the port 3/4 columns; device working points are conventionally
quoted mod 2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularResponseError
from .mixer import (
    JpcParams,
    RHO_5050,
    amplitudes_of_frequency,
    mixer_2port,
    t_on_resonance,
)
from .network import (
    ConnectionGraph,
    ScatteringMatrix,
    connect,
    delay_phase_rad,
    hybrid_90,
    lossy_coupler,
)

# Pump feed patterns: per-stage pump phases for each physical pump port.
_PUMP_PHASES = {"P1": (0.0, np.pi / 2.0), "P2": (np.pi / 2.0, 0.0)}

# Stage-phase difference each feed sets at zero flux: -pi/2 for P1, +pi/2 for P2.
PUMP_PHI_RAD = {port: ph1 - ph2 for port, (ph1, ph2) in _PUMP_PHASES.items()}

# The ideal quadrature hybrid; read-only, so every composition shares it.
HYBRID = hybrid_90()

# Clamp for the internal-loop resonance denominator 1 - r_b^2 alpha^2.
_LOOP_SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class JisConfig:
    """Working point of the full two-stage device.

    The fields describe one balanced device with two flux biases: both
    stages share the mode frequencies, linewidths and pump strength rho,
    and differ only in their reduced fluxes phi_ext1_rad and phi_ext2_rad,
    whose lobe parity sets the isolation direction. pump_port sets the
    stage pump phases: P1 drives (0, pi/2), P2 drives (pi/2, 0). The stages
    jpc1 and jpc2 are derived from these fields and cannot be set.
    """

    f_a_ghz: float
    f_b_ghz: float
    gamma_a_mhz: float
    gamma_b_mhz: float
    rho: float
    alpha_mag: float = 0.5
    pump_port: str = "P1"
    phi_ext1_rad: float = 0.0
    phi_ext2_rad: float = 0.0
    delay_length_um: float = 0.0
    delay_eps_eff: float = 1.0
    jpc1: JpcParams = field(init=False, repr=False, compare=False)
    jpc2: JpcParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pump_port not in _PUMP_PHASES:
            raise ValueError("pump_port must be 'P1' or 'P2'")
        ph1, ph2 = _PUMP_PHASES[self.pump_port]
        shared = (self.f_a_ghz, self.f_b_ghz, self.gamma_a_mhz, self.gamma_b_mhz, self.rho)
        object.__setattr__(self, "jpc1", JpcParams(*shared, ph1, self.phi_ext1_rad))
        object.__setattr__(self, "jpc2", JpcParams(*shared, ph2, self.phi_ext2_rad))
        if not 0.0 <= self.alpha_mag <= 1.0:
            raise ValueError("alpha_mag must lie in [0, 1]")
        if not self.delay_length_um >= 0.0:
            raise ValueError("delay_length_um must be nonnegative")
        if not self.delay_eps_eff >= 1.0:
            raise ValueError("delay_eps_eff must be >= 1")

    @property
    def f_p_ghz(self) -> float:
        return self.f_b_ghz - self.f_a_ghz

    @property
    def beta(self) -> float:
        return float(np.sqrt(1.0 - self.alpha_mag**2))

    @property
    def parity(self) -> int:
        return (self.jpc1.n_g + self.jpc2.n_g) % 2

    @property
    def phi_rad(self) -> float:
        """Exact difference of the generalized stage phases (phi_p + p pi mod 2 pi)."""
        return (
            self.jpc1.generalized_pump_phase_rad - self.jpc2.generalized_pump_phase_rad
        )

    @property
    def phi_s_rad(self) -> float:
        """Exact sum of the generalized stage phases (phi_p1 + phi_p2 + p pi mod 2 pi)."""
        return (
            self.jpc1.generalized_pump_phase_rad + self.jpc2.generalized_pump_phase_rad
        )


make_jis = JisConfig


def reference_device(
    rho: float = RHO_5050,
    alpha_mag: float = 0.51,
    pump_port: str = "P1",
    phi_ext1_rad: float = -2.0 * np.pi * 1.12,
    phi_ext2_rad: float = -2.0 * np.pi * 1.12,
) -> JisConfig:
    """Measured working point of the characterized device."""
    return JisConfig(
        f_a_ghz=6.84,
        f_b_ghz=9.567,
        gamma_a_mhz=40.0,
        gamma_b_mhz=100.0,
        rho=rho,
        alpha_mag=alpha_mag,
        pump_port=pump_port,
        phi_ext1_rad=phi_ext1_rad,
        phi_ext2_rad=phi_ext2_rad,
        delay_length_um=11.283,
        delay_eps_eff=7.418,
    )


def with_rho(config: JisConfig, rho: float) -> JisConfig:
    """Copy of config with the shared pump strength set to rho; both stages follow."""
    return replace(config, rho=rho)


_PORTS_4 = ("1", "2", "3", "4")


def closed_form_4port(
    t: float, alpha: float, beta: float, phi_rad: float, phi_s_rad: float = np.pi / 2.0
) -> ScatteringMatrix:
    """On-resonance 4-port scattering of the device in closed form.

    t is the per-stage conversion amplitude, alpha/beta the internal coupler
    split, phi and phi_s the difference and sum of the generalized stage
    phases (reals; their halves appear directly, so values matter mod 4 pi).
    With no conversion (t = 0) the device is exactly transparent: S21 = S12
    = i, full reflection -1 at the internal taps.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("alpha and beta must lie in [0, 1]")
    if t == 0.0:
        s = np.array(
            [
                [0, 1j, 0, 0],
                [1j, 0, 0, 0],
                [0, 0, -1, 0],
                [0, 0, 0, -1],
            ],
            dtype=complex,
        )
        return ScatteringMatrix(_PORTS_4, s)
    if beta == 0.0:
        raise ValueError("beta = 0 with t > 0 leaves the internal line unloaded")

    r = np.sqrt(1.0 - t**2)
    ab2 = alpha / beta**2
    d = 1.0 + (alpha**2 / beta**2) * t**2
    phi = float(phi_rad)
    phi_s = float(phi_s_rad)

    s21 = (1j / d) * (r - ab2 * t**2 * np.sin(phi))
    s12 = (1j / d) * (r + ab2 * t**2 * np.sin(phi))
    s11 = s22 = -1j * ab2 * (t**2 / d) * np.cos(phi)
    s33 = s44 = -r / d
    s34 = s43 = ab2 * t**2 / d

    q = np.exp(1j * np.pi / 4.0)  # e^{i pi/4}
    eh = np.exp(1j * phi / 2.0)  # e^{i phi/2}
    pre_lo = -t * np.exp(-1j * phi_s / 2.0) * q / (np.sqrt(2.0) * beta * d)
    pre_hi = -t * np.exp(1j * phi_s / 2.0) * q / (np.sqrt(2.0) * beta * d)

    s13 = pre_lo * (r * alpha * eh * q + np.conj(eh) * np.conj(q))
    s14 = pre_lo * (eh * q + r * alpha * np.conj(eh) * np.conj(q))
    s23 = pre_lo * (r * alpha * eh * np.conj(q) + np.conj(eh) * q)
    s24 = pre_lo * (eh * np.conj(q) + r * alpha * np.conj(eh) * q)
    s31 = pre_hi * (r * alpha * np.conj(eh) * q + eh * np.conj(q))
    s32 = pre_hi * (r * alpha * np.conj(eh) * np.conj(q) + eh * q)
    s41 = pre_hi * (np.conj(eh) * q + r * alpha * eh * np.conj(q))
    s42 = pre_hi * (np.conj(eh) * np.conj(q) + r * alpha * eh * q)

    s = np.array(
        [
            [s11, s12, s13, s14],
            [s21, s22, s23, s24],
            [s31, s32, s33, s34],
            [s41, s42, s43, s44],
        ],
        dtype=complex,
    )
    return ScatteringMatrix(_PORTS_4, s)


def closed_form_from_config(config: JisConfig) -> ScatteringMatrix:
    return closed_form_4port(
        t_on_resonance(config.rho),
        config.alpha_mag,
        config.beta,
        config.phi_rad,
        config.phi_s_rad,
    )


def composed_4port(config: JisConfig) -> ScatteringMatrix:
    """Same on-resonance 4-port, built by joining the constituent elements.

    Hybrid on the signal side, one 2-port converter per stage, and the
    internal coupler with its two taps. Agrees with closed_form_4port
    entrywise for every working point; kept as an independent construction.
    """
    t = t_on_resonance(config.rho)
    phi1 = config.jpc1.generalized_pump_phase_rad
    phi2 = config.jpc2.generalized_pump_phase_rad
    elements = {
        "hyb": HYBRID,
        "st1": mixer_2port(t, phi1),
        "st2": mixer_2port(t, phi2),
        "cpl": lossy_coupler(config.alpha_mag, config.beta),
    }
    joints = (
        (("hyb", "1p"), ("st1", "a")),
        (("hyb", "2p"), ("st2", "a")),
        (("st1", "b"), ("cpl", "b1")),
        (("st2", "b"), ("cpl", "b2")),
    )
    external = (("hyb", "1"), ("hyb", "2"), ("cpl", "3"), ("cpl", "4"))
    return connect(ConnectionGraph(elements, joints, external)).renamed(_PORTS_4)


@dataclass(frozen=True)
class TwoPort:
    """On-resonance signal-side response."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex


def on_resonance_2port(t: float, phi_rad: float) -> TwoPort:
    """Signal-side 2-port at zero detuning with a symmetric internal split.

    S21 = i (sqrt(1 - t^2) - sqrt2 t^2 sin phi) / (1 + t^2) and S12 with the
    opposite sign of the sin term; reflections share the cos phi quadrature.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    r = np.sqrt(1.0 - t**2)
    d = 1.0 + t**2
    s21 = 1j * (r - np.sqrt(2.0) * t**2 * np.sin(phi_rad)) / d
    s12 = 1j * (r + np.sqrt(2.0) * t**2 * np.sin(phi_rad)) / d
    s11 = s22 = -1j * np.sqrt(2.0) * t**2 * np.cos(phi_rad) / d
    return TwoPort(s11=s11, s12=s12, s21=s21, s22=s22)


@dataclass(frozen=True)
class SweepResult:
    """Signal-side response over a frequency grid (GHz in, complex out)."""

    f_ghz: np.ndarray
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    config: JisConfig


def effective_2port_sweep(config: JisConfig, f_ghz: np.ndarray) -> SweepResult:
    """Frequency response of ports 1 and 2 with the internal line folded in.

    The stages see the signal detuning through their susceptibilities; the
    internal line contributes a complex round-trip factor alpha =
    |alpha| e^{i theta_d} evaluated at the up-converted frequency f1 + f_p.
    Raises SingularResponseError if the internal loop 1 - r_b^2 alpha^2
    becomes singular on the grid.
    """
    f = np.asarray(f_ghz, dtype=float)
    t, r_a, r_b = amplitudes_of_frequency(f, config.jpc1)

    # delay_phase_rad is plain arithmetic, safe to evaluate on the array
    theta_d = delay_phase_rad(config.delay_length_um, config.delay_eps_eff, f + config.f_p_ghz)
    alpha = config.alpha_mag * np.exp(1j * theta_d)

    loop = 1.0 - r_b**2 * alpha**2
    if np.min(np.abs(loop)) < _LOOP_SINGULARITY_TOL:
        raise SingularResponseError("internal loop resonance: 1 - r_b^2 alpha^2 vanished")

    phi = config.phi_rad
    s12_in = -alpha * t**2 * np.exp(-1j * phi) / loop
    s21_in = -alpha * t**2 * np.exp(1j * phi) / loop
    s11_in = r_a - r_b * alpha**2 * t**2 / loop

    s21 = 1j * s11_in + (s21_in - s12_in) / 2.0
    s12 = 1j * s11_in + (s12_in - s21_in) / 2.0
    s11 = 1j * (s21_in + s12_in) / 2.0

    return SweepResult(
        f_ghz=f,
        s11=np.asarray(s11, dtype=complex),
        s12=np.asarray(s12, dtype=complex),
        s21=np.asarray(s21, dtype=complex),
        s22=np.array(s11, dtype=complex),
        config=config,
    )


def default_grid(config, span_mhz: float = 300.0, points: int = 2001) -> np.ndarray:
    """Symmetric sweep grid around the signal resonance of a JisConfig or JpcParams.

    The grid must stay above zero frequency, so span_mhz must be less than
    twice the signal frequency.
    """
    if points < 2:
        raise ValueError("points must be at least 2")
    if not config.f_a_ghz - span_mhz / 2.0 * 1e-3 > 0.0:
        raise ValueError(
            f"grid span {span_mhz:.9g} MHz around {config.f_a_ghz:.9g} GHz reaches f <= 0 "
            f"(span_mhz must be less than {2e3 * config.f_a_ghz:.9g})"
        )
    return config.f_a_ghz + np.linspace(-span_mhz / 2.0, span_mhz / 2.0, int(points)) * 1e-3


def added_noise(transmitted_power: float) -> float:
    """Added noise quanta (1 - T) / (2 T) of a beam-splitter loss channel T.

    Evaluated as (1/T - 1) / 2, which is exact whenever 1/T is exactly
    representable (T = 8/9 gives exactly 1/16).
    """
    if not 0.0 < transmitted_power <= 1.0:
        raise ValueError("transmitted_power must lie in (0, 1]")
    return (1.0 / transmitted_power - 1.0) / 2.0
