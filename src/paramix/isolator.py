"""Two-stage interferometric isolator: closed forms, network composition, sweeps.

The device interleaves two balanced frequency-conversion stages between a
quadrature hybrid (signal side) and a weakly coupled internal line whose
taps 3 and 4 end in cold loads. Nonreciprocity is controlled by the phase
difference phi between the effective pump phases of the two stages; the sum
phi_s only rotates the references of the internal taps.

Phase bookkeeping: this module alone maps a pump feed and the flux
parities to the stage phases (stage_quarters). A stage's generalized pump
phase is k pi/2 with k a whole number of quarter turns: the feed's pump
phase plus 2 n_g, a half turn per odd flux parity. JisConfig derives the
pair (k1, k2) once; every phasor comes from these integers through the
exact quarter-turn table of mixer.turn_phasor. phi and phi_s are the
difference and sum of the stage phases. k1 - k2 is odd for every feed and
flux parity, so sin phi = +-1 and cos phi = 0 exactly: both the sweep
kernel and the 4-port at f_a take the exact sign from k1 - k2 and
write S11 = S22 as exact zeros rather than a difference of two equal
terms. The delay line enters as its phasor at f + f_p (_line_phasor), in
the sweep kernel and in the device's 4-port at f_a (closed_form_from_config).
Its no-line signal block, on_resonance_amplitudes and _powers, is the
forward model the fit inverts; swap_twin gives the point of equal powers.
_composed joins the device's elements (stages mixer_2port(t, r_a, r_b, k)
and a matched delay line) into the network that checks both: composed_4port
at f_a, and the tests' sweep oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularResponseError
from .mixer import (
    JpcParams,
    RHO_5050,
    amplitudes_of_frequency,
    amplitudes_on_resonance,
    mixer_2port,
    n_g,
    rho_of_r,
    t_r_of_rho,
    turn_phasor,
)
from .network import (
    HYBRID,
    ConnectionGraph,
    ScatteringMatrix,
    connect,
    coupler_beta2,
    delay_phase_rad,
    lossy_coupler,
    matched_line,
)

# Pump feed patterns: per-stage pump phases, in quarter turns, for each
# physical pump port.
_PUMP_QUARTERS = {"P1": (0, 1), "P2": (1, 0)}
QUARTER_TURN_RAD = np.pi / 2.0


def stage_quarters(pump_port: str, n_g1: int = 0, n_g2: int = 0) -> tuple[int, int]:
    """Each stage's generalized pump phase in quarter turns, (k1, k2).

    The feed's pump phase plus a half turn per coupling index n_g. Raises
    ValueError for a pump port other than P1 and P2.
    """
    if pump_port not in _PUMP_QUARTERS:
        raise ValueError("pump_port must be 'P1' or 'P2'")
    q1, q2 = _PUMP_QUARTERS[pump_port]
    return q1 + 2 * n_g1, q2 + 2 * n_g2


def _sin_phi(k1: int, k2: int) -> int:
    """sin phi of stage phases in quarter turns, exactly: k1 - k2 is odd, so +-1."""
    return 1 if (k1 - k2) % 4 == 1 else -1


def feed_sin_phi(pump_port: str) -> int:
    """sin phi a pump feed sets at zero flux: -1 for P1, +1 for P2."""
    return _sin_phi(*stage_quarters(pump_port))


# Clamp for the internal-loop resonance denominator 1 - r_b^2 alpha^2.
_LOOP_SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class JisConfig:
    """Working point of the full two-stage device.

    The fields describe one balanced device with two flux biases: both
    stages share the mode frequencies, linewidths and pump strength rho
    (the one stage jpc1), and differ only in their reduced fluxes, whose
    lobe parity sets the isolation direction. pump_port (P1 or P2) picks
    the stage pump phases. jpc1 and the stage phases in quarter turns,
    quarter_turns (stage_quarters), are derived and cannot be set.
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
    quarter_turns: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shared = (self.f_a_ghz, self.f_b_ghz, self.gamma_a_mhz, self.gamma_b_mhz, self.rho)
        object.__setattr__(self, "jpc1", JpcParams(*shared))
        quarters = stage_quarters(self.pump_port, n_g(self.phi_ext1_rad), n_g(self.phi_ext2_rad))
        object.__setattr__(self, "quarter_turns", quarters)
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
    def phi_rad(self) -> float:
        """Exact difference of the stage phases (phi_p + p pi mod 2 pi)."""
        k1, k2 = self.quarter_turns
        return (k1 - k2) * QUARTER_TURN_RAD

    @property
    def sin_phi(self) -> int:
        """sin phi exactly, +1 or -1."""
        return _sin_phi(*self.quarter_turns)

    @property
    def isolated_direction(self) -> str:
        """The transmission the device suppresses, "s21" or "s12".

        S21 = i (refl - conv sin phi): a positive sin phi darkens the forward
        direction, a negative one the backward direction.
        """
        return "s21" if self.sin_phi > 0 else "s12"


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


_PORTS_4 = ("1", "2", "3", "4")


def _line_phasor(config: JisConfig, f_ghz):
    """e^{i theta} of the delay line at signal frequency f: its phase at f + f_p."""
    return np.exp(1j * delay_phase_rad(config.delay_length_um, config.delay_eps_eff, f_ghz + config.f_p_ghz))


def _loop_terms(a, t):
    """(a t^2, (1 - a)(1 + a), L = 1 - r^2 a^2) of the loop factor a: alpha_c, or |alpha| with no line."""
    at2, bc2 = a * t**2, (1.0 - a) * (1.0 + a)
    return at2, bc2, bc2 + a * at2


def on_resonance_amplitudes(rho, alpha):
    """(refl, conv) = (r (1 - a^2), a t^2) / L, a = |alpha|: S21, S12 = i (refl -+ conv sin phi) with no line.

    L = 0 only at a = 1 with t^2 = 0, a path-dependent limit: exactly (0, 1) is a decoupled
    line, (1, 0), and the powers are (1, 1) on every path. Broadcasts, with no range check.
    """
    t, r = t_r_of_rho(rho)
    at2, bc2, loop = _loop_terms(alpha, t)
    cut = loop == 0.0
    return (r * bc2 + cut) / (loop + cut), at2 / (loop + cut)


def on_resonance_powers(rho, alpha, sin_phi: int):
    """(|S21|^2, |S12|^2) of on_resonance_amplitudes; sin_phi is the feed's exact +-1 (feed_sin_phi)."""
    refl, conv = on_resonance_amplitudes(rho, alpha)
    return (refl - conv * sin_phi) ** 2, (refl + conv * sin_phi) ** 2


def swap_twin(rho, alpha):
    """(rho_of_r(|alpha|), r): exchanging r and a exchanges refl and conv, so the powers hold."""
    return rho_of_r(alpha), t_r_of_rho(rho)[1]


def closed_form_from_config(config: JisConfig) -> ScatteringMatrix:
    """The device's 4-port at f = f_a in closed form, its delay line included.

    (t, r) come from rho (amplitudes_on_resonance), the line's phasor l at
    f_a + f_p from _line_phasor; alpha_c = |alpha| l, beta^2 = 1 - |alpha|^2
    (coupler_beta2) and L = 1 - r^2 alpha_c^2 (_loop_terms), the one loop
    denominator. S21, S12 = i (r (1 - alpha_c^2) -+ alpha_c t^2
    sin phi) / L, S33 = -r beta^2 l^2 / L, S44 = -r beta^2 / L, S34 = S43 =
    |alpha| (1 - l^2 r^2) / L; the cross entries carry t beta / (sqrt2 L),
    times l on port 3's row and column. k1 -+ k2 (quarter_turns) are odd,
    so sin phi = +-1, S11 = S22 are exact zeros and the half phases are
    whole quarter turns. With no line (l = 1) the model's other zeros are
    exact too (-0.0 is written 0.0), and rho = 0 is exactly transparent:
    S21 = S12 = i, -1 at the taps. |alpha| = 1 with no line and rho > 0 has
    L = t^2, which cancels from every entry: S21, S12 = -+i sin phi and
    S34 = S43 = 1, written so for a t^2 that underflows too. L vanishes
    nowhere else, so the 4-port is finite on the whole config domain. No
    linewidth enters: chi^-1 = 1 at f_a.
    """
    t, r = amplitudes_on_resonance(config.rho)
    ell = complex(_line_phasor(config, config.f_a_ghz))
    alpha = config.alpha_mag
    if ell == 1.0 and t == 0.0:
        return ScatteringMatrix(_PORTS_4, [[0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    if ell == 1.0 and alpha == 1.0:
        s12 = complex(0.0, config.sin_phi)
        return ScatteringMatrix(_PORTS_4, [[0, s12, 0, 0], [s12.conjugate(), 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    beta2, a_c = coupler_beta2(alpha), alpha * ell
    at2, bc2, loop = _loop_terms(a_c, t)

    k1, k2 = config.quarter_turns
    dk, sk = k1 - k2, k1 + k2
    up, um, w_lo, w_hi = (turn_phasor(k // 2) for k in (dk + 1, dk - 1, 1 - sk, 1 + sk))
    s21 = 1j * (r * bc2 - at2 * config.sin_phi) / loop
    s12 = 1j * (r * bc2 + at2 * config.sin_phi) / loop
    conv = alpha * ((1.0 - ell) * (1.0 + ell) + ell * ell * t**2) / loop
    refl = -r * beta2 / loop

    ra = r * a_c
    a_p, b_p = ra * up + up.conjugate(), up + ra * up.conjugate()
    a_m, b_m = ra * um + um.conjugate(), um + ra * um.conjugate()
    pre = -t * math.sqrt(beta2) / (math.sqrt(2.0) * loop)
    lo, hi = pre * w_lo, pre * w_hi
    s = np.array(
        [
            [0.0, s12, lo * ell * a_p, lo * b_p],
            [s21, 0.0, lo * ell * a_m, lo * b_m],
            [hi * ell * b_m, hi * ell * b_p, refl * ell * ell, conv],
            [hi * a_m, hi * a_p, conv, refl],
        ],
        dtype=complex,
    )
    return ScatteringMatrix(_PORTS_4, s + 0.0)


def _composed(config: JisConfig, t, r_a, r_b, line) -> ScatteringMatrix:
    """The device's 4-port joined by connect(); (B,) arrays give a (B, 4, 4) stack.

    A stage mixer_2port(t, r_a, r_b, k) per stage phase k behind the hybrid,
    and matched_line(line) from stage 1 to the coupler.
    """
    k1, k2 = config.quarter_turns
    elements = {
        "hyb": HYBRID,
        "st1": mixer_2port(t, r_a, r_b, k1),
        "st2": mixer_2port(t, r_a, r_b, k2),
        "line": matched_line(line),
        "cpl": lossy_coupler(config.alpha_mag),
    }
    joints = (
        (("hyb", "1p"), ("st1", "a")),
        (("hyb", "2p"), ("st2", "a")),
        (("st1", "b"), ("line", "1")),
        (("line", "2"), ("cpl", "b1")),
        (("st2", "b"), ("cpl", "b2")),
    )
    external = (("hyb", "1"), ("hyb", "2"), ("cpl", "3"), ("cpl", "4"))
    return ScatteringMatrix(_PORTS_4, connect(ConnectionGraph(elements, joints, external)).s)


def composed_4port(config: JisConfig) -> ScatteringMatrix:
    """closed_form_from_config's 4-port rebuilt by _composed: criterion 4's independent check."""
    t, r = amplitudes_on_resonance(config.rho)
    return _composed(config, t, r, r, _line_phasor(config, config.f_a_ghz))


@dataclass(frozen=True)
class SweepResult:
    """Signal-side response over a frequency grid (GHz in, complex out)."""

    f_ghz: np.ndarray
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray

    @property
    def s22(self) -> np.ndarray:
        """S22, which equals S11 for this symmetric device (the same zero array)."""
        return self.s11


def effective_2port_sweep(config: JisConfig, f_ghz: np.ndarray) -> SweepResult:
    """Frequency response of ports 1 and 2 with the internal line folded in.

    The stages see the signal detuning through their susceptibilities; the
    line gives the loop factor alpha = |alpha| e^{i theta} at the idler
    frequency f1 + f_p (_line_phasor). With conv = alpha t^2 / (1 - r_b^2
    alpha^2) and the reflection refl of one stage seen through the line,
    S21 = i (refl - conv sin phi) and S12 = i (refl + conv sin phi).
    S11 = S22 = -i conv cos phi is an exact zero array, since sin phi is
    exactly +-1 (JisConfig.sin_phi). Raises SingularResponseError if the
    loop 1 - r_b^2 alpha^2 becomes singular on the grid. Given the line's
    float phase, S21 and S12 are within 6 eps / |1 - r_b^2 alpha^2| of the
    model, absolute, over the whole config space; no relative bound holds
    at a null (tests/test_accuracy.py).
    """
    f = np.asarray(f_ghz, dtype=float)
    t, r_a, r_b = amplitudes_of_frequency(f, config.jpc1)
    alpha = config.alpha_mag * _line_phasor(config, f)

    loop = 1.0 - r_b**2 * alpha**2
    if np.min(np.abs(loop)) < _LOOP_SINGULARITY_TOL:
        raise SingularResponseError("internal loop resonance: 1 - r_b^2 alpha^2 vanished")

    refl = r_a - r_b * alpha**2 * t**2 / loop
    conv_sin_phi = config.sin_phi * alpha * t**2 / loop

    return SweepResult(
        f_ghz=f,
        s11=np.zeros(f.shape, dtype=complex),
        s12=1j * (refl + conv_sin_phi),
        s21=1j * (refl - conv_sin_phi),
    )


# Points per sweep chunk. numpy elides temporaries (reuses them in place) on
# arrays of 256 KiB or more, 16,384 complex points, and a grid evaluated in
# smaller pieces differs from one whole-grid call in the last bit of about
# 0.8% of its S12/S21 values. Chunks of at least this many points do not.
SWEEP_CHUNK = 16384


def grid_chunks(points: int) -> list[slice]:
    """Slices that cover a grid of points in chunks of SWEEP_CHUNK points.

    The last chunk also takes any tail shorter than SWEEP_CHUNK, so a grid
    of fewer than 2 SWEEP_CHUNK points is one chunk. Evaluating
    effective_2port_sweep or amplitudes_of_frequency chunk by chunk gives
    the bits of one call on the whole grid.
    """
    count = max(points // SWEEP_CHUNK, 1)
    edges = [k * SWEEP_CHUNK for k in range(count)] + [points]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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
