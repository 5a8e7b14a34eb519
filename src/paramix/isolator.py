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
flux parity, so sin phi = +-1 and cos phi = 0 exactly: the sweep kernel
and the 4-port write S11 = S22 as exact zeros. The delay line enters as its
phasor at f + f_p (_line). The signal block (refl, conv, L) is written once,
_signal_block, its loop denominator a sum with no cancelling term; with no
line it is the forward model the fit inverts (on_resonance_amplitudes and
_powers), and swap_twin gives the point of equal powers. _device evaluates
it with the line, for the sweep kernel on its grid and the 4-port at f_a;
_transmissions forms S21 and S12 for both. Nothing here raises on a valid
config. _composed joins the device's elements (stages mixer_2port
and a matched delay line) into the network that checks both: composed_4port
at f_a, and the tests' sweep oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mixer import (
    JpcParams,
    RHO_5050,
    mixer_2port,
    n_g,
    reflections,
    rho_of_r,
    susceptibilities,
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
        return (k1 - k2) * (np.pi / 2.0)

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


def _line(config: JisConfig, f_ghz):
    """(l, 1 - l) of the delay line at signal frequency f: l = e^{i theta}, theta its phase at f + f_p.

    1 - l = 2 sin^2(theta/2) - i sin theta keeps its digits as theta -> 0; an overflowing theta gives NaN.
    """
    theta = delay_phase_rad(config.delay_length_um, config.delay_eps_eff, f_ghz + config.f_p_ghz)
    ell = np.exp(1j * theta)
    return ell, 2.0 * np.sin(theta / 2.0) ** 2 - 1j * ell.imag


def _signal_block(ca, cb, den, rho, alpha_mag, ell, one_minus_ell):
    """(refl, conv, L) of the device's signal ports: S21, S12 = i (refl -+ conv sin phi).

    From a stage's terms (ca, cb, D) (mixer.susceptibilities), alpha = |alpha| l
    and 1 - alpha = (1 - |alpha|) + |alpha| (1 - l): L = 1 - r_b^2 alpha^2 is the
    sum (1 - alpha)(1 + alpha) + alpha^2 (1 - r_b^2), 1 - r_b^2 = 4 ca (rho^2 +
    u ca) / D^2 with u = cb - 1 = -iy, so no term cancels; conv = alpha t^2 / L,
    alpha t^2 = 4 rho^2 alpha / D^2 a term of L too, so its rounding cancels
    as |alpha| -> 1; refl = r_a - r_b alpha conv. Where L is below the smallest
    normal float, whose reciprocal numpy's complex division overflows (f_a,
    |alpha| = 1, theta 0 or subnormal, rho < 4e-155), L is 0 and (refl,
    conv) the corner's limits: the pump off is transparent, (r_a, 0), and
    any rho > 0 couples the line fully, (0, 1). Broadcasts, no range check.
    """
    r_a, r_b = reflections(ca, cb, den, rho)
    alpha, u, d2 = alpha_mag * ell, cb - 1.0, den * den
    minus, plus, at2 = (1.0 - alpha_mag) + alpha_mag * one_minus_ell, 1.0 + alpha, 4.0 * rho**2 * alpha / d2
    # a temporary is the first factor of each product: numpy reuses a
    # temporary of 16,384 or more complex points in place and may then swap
    # a product's factors, whose fused complex rounding is not symmetric
    loop = minus * plus + alpha * 4.0 * (rho**2 + u * ca) / d2 * alpha * ca
    cut = abs(loop) < 2.0**-1022
    conv = (at2 + cut * (rho != 0.0)) / (loop + cut)
    return r_a - r_b * alpha * conv, conv, loop * (1 - cut)


def _device(config: JisConfig, f_ghz):
    """(l, 1 - l, refl, conv, L) at signal frequencies f: _line and _signal_block, the pump off included."""
    line = _line(config, f_ghz)
    return (*line, *_signal_block(*susceptibilities(f_ghz, config.jpc1), config.rho, config.alpha_mag, *line))


def _transmissions(config: JisConfig, refl, conv):
    """(S21, S12) = i (refl -+ conv sin phi) of _signal_block's (refl, conv)."""
    return 1j * (refl - conv * config.sin_phi), 1j * (refl + conv * config.sin_phi)


def on_resonance_amplitudes(rho, alpha):
    """(refl, conv) of _signal_block at f_a (chi^-1 = 1) with no line: the fit's forward model."""
    return _signal_block(1.0, 1.0, 1.0 + rho**2, rho, alpha, 1.0, 0.0)[:2]


def on_resonance_powers(rho, alpha, sin_phi: int):
    """(|S21|^2, |S12|^2) of on_resonance_amplitudes; sin_phi is the feed's exact +-1 (feed_sin_phi)."""
    refl, conv = on_resonance_amplitudes(rho, alpha)
    return (refl - conv * sin_phi) ** 2, (refl + conv * sin_phi) ** 2


def swap_twin(rho, alpha):
    """(rho_of_r(|alpha|), r): exchanging r and a exchanges refl and conv, so the powers hold."""
    return rho_of_r(alpha), t_r_of_rho(rho)[1]


def closed_form_from_config(config: JisConfig) -> ScatteringMatrix:
    """The device's 4-port at f = f_a in closed form, its delay line included.

    S21 and S12 of _device on the one-point grid f_a (_transmissions), the
    sweep's bits. The taps take (t, r) from rho as a float (t_r_of_rho; an
    np.float64 rho would give numpy scalars, which round the taps' complex
    products differently), (l, 1 - l, L) from _device and beta^2 = 1 -
    |alpha|^2 (coupler_beta2): S33 = -r beta^2 l^2 / L, S44 = -r beta^2 / L,
    S34 = S43 = |alpha| (1 - l)(1 + l) / L + l conv, and the cross entries t
    beta / (sqrt2 L), times l on port 3's row and column. k1 -+ k2 are odd,
    so sin phi = +-1, S11 = S22 are exact zeros and the half phases whole
    quarter turns; with no line the other model zeros are exact too (-0.0 is
    written 0.0). Where L is 0 (no line, |alpha| = 1 and rho = 0 or tiny) the
    taps see each other only, S33 = S44 = -refl and S34 = S43 = conv, so the
    4-port is finite everywhere.
    """
    (t, r), alpha = t_r_of_rho(float(config.rho)), config.alpha_mag
    ell, one_minus_ell, refl, conv, loop = (complex(x[0]) for x in _device(config, np.array([config.f_a_ghz])))
    s21, s12 = _transmissions(config, refl, conv)
    if loop == 0.0:
        s = np.array([[0.0, s12, 0.0, 0.0], [s21, 0.0, 0.0, 0.0], [0.0, 0.0, -refl, conv], [0.0, 0.0, conv, -refl]])
        return ScatteringMatrix(_PORTS_4, s + 0.0)
    beta2, (k1, k2) = coupler_beta2(alpha), config.quarter_turns
    dk, sk = k1 - k2, k1 + k2
    up, um, w_lo, w_hi = (turn_phasor(k // 2) for k in (dk + 1, dk - 1, 1 - sk, 1 + sk))
    s34, s44 = alpha * one_minus_ell * (1.0 + ell) / loop + ell * conv, -r * beta2 / loop
    ra = r * (alpha * ell)
    a_p, b_p = ra * up + up.conjugate(), up + ra * up.conjugate()
    a_m, b_m = ra * um + um.conjugate(), um + ra * um.conjugate()
    pre = -t * math.sqrt(beta2) / (math.sqrt(2.0) * loop)
    lo, hi = pre * w_lo, pre * w_hi
    s = np.array(
        [
            [0.0, s12, lo * ell * a_p, lo * b_p],
            [s21, 0.0, lo * ell * a_m, lo * b_m],
            [hi * ell * b_m, hi * ell * b_p, s44 * ell * ell, s34],
            [hi * a_m, hi * a_p, s34, s44],
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
    t, r = t_r_of_rho(config.rho)
    return _composed(config, t, r, r, _line(config, config.f_a_ghz)[0])


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

    With (refl, conv) of _device on the grid, its loop factor alpha = |alpha|
    e^{i theta} taken at the idler frequency f + f_p (_line): S21, S12 = i
    (refl -+ conv sin phi) (_transmissions), at f_a the 4-port's bits, and
    S11 = S22 an exact zero array (sin phi = +-1 exactly). The pump off (rho
    = 0) gives S21 = S12 = i r_a. Nothing raises: the loop denominator has no
    zero for rho > 0, and an input that overflows gives NaN. Given the line's
    float phase, S21 and S12 are within 6 eps of the model with no line and
    6 eps / |L| with one, absolute; no relative bound holds at a null.
    """
    f = np.asarray(f_ghz, dtype=float)
    s21, s12 = _transmissions(config, *_device(config, f)[2:4])
    return SweepResult(f, np.zeros(f.shape, dtype=complex), s12, s21)


# Most points the commands evaluate in one kernel call: a memory bound. Each
# complex temporary of a chunk is 256 KiB, however large the grid; the
# kernel's bits do not depend on the chunk size.
SWEEP_CHUNK = 16384


def grid_chunks(points: int) -> list[slice]:
    """Slices of at most SWEEP_CHUNK points that cover a grid of points, in order.

    A grid of 0 points is one empty slice. Evaluating effective_2port_sweep
    or amplitudes_of_frequency chunk by chunk gives the bits of one call on
    the whole grid.
    """
    return [slice(a, min(a + SWEEP_CHUNK, points)) for a in range(0, max(points, 1), SWEEP_CHUNK)]


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
