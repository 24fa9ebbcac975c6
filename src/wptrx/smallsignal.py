"""Small-signal plant model, Bode evaluation, PI design, and loop margins.

Linearizing the averaged model around an operating point (D, f_s*t_f) gives
a single-pole plant from duty to output voltage:

    G(s) = |I| * R * sin(2*pi*D + 2*pi*f_s*t_f) / (R*C_o*s + 1)

On the regulable branch the sine is negative: raising the duty lowers the
output, so the loop is closed with negative proportional and integral
gains.  Choosing k_i = k_p/(R*C_o) places the PI zero exactly on the plant
pole; the open loop collapses to a pure integrator with unity crossover at
the design frequency and an exact 90-degree phase margin.  Margins are
computed analytically from this one-pole-plus-PI structure, never from
sampled curves, so tests carry no grid artifacts.

Two checks re-derive the frequency response from the nonlinear models.
The perturbation oracle drives a small sinusoidal duty through the exact
exponential-segment integrator of the averaged model, from its periodic
state, and takes the first-harmonic ratio of output to input with
closed-form Fourier integrals.  It evaluates the whole grid at once, one
perturbation period at a time, with its complex arithmetic written on
real and imaginary float arrays: numpy's complex * and /, np.exp and
np.sum round differently from the scalar evaluation, and the tables are
kept byte-identical to it.  The switched check evaluates the simulator's
one-cycle map, linearized at its periodic orbit by the simulator's own
``cycle_linearization``, as a sampled-data model; it is the one function
here that needs the simulator, and imports it when called, so the design
and Bode commands never load the simulator.  Every Bode entry point checks
its grid with one helper.
"""

from dataclasses import dataclass
import cmath
import math
from typing import Sequence

import numpy as np

from .analytic import TWO_PI, duty_bounds
from .errors import NoCrossover, NonPositiveParameter, ZeroGainOperatingPoint
from .params import ValidatedParams, require_positive

# |sin| below this means the operating point sits at the voltage maximum
# where the first-order control gain vanishes.
_ZERO_GAIN_TOL = 1e-9

# The oracle's record: whole perturbation periods, each held as this many
# zero-order-hold duty segments.
_ORACLE_PERIODS = 2
_ORACLE_SEGMENTS = 64


@dataclass(frozen=True)
class TransferFunction1P:
    """First-order transfer function dc_gain / (1 + s/w_p); ``dc_gain``
    keeps its sign."""
    dc_gain: float
    pole_hz: float

    def response(self, f_hz: np.ndarray) -> np.ndarray:
        """Complex response at the given frequencies (Hz)."""
        s = 1j * TWO_PI * np.asarray(f_hz, dtype=float)
        return self.dc_gain / (1.0 + s / (TWO_PI * self.pole_hz))


@dataclass(frozen=True)
class PiGains:
    """PI gains with the duty saturation window they were designed for."""
    k_p: float
    k_i: float
    d_min: float
    d_max: float


@dataclass(frozen=True)
class BodePoint:
    f_hz: float
    mag_db: float
    phase_deg: float


def _gain_sine(op) -> float:
    """sin(2*pi*D + 2*pi*f_s*t_f), the operating point's factor of the
    plant gain.  Raises ZeroGainOperatingPoint at the voltage maximum
    (sin = 0), where the output is uncontrollable to first order."""
    s = math.sin(TWO_PI * op.duty + TWO_PI * op.phase_delay_norm)
    if abs(s) < _ZERO_GAIN_TOL:
        raise ZeroGainOperatingPoint(
            f"sin(2*pi*(D + f_s*t_f)) = {s:.3g} at D = {op.duty}; "
            "operating point sits at the output-voltage maximum")
    return s


def plant_tf(params: ValidatedParams, op) -> TransferFunction1P:
    """Duty-to-output small-signal plant at an operating point.

    dc_gain = |I| * R * sin(2*pi*D + 2*pi*f_s*t_f),  pole at 1/(2*pi*R*C_o).
    Raises ZeroGainOperatingPoint at the voltage maximum (sin = 0).
    """
    return TransferFunction1P(
        dc_gain=params.i_ls_amp * params.r_load * _gain_sine(op),
        pole_hz=1.0 / (TWO_PI * params.r_load * params.c_o))


def _check_grid(f_grid: Sequence[float]) -> np.ndarray:
    """The one check of a Bode grid: returns it as a float array, or raises
    NonPositiveParameter unless it is non-empty, finite, > 0 and strictly
    ascending."""
    f = np.asarray(f_grid, dtype=float)
    if not (f.ndim == 1 and f.size > 0 and np.all(np.isfinite(f))
            and f[0] > 0.0 and np.all(np.diff(f) > 0.0)):
        raise NonPositiveParameter(
            "f_grid", f_grid, "non-empty, finite, > 0 and strictly ascending")
    return f


def bode(tf: TransferFunction1P, f_grid: Sequence[float]) -> list:
    """Magnitude/phase table of a TransferFunction1P.

    Phase is continuous by construction: a negative dc gain contributes
    -180 degrees (not +180), and the pole rolls off another 90.  The plant
    therefore spans -180 to -270 degrees.
    """
    f = _check_grid(f_grid)
    mag_db = (20.0 * np.log10(abs(tf.dc_gain))
              - 10.0 * np.log10(1.0 + (f / tf.pole_hz) ** 2))
    phase = (-180.0 if tf.dc_gain < 0 else 0.0) \
        - np.degrees(np.arctan(f / tf.pole_hz))
    return [BodePoint(float(fi), float(m), float(p))
            for fi, m, p in zip(f, mag_db, phase)]


def design_pi(params: ValidatedParams, op, f_c: float) -> PiGains:
    """PI gains for a crossover at f_c with pole-zero cancellation.

    k_p = 2*pi*f_c*C_o / (|I| * sin(2*pi*D + 2*pi*f_s*t_f)),
    k_i = k_p / (R*C_o).  Saturation bounds come from the admissible duty
    window at the operating point's phase delay.  Raises
    ZeroGainOperatingPoint at the voltage maximum (sin = 0).
    """
    require_positive(f_c=f_c)
    k_p = TWO_PI * f_c * params.c_o / (params.i_ls_amp * _gain_sine(op))
    k_i = k_p / (params.r_load * params.c_o)
    d_min, d_max = duty_bounds(op.phase_delay_norm)
    return PiGains(k_p=k_p, k_i=k_i, d_min=d_min, d_max=d_max)


def loop_response(plant: TransferFunction1P, gains: PiGains,
                  f_grid: Sequence[float]) -> tuple:
    """Open-loop L(jw) and closed-loop L/(1+L) over a frequency grid."""
    f = np.asarray(f_grid, dtype=float)
    s = 1j * TWO_PI * f
    L = plant.response(f) * (gains.k_p + gains.k_i / s)
    return L, L / (1.0 + L)


def bode_points(f_grid: Sequence[float], h: np.ndarray) -> list:
    """BodePoint table from complex values, unwrapped, with negative real
    gains starting at -180 degrees."""
    f = np.asarray(f_grid, dtype=float)
    mag_db = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(np.unwrap(np.angle(h)))
    if phase[0] > 1e-9:
        phase = phase - 360.0
    return [BodePoint(float(fi), float(m), float(p))
            for fi, m, p in zip(f, mag_db, phase)]


def loop_margins(plant: TransferFunction1P, gains: PiGains) -> tuple:
    """Crossover frequency, phase margin, and 10-Hz loop gain.

    The unity-gain condition for a one-pole plant with a PI controller is a
    quadratic in omega^2, solved in closed form:

        (R*C_o)^2 x^2 + (1 - g^2 k_p^2) x - g^2 k_i^2 = 0,  x = omega^2.

    Returns (crossover_hz, phase_margin_deg, gain_db_at_10hz).  Raises
    NoCrossover when |L| never reaches unity (e.g. both gains zero).
    """
    g = plant.dc_gain
    rc = 1.0 / (TWO_PI * plant.pole_hz)
    kp2 = (g * gains.k_p) ** 2
    ki2 = (g * gains.k_i) ** 2
    if ki2 == 0.0:
        if kp2 <= 1.0:
            raise NoCrossover("loop gain never reaches unity")
        x = (kp2 - 1.0) / (rc * rc)
    else:
        b = 1.0 - kp2
        disc = b * b + 4.0 * rc * rc * ki2
        x = (-b + math.sqrt(disc)) / (2.0 * rc * rc)
    if x <= 0.0:
        raise NoCrossover("loop gain never reaches unity")
    w_c = math.sqrt(x)

    def loop_at(w: float) -> complex:
        return (g / (1.0 + 1j * w * rc)) * (gains.k_p + gains.k_i / (1j * w))

    phi = math.degrees(cmath.phase(loop_at(w_c)))
    if phi > 1e-12:
        phi -= 360.0
    pm = 180.0 + phi
    gain10 = 20.0 * math.log10(abs(loop_at(TWO_PI * 10.0)))
    return (w_c / TWO_PI, pm, gain10)


# ---------------------------------------------------------------------------
# Frequency response measured on the averaged and the switched models.
# ---------------------------------------------------------------------------

def _cmul(ar, ai, br, bi) -> tuple:
    """(ar + j*ai)*(br + j*bi) on real and imaginary parts, in CPython's
    operation order (a float operand is the complex (x, 0))."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi) -> tuple:
    """(ar + j*ai)/(br + j*bi) on real and imaginary parts, by CPython's
    scaled quotient, which divides through by the larger of |br| and |bi|.
    Its two branches, ((ar + ai*r), (ai - ar*r)) and ((ar*r + ai),
    (ai*r - ar)), are one expression with the factors (1, r) or (r, 1):
    a product with 1.0 is exact, so only the divisor's arrays branch."""
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    m1, m2 = np.where(by_real, 1.0, ratio), np.where(by_real, ratio, 1.0)
    return (ar * m1 + ai * m2) / denom, (ai * m1 - ar * m2) / denom


def perturb_bode_oracle(params: ValidatedParams, op, f_grid: Sequence[float],
                        rel_amp: float = 1e-3) -> list:
    """Frequency response extracted from the nonlinear averaged model.

    For each frequency a duty perturbation D*(rel_amp)*sin(2*pi*f*t) rides
    on the operating duty with the phase delay pinned at the operating
    point's value.  The model is advanced with exact exponential segments;
    the response starts on the exact periodic orbit (the one-period state
    map is affine, so its fixed point is available in closed form), and the
    first-harmonic gain/phase is the ratio of closed-form Fourier integrals
    of output and input over an integer number of periods.

    The whole grid is evaluated at once, one perturbation period at a
    time: (frequency x segment) arrays, with the zero-order-hold recurrence
    stepped segment by segment over all frequencies.  The arithmetic
    repeats the scalar complex evaluation bit for bit, so the tables stay
    byte-identical: the complex products and quotients are written on real
    and imaginary float arrays in CPython's order (numpy's complex * and /
    round differently), the per-frequency decays come from math.exp (np.exp
    does not always match it), and each period's terms are summed in
    sequence with cumsum (np.sum adds pairwise).  Raises
    NonPositiveParameter for a grid that is empty, non-finite, not > 0 or
    not ascending, and for rel_amp outside (0, 1).
    """
    f = _check_grid(f_grid)
    require_positive(below=1.0, rel_amp=rel_amp)
    d_bar = op.duty
    d_tilde = rel_amp * d_bar
    phi = TWO_PI * op.phase_delay_norm
    tau = params.r_load * params.c_o
    # steady_state_vo over arrays of duty, in its own operation order
    v_scale = params.i_ls_amp * params.r_load / TWO_PI
    cos_phi = math.cos(phi)

    w = TWO_PI * f
    t_per = 1.0 / f
    t_seg = t_per / _ORACLE_SEGMENTS
    a_seg = np.array([math.exp(-t / tau) for t in t_seg.tolist()])
    a_per = np.array([math.exp(-t / tau) for t in t_per.tolist()])
    # 1 - exp(-t_seg*c) with c = 1/tau + j*w, one complex per frequency
    c_re = 1.0 / tau
    g = np.array([1.0 - cmath.exp(-t * complex(c_re, wi))
                  for t, wi in zip(t_seg.tolist(), w.tolist())])
    # frequencies down the rows, segments along them
    w, t_seg, g_re, g_im = (x[:, None] for x in (w, t_seg, g.real, g.imag))
    k = np.arange(_ORACLE_SEGMENTS, dtype=float)

    def period(t0):
        """Segment starts t_k, duties and v_inf of the period from t0."""
        tk = t0 + k * t_seg
        duty = d_bar + d_tilde * np.sin(w * tk)
        return tk, duty, v_scale * (cos_phi - np.cos(TWO_PI * duty + phi))

    def ramp(v, v_inf):
        """Step the ZOH recurrence over one period; returns the state at
        the start of each segment and the end state."""
        starts = np.empty_like(v_inf)
        for j in range(_ORACLE_SEGMENTS):
            starts[:, j] = v
            v = v_inf[:, j] + (v - v_inf[:, j]) * a_seg
        return starts, v

    def fourier(tk, duty, v_inf, starts):
        """The period's closed-form Fourier sums (Re U1, Im U1, Re Y1,
        Im Y1), each segment's term added in order.  Each (frequency x
        segment) temporary is released once used: together they set the
        oracle's peak memory."""
        th = -w * tk
        e0_re, e0_im = np.cos(th), np.sin(th)
        th = -w * (tk + t_seg)
        # integral of e^{-jwt} over the segment: (e0 - e1)/(jw)
        box = _cdiv(e0_re - np.cos(th), e0_im - np.sin(th), 0.0, w)
        del th
        # Y1's term is v_inf*box + tail, tail = (v - v_inf)*e0*g/c
        tail = _cdiv(
            *_cmul(*_cmul(starts - v_inf, 0.0, e0_re, e0_im), g_re, g_im),
            c_re, w)
        del e0_re, e0_im
        head = _cmul(v_inf, 0.0, *box)
        y1 = [np.cumsum(a + b, axis=1)[:, -1] for a, b in zip(head, tail)]
        del head, tail
        u1 = [np.cumsum(a, axis=1)[:, -1] for a in _cmul(duty, 0.0, *box)]
        return np.array(u1 + y1)

    drive = period(0.0)
    # Fixed point of the affine one-period map v -> a*v + b, b from v = 0.
    _, b_per = ramp(np.zeros(len(f)), drive[2])
    v = b_per / (1.0 - a_per)
    sums = np.zeros((4, len(f)))
    for p in range(_ORACLE_PERIODS):
        if p:
            drive = period(p * t_per[:, None])
        starts, v = ramp(v, drive[2])
        sums += fourier(*drive, starts)
    h = [complex(yr, yi) / complex(ur, ui)
         for ur, ui, yr, yi in zip(*sums.tolist())]
    return bode_points(f, np.array(h))


def switched_bode(params: ValidatedParams, op,
                  f_grid: Sequence[float]) -> list:
    """Frequency response of the switched simulator from its one-cycle map
    linearized at the periodic orbit of (op.duty, op.t_f) by
    ``simulator.cycle_linearization``, evaluated as C (zI - A)^-1 B + D at
    z = exp(j*2*pi*f*T_s).  Raises ZeroGainOperatingPoint where the duty
    does not move the map.  Raises NonPositiveParameter for a grid that is
    empty, non-finite, not > 0 or not ascending."""
    from .simulator import (ModulationCommand, cycle_linearization,
                            periodic_steady_state)
    f = _check_grid(f_grid)
    cmd = ModulationCommand(op.duty, op.t_f)
    orbit = periodic_steady_state(params, cmd)
    a, b, c, d, _ = cycle_linearization(params, cmd, orbit.state)
    z = np.exp(1j * TWO_PI * params.t_period * f)
    h = [c @ np.linalg.solve(zk * np.eye(2) - a, b) + d for zk in z]
    return bode_points(f, np.array(h))
