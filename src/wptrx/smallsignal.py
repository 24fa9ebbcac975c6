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
closed-form Fourier integrals.  The switched check linearizes the
simulator's one-cycle map at its periodic orbit into a sampled-data model.
"""

from dataclasses import dataclass
import cmath
import functools
import math
from typing import Sequence

import numpy as np

from .analytic import TWO_PI, duty_bounds, steady_state_vo
from .errors import NoCrossover, NonPositiveParameter, ZeroGainOperatingPoint
from .params import ValidatedParams, require_positive
from .simulator import (CYCLE_FD_STEP, ModulationCommand, cycle_jacobian,
                        cycle_residual, periodic_steady_state)

# |sin| below this means the operating point sits at the voltage maximum
# where the first-order control gain vanishes.
_ZERO_GAIN_TOL = 1e-9

# The oracle's record: whole perturbation periods, each held as this many
# zero-order-hold duty segments.
_ORACLE_PERIODS = 2
_ORACLE_SEGMENTS = 64

# switched_bode's duty step: it moves only the gate-off edge, never a
# located event, so it can be small.
_DUTY_FD_STEP = 1e-5


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


def bode(tf: TransferFunction1P, f_grid: Sequence[float]) -> list:
    """Magnitude/phase table of a TransferFunction1P.

    Phase is continuous by construction: a negative dc gain contributes
    -180 degrees (not +180), and the pole rolls off another 90.  The plant
    therefore spans -180 to -270 degrees.
    """
    f = np.asarray(f_grid, dtype=float)
    if len(f) == 0 or np.any(f <= 0) or np.any(np.diff(f) <= 0):
        raise NonPositiveParameter("f_grid (ascending, positive)", 0.0)
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

def _cycle_run(v0: float, d_bar: float, d_tilde: float, fst: float,
               w_pert: float, t0: float, t_seg: float,
               params: ValidatedParams, accumulate: bool) -> tuple:
    """Advance one perturbation period of _ORACLE_SEGMENTS ZOH segments.

    Returns (v_end, U1, Y1): the endpoint and, when ``accumulate``, the
    closed-form Fourier integrals of the duty input and the voltage
    response at the perturbation frequency.
    """
    tau = params.r_load * params.c_o
    a_seg = math.exp(-t_seg / tau)
    c = 1.0 / tau + 1j * w_pert
    u1 = 0.0 + 0.0j
    y1 = 0.0 + 0.0j
    v = v0
    for k in range(_ORACLE_SEGMENTS):
        tk = t0 + k * t_seg
        duty = d_bar + d_tilde * math.sin(w_pert * tk)
        v_inf = steady_state_vo(params.i_ls_amp, params.r_load, duty, fst)
        if accumulate:
            e0 = cmath.exp(-1j * w_pert * tk)
            e1 = cmath.exp(-1j * w_pert * (tk + t_seg))
            box = (e0 - e1) / (1j * w_pert)       # integral of e^{-jwt}
            u1 += duty * box
            y1 += v_inf * box + (v - v_inf) * e0 * (1.0 - cmath.exp(-t_seg * c)) / c
        v = v_inf + (v - v_inf) * a_seg
    return v, u1, y1


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
    """
    d_bar = op.duty
    d_tilde = rel_amp * d_bar
    fst = op.phase_delay_norm
    tau = params.r_load * params.c_o
    h = np.empty(len(f_grid), dtype=complex)
    for i, f in enumerate(f_grid):
        w = TWO_PI * f
        t_per = 1.0 / f
        t_seg = t_per / _ORACLE_SEGMENTS
        # Fixed point of the affine one-period map v -> a*v + b.
        a_per = math.exp(-t_per / tau)
        b_per, _, _ = _cycle_run(0.0, d_bar, d_tilde, fst, w, 0.0,
                                 t_seg, params, accumulate=False)
        v_star = b_per / (1.0 - a_per)
        u1 = 0.0 + 0.0j
        y1 = 0.0 + 0.0j
        v = v_star
        for p in range(_ORACLE_PERIODS):
            v, du, dy = _cycle_run(v, d_bar, d_tilde, fst, w, p * t_per,
                                   t_seg, params, accumulate=True)
            u1 += du
            y1 += dy
        h[i] = y1 / u1
    return bode_points(f_grid, h)


def switched_bode(params: ValidatedParams, op,
                  f_grid: Sequence[float]) -> list:
    """Frequency response of the switched simulator from its one-cycle map
    linearized at the periodic orbit of (op.duty, op.t_f): x_{n+1} =
    A x_n + B d_n and y_n = C x_n + D d_n, with x = (v_o, v_cd1), d_n the
    duty held over cycle n and y_n the mean of cycle n (Verghese, Elbuluk
    & Kassakian, IEEE Trans. Power Electron. 1986), evaluated as
    C (zI - A)^-1 B + D at z = exp(j*2*pi*f*T_s).  Raises
    ZeroGainOperatingPoint where the duty does not move the map."""
    cmd = ModulationCommand(op.duty, op.t_f)
    orbit = periodic_steady_state(params, cmd, steady_state_vo(
        params.i_ls_amp, params.r_load, op.duty, op.phase_delay_norm))
    x = (orbit.state.v_o, orbit.state.v_cd1)
    residual = functools.partial(cycle_residual, params, cmd)
    r = residual(x)
    h_v = CYCLE_FD_STEP * max(abs(x[0]), 1.0)
    jac = np.array(cycle_jacobian(residual, x, r, h_v)).T  # rows: A - I, C
    r_d = cycle_residual(params, ModulationCommand(op.duty + _DUTY_FD_STEP,
                                                   op.t_f), x)
    col_d = [(p - q) / _DUTY_FD_STEP for p, q in zip(r_d, r)]  # B, then D
    if not any(col_d):
        raise ZeroGainOperatingPoint(
            f"the duty does not move the cycle map at D = {op.duty}")
    a = jac[:2] + np.eye(2)
    z = np.exp(1j * TWO_PI * params.t_period * np.asarray(f_grid, float))
    h = [jac[2] @ np.linalg.solve(zk * np.eye(2) - a, col_d[:2]) + col_d[2]
         for zk in z]
    return bode_points(f_grid, np.array(h))
