"""Closed-form commutation timing, duty limits, and steady-state output.

All expressions live on one switching period of the sinusoidal coil current
i(t) = |I_Ls| sin(2*pi*f_s*t), with t = 0 at the positive-going zero
crossing.  The controlled switch turns on a delay t_f after that crossing
(once its parallel capacitance has discharged) and conducts for D*T_s.

Derivation notes
----------------
* Fall interval: with both devices off the node capacitance C_sum = C_S1 +
  C_D1 integrates the coil current, so the switch voltage reaches zero when
  (|I|/(omega*C_sum)) * (1 - cos(omega*t_f)) = v_o.  Expanding the cosine to
  second order yields the familiar square-root approximation
  t_f ~ sqrt(C_sum*v_o / (pi*f_s*|I|)); the exact value is the smallest
  positive root of the cosine equation and is always slightly *larger* than
  the approximation (1 - cos x <= x^2/2).
* Rise interval: after turn-off the node discharges in the negative current
  half-cycle.  Charge balance gives cos(omega*t_end) = cos(2*pi*(D+f_s*t_f))
  + omega*C_sum*v_o/|I|; the end angle lies in (pi, 2*pi), hence
  omega*t_end = 2*pi - arccos(...), which reproduces the closed form for t_r
  exactly.
* Averaging the delivered current over the conduction window and balancing
  it against the load yields
  v_o = |I|*R/(2*pi) * (cos(2*pi*f_s*t_f) - cos(2*pi*D + 2*pi*f_s*t_f)),
  maximized at D = 1/2 - f_s*t_f.
"""

from dataclasses import dataclass
import math

from .errors import (ArccosDomain, CommutationImpossible, DutyOutOfBounds,
                     EmptyDutyRange, NoConvergence, NonPositiveParameter)
from .params import ValidatedParams

TWO_PI = 2.0 * math.pi

# solve_operating_point convergence threshold on successive v_o values (V).
V_FIXED_POINT_TOL = 1e-6
_MAX_FIXED_POINT_ITER = 100


@dataclass(frozen=True)
class OperatingPoint:
    """A self-consistent (duty, fall-time, output-voltage) triple.

    phase_delay_norm is the dimensionless delay f_s * t_f.  ``regulable``
    records whether the duty lies inside the admissible window at this
    delay; points outside are still representable (full-axis curve sweeps).
    """

    duty: float
    t_f: float
    v_o: float
    phase_delay_norm: float
    regulable: bool = True

    @classmethod
    def pinned(cls, duty: float, phase_delay_norm: float, f_s: float,
               v_o: float = float("nan")) -> "OperatingPoint":
        """Operating point with an externally imposed phase delay."""
        lo, hi = duty_bounds(phase_delay_norm)
        return cls(duty=duty, t_f=phase_delay_norm / f_s, v_o=v_o,
                   phase_delay_norm=phase_delay_norm,
                   regulable=lo <= duty <= hi)


def input_current(t: float, params: ValidatedParams) -> float:
    """Coil current i(t) = |I_Ls| sin(2*pi*f_s*t) (A)."""
    return params.i_ls_amp * math.sin(params.omega * t)


def fall_time_approx(params: ValidatedParams, v_o: float) -> float:
    """Small-angle estimate of the switch-voltage fall interval (s)."""
    if v_o < 0:
        raise NonPositiveParameter("v_o", v_o)
    if v_o == 0.0:
        return 0.0
    return math.sqrt(params.c_sum * v_o / (math.pi * params.f_s * params.i_ls_amp))


def fall_time_exact(params: ValidatedParams, v_o: float) -> float:
    """Exact fall interval: smallest positive root of
    1 - cos(omega*t) = omega*C_sum*v_o/|I| (s).

    With 1 - cos(x) = 2*sin(x/2)^2 the root is closed-form,
    t = 2*asin(sqrt(c/2))/omega with c = omega*C_sum*v_o/|I|, and stays
    accurate for the small angles of interest, where arccos(1 - c) loses
    digits.  Raises CommutationImpossible when c exceeds 2 (the current
    cannot swing the node across v_o, so zero-voltage turn-on is
    unreachable at this point).
    """
    if v_o < 0:
        raise NonPositiveParameter("v_o", v_o)
    if v_o == 0.0:
        return 0.0
    c = params.omega * params.c_sum * v_o / params.i_ls_amp
    if c > 2.0:
        raise CommutationImpossible(
            f"omega*C_sum*v_o/|I| = {c:.4g} > 2; node swing cannot reach v_o")
    return 2.0 * math.asin(math.sqrt(0.5 * c)) / params.omega


def duty_bounds(phase_delay_norm: float) -> tuple:
    """Admissible duty window (1/2 - f_s*t_f, 1 - 2*f_s*t_f).

    Requires 0 <= phase_delay_norm < 1/4; beyond that the window collapses
    and EmptyDutyRange is raised.
    """
    x = phase_delay_norm
    if not (0.0 <= x < 0.25):
        raise EmptyDutyRange(f"phase delay f_s*t_f = {x!r} outside [0, 0.25)")
    return (0.5 - x, 1.0 - 2.0 * x)


def optimal_duty(phase_delay_norm: float) -> float:
    """Duty maximizing the output voltage: 1/2 - f_s*t_f."""
    duty_bounds(phase_delay_norm)  # same domain check
    return 0.5 - phase_delay_norm


def steady_state_vo(i_ls_amp: float, r_load: float, duty: float,
                    phase_delay_norm: float) -> float:
    """Averaged steady-state output voltage (V).

    Evaluates |I|*R/(2*pi) * (cos(2*pi*f_s*t_f) - cos(2*pi*D + 2*pi*f_s*t_f))
    for any duty in (0, 1); out-of-window duties are allowed so full-axis
    curves can be drawn (the regulable verdict lives on OperatingPoint).
    """
    phi = TWO_PI * phase_delay_norm
    return i_ls_amp * r_load / TWO_PI * (
        math.cos(phi) - math.cos(TWO_PI * duty + phi))


def resonant_cap_voltage_drop(i_ls_amp: float, r_load: float,
                              phase_delay_norm: float) -> float:
    """Reduction of the peak achievable output caused by the commutation
    capacitances (V).

    Difference between the ideal-switch maximum |I|*R/pi (zero delay,
    D = 1/2) and the maximum with delay (D = 1/2 - f_s*t_f), both read off
    the steady-state relation: |I|*R/(2*pi) * (1 - cos(2*pi*f_s*t_f)).
    """
    if i_ls_amp < 0:
        raise NonPositiveParameter("i_ls_amp", i_ls_amp)
    if r_load <= 0:
        raise NonPositiveParameter("r_load", r_load)
    return i_ls_amp * r_load / TWO_PI * (
        1.0 - math.cos(TWO_PI * phase_delay_norm))


def rise_time(params: ValidatedParams, op: OperatingPoint) -> float:
    """Diode-side commutation interval after switch turn-off (s).

    t_r = (1-D)/f_s - t_f - arccos(cos(2*pi*(D + f_s*t_f))
          + omega*C_sum*v_o/|I|) / (2*pi*f_s)

    Raises ArccosDomain when the argument leaves [-1, 1] (the negative
    half-cycle no longer carries enough charge; the diode never starts
    conducting) and DutyOutOfBounds when the duty is outside the admissible
    window for the operating point's phase delay.
    """
    lo, hi = duty_bounds(op.phase_delay_norm)
    if not (lo <= op.duty <= hi):
        raise DutyOutOfBounds(
            f"duty {op.duty} outside [{lo:.6g}, {hi:.6g}] at "
            f"f_s*t_f = {op.phase_delay_norm:.6g}")
    arg = (math.cos(TWO_PI * (op.duty + op.phase_delay_norm))
           + params.omega * params.c_sum * op.v_o / params.i_ls_amp)
    if arg > 1.0 or arg < -1.0:
        raise ArccosDomain(
            f"arccos argument {arg:.6g} outside [-1, 1]; diode cannot "
            "commutate at this operating point")
    return ((1.0 - op.duty) / params.f_s - op.t_f
            - math.acos(arg) / (TWO_PI * params.f_s))


def phase_angle(duty: float, phase_delay_norm: float) -> float:
    """Gate phase relative to the current zero crossing (rad, in [0, 2*pi)).

    phi = 2*pi*f_s*t_f + D*pi: the centre of the on-pulse expressed as a
    phase shift, which is how a centre-aligned PWM peripheral realizes the
    hybrid modulation.
    """
    return (TWO_PI * phase_delay_norm + duty * math.pi) % TWO_PI


def solve_operating_point(params: ValidatedParams, duty: float,
                          exact: bool = False) -> OperatingPoint:
    """Self-consistent operating point at a given duty.

    The fall time depends on v_o and v_o depends (through the conduction
    window) on the fall time, so the pair is iterated to a fixed point:
    t_f <- fall-time(v_o), v_o <- steady-state(D, f_s*t_f), until v_o moves
    by less than V_FIXED_POINT_TOL.

    By default the approximate (square-root) fall time is used, matching
    what the feedforward path of the controller computes; ``exact=True``
    switches to the cosine-equation root for oracle comparisons.

    Raises NoConvergence after 100 iterations and propagates
    CommutationImpossible from the exact solver.
    """
    if not (0.0 < duty < 1.0):
        raise DutyOutOfBounds(f"duty {duty!r} outside (0, 1)")
    if params.i_ls_amp == 0.0:
        return OperatingPoint(duty=duty, t_f=0.0, v_o=0.0,
                              phase_delay_norm=0.0, regulable=False)
    fall = fall_time_exact if exact else fall_time_approx
    v = steady_state_vo(params.i_ls_amp, params.r_load, duty, 0.0)
    v = max(v, 0.0)
    t_f = 0.0
    for _ in range(_MAX_FIXED_POINT_ITER):
        t_f = fall(params, v)
        fst = params.f_s * t_f
        v_new = steady_state_vo(params.i_ls_amp, params.r_load, duty, fst)
        if abs(v_new - v) < V_FIXED_POINT_TOL:
            v = v_new
            break
        # half-step damping keeps the iteration contracting
        v = 0.5 * (v + v_new)
        if v < 0.0:
            v = 0.0
    else:
        raise NoConvergence(
            f"operating point at D={duty} did not settle within "
            f"{_MAX_FIXED_POINT_ITER} iterations")
    t_f = fall(params, max(v, 0.0))
    fst = params.f_s * t_f
    try:
        lo, hi = duty_bounds(fst)
        regulable = lo <= duty <= hi
    except EmptyDutyRange:
        regulable = False
    return OperatingPoint(duty=duty, t_f=t_f, v_o=v, phase_delay_norm=fst,
                          regulable=regulable)


def duty_for_target_vo(i_ls_amp: float, r_load: float, v_o: float,
                       phase_delay_norm: float) -> float:
    """Duty on the regulable (decreasing) branch that yields v_o.

    Inverts the steady-state relation: cos(2*pi*D + phi) = cos(phi)
    - 2*pi*v_o/(|I|*R) with 2*pi*D + phi taken in (pi, 2*pi).  Raises
    ArccosDomain when the target exceeds the achievable maximum.
    """
    phi = TWO_PI * phase_delay_norm
    c = math.cos(phi) - TWO_PI * v_o / (i_ls_amp * r_load)
    if c < -1.0 or c > 1.0:
        raise ArccosDomain(
            f"target {v_o} V unreachable: cos term {c:.6g} outside [-1, 1]")
    theta = TWO_PI - math.acos(c)
    return (theta - phi) / TWO_PI

