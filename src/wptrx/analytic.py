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
* Operating point: with t_f taken at v_o itself, the relation above becomes
  an equation in v_o alone.  It has a root with f_s*t_f <= 1/2 at every
  duty, bracketed in closed form, which solve_operating_point finds by a
  safeguarded Newton iteration.
"""

from dataclasses import dataclass
import math

from .errors import (ArccosDomain, CommutationImpossible, DutyOutOfBounds,
                     EmptyDutyRange)
from .params import ValidatedParams, require_positive

TWO_PI = 2.0 * math.pi

# From f_s*t_f = 1/4 on, the duty window of duty_bounds is empty.
PHASE_DELAY_MAX = 0.25

# solve_operating_point brackets the root of its self-consistency equation
# within this distance in v_o (V).
V_FIXED_POINT_TOL = 1e-6


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


def _fall_time_approx(v_o: float, c_sum: float, pi_f_s_i: float) -> float:
    """Square-root fall interval sqrt(C_sum*v_o / (pi*f_s*|I|)) (s), with
    pi*f_s*|I| passed in as ``pi_f_s_i``.  No checks: callers pass a v_o
    already known to be finite and >= 0 and a nonzero amplitude."""
    return math.sqrt(c_sum * v_o / pi_f_s_i)


def _fall_time_exact(v_o: float, i_amp: float, w: float,
                     c_sum: float) -> float:
    """Exact fall interval 2*asin(sqrt(c/2))/w with c = w*C_sum*v_o/|I| at
    the amplitude i_amp (s).  Raises CommutationImpossible when c exceeds
    2; no other checks, as for ``_fall_time_approx``."""
    c = w * c_sum * v_o / i_amp
    if c > 2.0:
        raise CommutationImpossible(
            f"omega*C_sum*v_o/|I| = {c:.4g} > 2; node swing cannot reach v_o")
    return 2.0 * math.asin(math.sqrt(0.5 * c)) / w


def fall_time_approx(params: ValidatedParams, v_o: float) -> float:
    """Small-angle estimate of the switch-voltage fall interval (s).

    Checks v_o (finite and >= 0; 0 gives 0, also at zero amplitude), then
    evaluates the unchecked kernel ``_fall_time_approx``.
    """
    require_positive(allow_zero=True, v_o=v_o)
    if v_o == 0.0:
        return 0.0
    return _fall_time_approx(v_o, params.c_sum,
                             math.pi * params.f_s * params.i_ls_amp)


def fall_time_exact(params: ValidatedParams, v_o: float) -> float:
    """Exact fall interval: smallest positive root of
    1 - cos(omega*t) = omega*C_sum*v_o/|I| (s).

    With 1 - cos(x) = 2*sin(x/2)^2 the root is closed-form,
    t = 2*asin(sqrt(c/2))/omega with c = omega*C_sum*v_o/|I|, and stays
    accurate for the small angles of interest, where arccos(1 - c) loses
    digits.  Raises CommutationImpossible when c exceeds 2 (the current
    cannot swing the node across v_o, so zero-voltage turn-on is
    unreachable at this point).

    Checks v_o (finite and >= 0; 0 gives 0, also at zero amplitude), then
    evaluates the unchecked kernel ``_fall_time_exact``.
    """
    require_positive(allow_zero=True, v_o=v_o)
    if v_o == 0.0:
        return 0.0
    return _fall_time_exact(v_o, params.i_ls_amp, params.omega, params.c_sum)


def duty_bounds(phase_delay_norm: float) -> tuple:
    """Admissible duty window (1/2 - f_s*t_f, 1 - 2*f_s*t_f).

    Requires 0 <= phase_delay_norm < 1/4; beyond that the window collapses
    and EmptyDutyRange is raised.
    """
    x = phase_delay_norm
    if not (0.0 <= x < PHASE_DELAY_MAX):
        raise EmptyDutyRange(f"phase delay f_s*t_f = {x!r} outside "
                             f"[0, {PHASE_DELAY_MAX:g})")
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
    require_positive(allow_zero=True, i_ls_amp=i_ls_amp)
    require_positive(r_load=r_load)
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
    window) on the fall time, so the operating point is the root of

        g(v) = G(v) - v,  G(v) = |I|*R/(2*pi) * (cos(phi) - cos(2*pi*D + phi)),

    with phi = 2*pi*f_s*t_f(v).  By default t_f is the approximate
    (square-root) fall time, matching what the feedforward path of the
    controller computes; ``exact=True`` switches to the cosine-equation
    root for oracle comparisons.

    Bracket.  g(0) = G(0) = |I|*R/(2*pi) * (1 - cos(2*pi*D)) > 0 for every
    D in (0, 1).  The fall time reaches half a period, phi = pi, at
    v_cap = 2*|I|/(omega*C_sum) (exact: c = omega*C_sum*v/|I| = 2) or
    v_cap = pi*|I|/(4*f_s*C_sum) (approx), and there
    G(v_cap) = |I|*R/(2*pi) * (cos(2*pi*D) - 1) <= 0, so g(v_cap) < 0.  A
    root therefore lies in (0, min(|I|*R/pi, v_cap)) at every duty (G never
    exceeds |I|*R/pi), and this function returns the one with
    f_s*t_f <= 1/2.  It raises neither NoConvergence nor
    CommutationImpossible: the exact fall time is never taken beyond the
    commutation limit c = 2, since the root lies below it.  (Above v_cap the
    approximate relation has further roots, with falls longer than half a
    period.)

    Step.  The unknown is the fall angle phi = omega*t_f on [0, pi], where
    v(phi) is closed form: K*(1 - cos(phi)) exact, K*phi**2/2 approx (its
    small-angle expansion), with K = |I|/(omega*C_sum).  So
    g = A*cos(phi) + B*sin(phi) - v(phi), A = G(0),
    B = |I|*R/(2*pi) * sin(2*pi*D), and each step costs one cos and one
    sin.  In v itself dt_f/dv is infinite at both ends of the bracket
    (t_f/(2*v) at 0, C_sum/(|I|*sin(phi)) at the cap), where a Newton step
    reads falsely small; in phi the slope stays finite.  Newton starts from
    the root of g's quadratic expansion in phi and is safeguarded as
    ``rtsafe`` (Press et al., Numerical Recipes, sec. 9.4): a step that
    leaves the bracket, or fails to halve the step before last, bisects
    instead.  It stops once the root is bracketed within V_FIXED_POINT_TOL
    in v: the bracket is at most 2*V_FIXED_POINT_TOL wide (its midpoint is
    returned), or an accepted Newton step moves v by less than it.

    The duty is checked once, here.  t_f is recomputed at the returned v_o
    with the unchecked kernel ``_fall_time_approx`` or ``_fall_time_exact``,
    so it is bit for bit what ``fall_time_approx``/``fall_time_exact``
    give there.  Raises NonPositiveParameter for a duty outside (0, 1).
    """
    require_positive(below=1.0, duty=duty)
    i_amp = params.i_ls_amp
    if i_amp == 0.0:
        return OperatingPoint(duty=duty, t_f=0.0, v_o=0.0,
                              phase_delay_norm=0.0, regulable=False)
    f_s, w, c_sum = params.f_s, params.omega, params.c_sum
    scale = i_amp * params.r_load / TWO_PI
    a = scale * (1.0 - math.cos(TWO_PI * duty))
    b = scale * math.sin(TWO_PI * duty)
    k = i_amp / (w * c_sum)
    # g(phi) = a*cos(phi) + b*sin(phi) - v(phi); g(lo) > 0 > g(hi)
    lo, hi = 0.0, math.pi
    v_lo, v_hi = 0.0, (2.0 if exact else 0.5 * math.pi * math.pi) * k
    # root of a + b*phi - (a + k)*phi**2/2, the expansion at phi = 0
    x = (b + math.sqrt(b * b + 2.0 * (a + k) * a)) / (a + k)
    if not x < hi:
        x = 0.5 * hi
    step = step_old = hi - lo
    while True:
        c, s = math.cos(x), math.sin(x)
        if exact:
            v, dv = k * (1.0 - c), k * s
        else:
            v, dv = 0.5 * k * x * x, k * x
        g = a * c + b * s - v
        dg = b * c - a * s - dv
        if g > 0.0:
            lo, v_lo = x, v
        elif g < 0.0:
            hi, v_hi = x, v
        else:
            break
        if ((x - hi) * dg - g) * ((x - lo) * dg - g) <= 0.0 \
                and abs(2.0 * g) <= abs(step_old * dg):
            step_old, step = step, g / dg
            x -= step
            if abs(step) * dv < V_FIXED_POINT_TOL:
                v = k * (1.0 - math.cos(x)) if exact else 0.5 * k * x * x
                break
        elif v_hi - v_lo <= 2.0 * V_FIXED_POINT_TOL:
            v = 0.5 * (v_lo + v_hi)
            break
        else:
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
    t_f = (_fall_time_exact(v, i_amp, w, c_sum) if exact
           else _fall_time_approx(v, c_sum, math.pi * f_s * i_amp))
    fst = f_s * t_f
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

