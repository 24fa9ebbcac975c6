"""Cycle-by-cycle output-voltage regulation.

The loop samples the output voltage once per carrier period, exactly at the
coil-current zero crossing (the synchronization edge), runs a PI update
with conditional-integration anti-windup, and issues the next gate command.
The gate delay is not part of the feedback: it is fed forward from the
square-root fall-time estimate evaluated at the voltage reference and a
fixed nominal current amplitude, mirroring a microcontroller that avoids
per-cycle square roots on live measurements.

Anti-windup: the integrator only advances when the output is unsaturated,
or when the error drives the command back toward the admissible duty
window.  While the duty sits pinned at a bound with the error still pushing
outward, the integrator is frozen, so recovery starts the moment the error
reverses.
"""

from dataclasses import dataclass
import math
import sys
from typing import Callable, Union

import numpy as np

from .analytic import OperatingPoint, duty_for_target_vo
from .errors import NoConvergence, NonPositiveParameter
from .params import ValidatedParams, require_positive
from .simulator import (V_ORBIT_TOL, CycleSummary, ModulationCommand,
                        SwitchCycleState, _cycle, periodic_steady_state,
                        step_cycle)
from .smallsignal import PiGains, cycle_linearization, plant_tf


@dataclass(frozen=True)
class ControllerState:
    """PI internal state between cycles."""
    integrator: float
    last_duty: float
    saturated: bool


def pi_update(v_o_sample: float, v_ref: float, gains: PiGains,
              cstate: ControllerState, t_step: float) -> tuple:
    """One discrete PI update; returns (duty, new ControllerState).

    duty = k_p * e + integrator, clamped to [d_min, d_max].  The integrator
    advances by k_i * e * t_step unless the previous output was saturated
    and the increment pushes further out of range.
    """
    e = v_ref - v_o_sample
    delta = gains.k_i * e * t_step
    integrate = True
    if cstate.saturated:
        outward_high = cstate.last_duty >= gains.d_max and delta > 0.0
        outward_low = cstate.last_duty <= gains.d_min and delta < 0.0
        integrate = not (outward_high or outward_low)
    integrator = cstate.integrator + (delta if integrate else 0.0)
    unsat = gains.k_p * e + integrator
    duty = min(max(unsat, gains.d_min), gains.d_max)
    return duty, ControllerState(integrator=integrator, last_duty=duty,
                                 saturated=(duty != unsat))


def feedforward_tf(v_ref: float, i_ls_nominal: float,
                   params: ValidatedParams) -> float:
    """Gate delay from the square-root fall-time estimate at the reference
    voltage and a fixed nominal amplitude (s).

    Deliberately not the live values: the controller trades a small timing
    error for a constant that can be precomputed.  v_ref = 0 gives 0.
    """
    require_positive(allow_zero=True, v_ref=v_ref)
    if v_ref == 0.0:
        return 0.0
    require_positive(i_ls_nominal=i_ls_nominal)
    return math.sqrt(params.c_sum * v_ref
                     / (math.pi * params.f_s * i_ls_nominal))


def equilibrium_op(params: ValidatedParams, v_ref: float,
                   i_ls_ff: float) -> OperatingPoint:
    """Where the loop sits in steady state: v_ref at the feedforward phase
    delay, pinned, with the duty that produces it."""
    fst = params.f_s * feedforward_tf(v_ref, i_ls_ff, params)
    duty = duty_for_target_vo(params.i_ls_amp, params.r_load, v_ref, fst)
    return OperatingPoint.pinned(duty, fst, params.f_s, v_o=v_ref)


@dataclass(frozen=True)
class ClosedLoopOrbit:
    """Fixed point of the closed-loop cycle map at a constant reference,
    load and source.

    ``state`` is the boundary state on the orbit and ``duty`` the PI
    integrator there, which is also the duty it commands; ``summary`` is
    the orbit's cycle.  ``residual`` is the largest change of v_o, v_cd1
    (V) and the integrator over one closed-loop cycle started on the orbit.
    ``spectral_radius`` is the largest eigenvalue modulus of the
    closed-loop map linearized there: below 1 the orbit is stable.
    ``regulation_failed`` means v_ref is out of reach inside the gains'
    duty window; the orbit is then the open-loop one at the nearer bound,
    where the clamp holds the duty and the anti-windup freezes the
    integrator, and the radius is that of the open-loop map.  ``cycles``
    counts the cycles the solve stepped.
    """
    state: SwitchCycleState
    duty: float
    summary: CycleSummary
    residual: float
    spectral_radius: float
    regulation_failed: bool
    cycles: int


_MAX_DUTY_ITER = 60


def _spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a real 3x3 matrix, from the roots of
    its characteristic polynomial.  (np.linalg.eigvals would page in about
    1 MB of LAPACK for it.)  The cubic's real root is bisected inside the
    largest absolute row sum, which bounds every eigenvalue, and divided
    out."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    c2 = -(a + e + i)
    c1 = a * e - b * d + a * i - c * g + e * i - f * h
    c0 = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    bound = max(abs(a) + abs(b) + abs(c), abs(d) + abs(e) + abs(f),
                abs(g) + abs(h) + abs(i))
    lo, hi = -bound, bound
    while hi - lo > 4.0 * sys.float_info.epsilon * bound:
        mid = 0.5 * (lo + hi)
        if ((mid + c2) * mid + c1) * mid + c0 < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    p, q = c2 + root, c1 + root * (c2 + root)  # quotient x^2 + p x + q
    disc = 0.25 * p * p - q
    pair = 0.5 * abs(p) + math.sqrt(disc) if disc >= 0.0 else math.sqrt(q)
    return max(abs(root), pair)


def closed_loop_orbit(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                      gains: PiGains) -> ClosedLoopOrbit:
    """The closed-loop periodic orbit under ``gains`` with the gate delay
    fed forward from (v_ref, i_ls_ff).

    On the orbit the sampled error is zero, so v_o at the cycle start is
    v_ref and the duty is the integrator: the orbit is the open-loop orbit
    (``periodic_steady_state``) of the duty d* whose orbit starts at v_ref.
    d* is found by secant steps in the duty from ``equilibrium_op``'s, the
    first along the averaged model's slope, bisecting once a sign change
    brackets it, until |v_o - v_ref| <= V_ORBIT_TOL.  The stability verdict
    linearizes the cycle map once (``cycle_linearization``) and closes the
    PI loop around it: with de = -dv_o, du = dI + (k_p + k_i*T) de and
    dI' = dI + k_i*T de,

        J = [[A - B (k_p + k_i*T) e1^T, B], [-k_i*T e1^T, 1]].

    Raises NoConvergence, naming the amplitude and the duty, when no d* is
    found in _MAX_DUTY_ITER steps.
    """
    ts = params.t_period
    t_f = feedforward_tf(v_ref, i_ls_ff, params)
    op = equilibrium_op(params, v_ref, i_ls_ff)
    cycles = 0

    def orbit_at(d):
        nonlocal cycles
        try:
            orbit = periodic_steady_state(params, ModulationCommand(d, t_f),
                                          v_ref)
        except NoConvergence as exc:
            raise NoConvergence(f"closed-loop orbit at i_ls_amp = "
                                f"{params.i_ls_amp!r} A: {exc}") from exc
        cycles += orbit.cycles
        return orbit, orbit.state.v_o - v_ref

    d = min(max(op.duty, gains.d_min), gains.d_max)
    orbit, g = orbit_at(d)
    slope = plant_tf(params, op).dc_gain
    low = high = None  # latest duties whose orbit ends below / above v_ref
    failed = False
    for _ in range(_MAX_DUTY_ITER):
        if abs(g) <= V_ORBIT_TOL:
            break
        if g < 0.0:
            low = d
        else:
            high = d
        # a step that left g unchanged gives no direction: NaN bisects, or
        # moves to a bound
        d_new = d - g / slope if slope else math.nan
        if low is not None and high is not None:
            lo, hi = sorted((low, high))
            if not lo < d_new < hi:  # NaN too
                d_new = 0.5 * (lo + hi)
        elif not gains.d_min <= d_new <= gains.d_max:
            bound = gains.d_min if d_new < gains.d_min else gains.d_max
            if d == bound:  # no sign change between here and the bound
                failed = True
                break
            d_new = bound
        orbit, g_new = orbit_at(d_new)
        slope = (g_new - g) / (d_new - d)
        d, g = d_new, g_new
    else:
        raise NoConvergence(
            f"closed-loop orbit at i_ls_amp = {params.i_ls_amp!r} A: "
            f"|v_o - v_ref| = {abs(g):.3g} V at duty {d!r} after "
            f"{_MAX_DUTY_ITER} duty steps")

    x = orbit.state
    cstate = ControllerState(integrator=d, last_duty=d, saturated=failed)
    duty, cnext = pi_update(x.v_o, v_ref, gains, cstate, ts)
    nxt, summary, _ = step_cycle(x, ModulationCommand(duty, t_f), params)
    residual = max(abs(nxt.v_o - x.v_o), abs(nxt.v_cd1 - x.v_cd1),
                   abs(cnext.integrator - d))
    a, b, _, _, n_lin = cycle_linearization(
        params, ModulationCommand(d, t_f), (x.v_o, x.v_cd1))
    jac = np.zeros((3, 3))  # failed: the clamp holds the duty, J = diag(A, 0)
    jac[:2, :2] = a
    if not failed:
        k_t = gains.k_i * ts
        jac[:2, :2] -= np.outer(b, (gains.k_p + k_t, 0.0))
        jac[:2, 2] = b
        jac[2] = (-k_t, 0.0, 1.0)
    return ClosedLoopOrbit(
        state=x, duty=d, summary=summary, residual=residual,
        spectral_radius=_spectral_radius(jac),
        regulation_failed=failed, cycles=cycles + 1 + n_lin)


Profile = Union[float, Callable[[float], float]]


def _eval_profile(p: Profile, t: float) -> float:
    return p(t) if callable(p) else p


def step_profile(before: float, after: float, t_step: float) -> Callable:
    """Piecewise-constant profile switching value at t_step."""
    return lambda t: before if t < t_step else after


def ramp_profile(start: float, stop: float, t0: float, t1: float) -> Callable:
    """Linear ramp from start to stop over [t0, t1], clamped outside."""
    def f(t):
        if t <= t0:
            return start
        if t >= t1:
            return stop
        return start + (stop - start) * (t - t0) / (t1 - t0)
    return f


@dataclass(frozen=True)
class Scenario:
    """A closed-loop experiment: load, source and reference profiles.

    ``r_load``/``i_ls_amp``/``v_ref`` accept constants or callables of
    absolute time.  ``i_ls_ff`` is the feedforward amplitude constant;
    choose it at or below the smallest live amplitude so the commanded gate
    delay never undershoots the exact commutation time.
    """
    name: str
    duration: float
    r_load: Profile
    i_ls_amp: Profile
    v_ref: Profile
    i_ls_ff: float
    v_o0: float
    initial_duty: float
    initial_integrator: float

    def __post_init__(self):
        require_positive(duration=self.duration, i_ls_ff=self.i_ls_ff)
        require_positive(allow_zero=True, v_o0=self.v_o0)
        require_positive(below=1.0, initial_duty=self.initial_duty)
        if not math.isfinite(self.initial_integrator):
            raise NonPositiveParameter("initial_integrator",
                                       self.initial_integrator, "finite")


@dataclass
class TransientRecord:
    """Per-cycle closed-loop trace plus summary metrics."""
    t: np.ndarray                 # cycle-start instants (s)
    v_o_sample: np.ndarray        # voltage sampled at the sync edge (V)
    v_o_mean: np.ndarray          # cycle-mean output voltage (V)
    duty: np.ndarray
    final_value: float
    settling_time: float          # entry into the +-1% band (s); nan if never
    overshoot: float              # max excursion above the final value (V)
    undershoot: float             # max excursion below the final value (V)
    steady_state_error: float     # |tail mean - v_ref(end)| (V)
    regulation_failed: bool


def closed_loop_run(scenario: Scenario, gains: PiGains,
                    params: ValidatedParams) -> TransientRecord:
    """Drive the switched simulator cycle-by-cycle under PI regulation.

    Each cycle: sample v_o at the cycle start (the current zero crossing),
    update the PI, derive the gate delay by feedforward, step one carrier
    period with the live load and source amplitude.  Simulator errors
    propagate; regulation failure (the loop unable to hold the reference)
    is recorded on the returned record, never raised.
    """
    ts = params.t_period
    n_cycles = int(round(scenario.duration / ts))
    if n_cycles < 100:
        raise NonPositiveParameter("scenario duration (>= 100 cycles)",
                                   scenario.duration)
    cstate = ControllerState(integrator=scenario.initial_integrator,
                             last_duty=scenario.initial_duty, saturated=False)
    v_o, v_cd1 = scenario.v_o0, 0.0
    # the live load and amplitude, each checked whenever it changes
    r_n, i_n = params.r_load, params.i_ls_amp
    v_ref_ff = math.nan  # the reference t_f_cmd was fed forward from

    t_arr = np.empty(n_cycles)
    v_samp = np.empty(n_cycles)
    v_mean = np.empty(n_cycles)
    duty_arr = np.empty(n_cycles)

    for n in range(n_cycles):
        t_n = n * ts
        r = _eval_profile(scenario.r_load, t_n)
        if r != r_n:  # NaN always differs
            require_positive(r_load=r)
            r_n = r
        i = _eval_profile(scenario.i_ls_amp, t_n)
        if i != i_n:
            require_positive(allow_zero=True, i_ls_amp=i)
            i_n = i
        v_ref_n = _eval_profile(scenario.v_ref, t_n)
        if v_ref_n != v_ref_ff:  # NaN always differs
            t_f_cmd = feedforward_tf(v_ref_n, scenario.i_ls_ff, params)
            v_ref_ff = v_ref_n
        duty, cstate = pi_update(v_o, v_ref_n, gains, cstate, ts)
        t_arr[n] = t_n
        v_samp[n] = v_o
        v_o, v_cd1, v_mean[n] = _cycle(v_o, v_cd1, duty, t_f_cmd, r_n, i_n,
                                       params)[:3]
        duty_arr[n] = duty

    return _summarize(scenario, t_arr, v_samp, v_mean, duty_arr)


def _summarize(scenario, t_arr, v_samp, v_mean, duty_arr) -> TransientRecord:
    n_tail = max(1, len(v_mean) // 20)
    final = float(np.mean(v_mean[-n_tail:]))
    band = 0.01 * abs(final) if final != 0.0 else 0.01
    # the cycle after the last one outside the band; none if it is the last
    outside = np.flatnonzero(~(np.abs(v_mean - final) <= band))
    k = outside[-1] + 1 if len(outside) else 0
    settling = float(t_arr[k]) if k < len(t_arr) else float("nan")
    v_ref_end = _eval_profile(scenario.v_ref, float(t_arr[-1]))
    error = abs(final - v_ref_end)
    # regulation failure: the loop never pulled the tail near the reference
    failed = error > 0.05 * max(abs(v_ref_end), 1.0)
    return TransientRecord(
        t=t_arr, v_o_sample=v_samp, v_o_mean=v_mean, duty=duty_arr,
        final_value=final, settling_time=settling,
        overshoot=float(np.max(v_mean) - final),
        undershoot=float(final - np.min(v_mean)),
        steady_state_error=error,
        regulation_failed=failed)
