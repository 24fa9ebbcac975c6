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
reverses.  The law is written once, on floats, in ``pi_step``.
"""

from dataclasses import dataclass
import functools
import math
import sys
from typing import Callable, Union

import numpy as np

from .analytic import OperatingPoint, _fall_time_approx, duty_for_target_vo
from .errors import NoConvergence, NonPositiveParameter
from .params import ValidatedParams, require_positive
from .rootfind import bisect_root
from .simulator import (_MAX_ORBIT_ITER, ModulationCommand, RunResult,
                        SwitchCycleState, _amplitude_consts, _cycle,
                        _cycle_consts, _gate_terms, _orbit_start,
                        cycle_linearization, periodic_steady_state, run)
from .smallsignal import PiGains


def pi_step(e: float, k_p: float, k_i: float, d_min: float, d_max: float,
            t_step: float, duty: float, integrator: float,
            saturated: bool) -> tuple:
    """The PI law on floats: from the sampled error e = v_ref - v_o and the
    previous (duty, integrator, saturated), the next three.

    duty = k_p * e + integrator, clamped to [d_min, d_max].  The integrator
    advances by k_i * e * t_step unless the previous duty was saturated and
    the increment pushes further out of range.
    """
    delta = k_i * e * t_step
    if saturated and (duty >= d_max and delta > 0.0
                      or duty <= d_min and delta < 0.0):
        integrator = integrator + 0.0  # frozen; -0.0 still turns into 0.0
    else:
        integrator = integrator + delta
    unsat = k_p * e + integrator
    # min(max(unsat, d_min), d_max), without the builtins' call cost on
    # every closed-loop cycle and in their operand order (see
    # simulator._cycle)
    duty = d_min if d_min > unsat else unsat
    duty = d_max if d_max < duty else duty
    return duty, integrator, duty != unsat


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
    return _fall_time_approx(v_ref, params.c_sum,
                             math.pi * params.f_s * i_ls_nominal)


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
    integrator there, which is also the duty it commands; ``cycle`` is the
    ``run`` of one closed-loop cycle started there.  ``residual`` is the
    largest change of v_o, v_cd1 (V) and the integrator over that cycle.
    ``spectral_radius`` is the largest eigenvalue modulus of the
    closed-loop map linearized there: below 1 the orbit is stable.
    ``regulation_failed`` means v_ref is out of reach inside the gains'
    duty window; the orbit is then the open-loop one at the bound where a
    cycle from v_ref misses it by less, where the clamp holds the duty and
    the anti-windup freezes the integrator, and the radius is that of the
    open-loop map.  ``cycles`` counts the cycles the solve stepped.
    """
    state: SwitchCycleState
    duty: float
    cycle: RunResult
    residual: float
    spectral_radius: float
    regulation_failed: bool
    cycles: int


def _spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a real 3x3 matrix, from the roots of
    its characteristic polynomial.  (np.linalg.eigvals would page in about
    1 MB of LAPACK for it.)  The cubic's real root is found within twice
    the largest absolute row sum, which bounds every eigenvalue (the cubic
    is bound**3 from zero there, beyond rounding), and divided out."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    c2 = -(a + e + i)
    c1 = a * e - b * d + a * i - c * g + e * i - f * h
    c0 = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    bound = max(abs(a) + abs(b) + abs(c), abs(d) + abs(e) + abs(f),
                abs(g) + abs(h) + abs(i))
    root = bisect_root(lambda x: ((x + c2) * x + c1) * x + c0, -2.0 * bound,
                       2.0 * bound, 4.0 * sys.float_info.epsilon * bound)
    p, q = c2 + root, c1 + root * (c2 + root)  # quotient x^2 + p x + q
    disc = 0.25 * p * p - q
    pair = 0.5 * abs(p) + math.sqrt(disc) if disc >= 0.0 else math.sqrt(q)
    return max(abs(root), pair)


def closed_loop_orbit(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                      gains: PiGains) -> ClosedLoopOrbit:
    """The closed-loop periodic orbit under ``gains`` with the gate delay
    fed forward from (v_ref, i_ls_ff); fig17's ``coupling_sweep`` solves it.

    On the orbit the sampled error is zero, so the cycle starts at
    v_o = v_ref and the duty is the integrator: d* is the root of
    g(d) = P_d(v_ref, a*)[v_o] - v_ref on [gains.d_min, gains.d_max], to
    adjacent floats (``rootfind.bisect_root``), P_d one ``_cycle``, and a*
    v_cd1's start (``simulator._orbit_start``, shared with the open-loop
    ``periodic_steady_state``; 3 to 4 cycles at fig7.cfg's light loads,
    where State V is not reached).  Without a sign change v_ref is out of
    reach: the orbit is the open-loop one at the bound with the smaller
    |g|.  The stability verdict linearizes the cycle map once
    (``cycle_linearization``) and closes the PI loop around it: with
    de = -dv_o, du = dI + (k_p + k_i*T) de and dI' = dI + k_i*T de,

        J = [[A - B (k_p + k_i*T) e1^T, B], [-k_i*T e1^T, 1]].

    Raises NoConvergence, naming the amplitude and the duty, when a* is not
    found in _MAX_ORBIT_ITER cycles or the orbit at the bound is not found.
    """
    ts = params.t_period
    t_f = feedforward_tf(v_ref, i_ls_ff, params)
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, t_f)
    cycles = 0

    # the bounds are evaluated again by bisect_root, and d* for its a*
    @functools.cache
    def start(d):
        """(a*, g(d)) at the duty d."""
        nonlocal cycles
        found = _orbit_start(v_ref, d, consts)
        if found is None:
            raise NoConvergence(f"closed-loop orbit at i_ls_amp = "
                                f"{params.i_ls_amp!r} A: v_cd1's start "
                                f"unsettled after {_MAX_ORBIT_ITER} cycles "
                                f"at duty {d!r}")
        cycles += found[3]
        return found[0], found[1] - v_ref

    g_min, g_max = start(gains.d_min)[1], start(gains.d_max)[1]
    failed = g_min * g_max > 0.0
    if failed:
        d = gains.d_min if abs(g_min) < abs(g_max) else gains.d_max
        try:
            orbit = periodic_steady_state(params, ModulationCommand(d, t_f))
        except NoConvergence as exc:
            raise NoConvergence(f"closed-loop orbit at i_ls_amp = "
                                f"{params.i_ls_amp!r} A: {exc}") from exc
        cycles += orbit.cycles
        x = orbit.state
    else:
        d = bisect_root(lambda d: start(d)[1], gains.d_min, gains.d_max, 0.0)
        x = SwitchCycleState(v_ref, start(d)[0])

    duty, integrator, _ = pi_step(v_ref - x.v_o, gains.k_p, gains.k_i,
                                  gains.d_min, gains.d_max, ts, d, d, failed)
    cycle = run(params, ModulationCommand(duty, t_f), 1, x)
    nxt = cycle.final_state
    residual = max(abs(nxt.v_o - x.v_o), abs(nxt.v_cd1 - x.v_cd1),
                   abs(integrator - d))
    a, b, _, _, n_lin = cycle_linearization(
        params, ModulationCommand(d, t_f), x)
    jac = np.zeros((3, 3))  # failed: the clamp holds the duty, J = diag(A, 0)
    jac[:2, :2] = a
    if not failed:
        k_t = gains.k_i * ts
        jac[:2, :2] -= np.outer(b, (gains.k_p + k_t, 0.0))
        jac[:2, 2] = b
        jac[2] = (-k_t, 0.0, 1.0)
    return ClosedLoopOrbit(
        state=x, duty=d, cycle=cycle, residual=residual,
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
    choose it below the smallest live amplitude by more than the
    square-root estimate's undershoot of the exact commutation time (2 %
    on table2; at the live amplitude the turn-on is hard).  The run starts
    from the output voltage ``v_o0`` and the PI integrator
    ``initial_integrator``; no start duty is needed, for the first cycle's
    duty is the PI law's output at the first sample.
    """
    name: str
    duration: float
    r_load: Profile
    i_ls_amp: Profile
    v_ref: Profile
    i_ls_ff: float
    v_o0: float
    initial_integrator: float

    def __post_init__(self):
        require_positive(duration=self.duration, i_ls_ff=self.i_ls_ff)
        require_positive(allow_zero=True, v_o0=self.v_o0)
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
    period with the live load and source amplitude.  The cycle constants
    are built in two parts (see ``simulator._cycle_consts``): the gate
    terms again only on a cycle on which the load or the reference (and so
    the fed-forward delay) moves, and the amplitude terms, which take no
    libm call, again on a cycle on which any of the three moves.
    Simulator errors propagate; regulation failure (the loop unable to
    hold the reference) is recorded on the returned record, never raised.
    """
    ts = params.t_period
    n_cycles = int(round(scenario.duration / ts))
    if n_cycles < 100:
        raise NonPositiveParameter("scenario duration", scenario.duration,
                                   f">= 100 periods ({100 * ts:g} s)")
    k_p, k_i, d_min, d_max = gains.k_p, gains.k_i, gains.d_min, gains.d_max
    # pi_step reads the previous duty only when saturated, so the first
    # cycle's is never read: the integrator stands in for it
    integrator = duty = scenario.initial_integrator
    saturated = False
    v_o, v_cd1 = scenario.v_o0, 0.0
    # every profile is read and checked at t = 0; a callable one is read
    # again on every cycle, and what depends on it is rebuilt when it moves
    r_fn, i_fn, v_ref_fn = (p if callable(p) else None for p in (
        scenario.r_load, scenario.i_ls_amp, scenario.v_ref))
    r_n = _eval_profile(scenario.r_load, 0.0)
    require_positive(r_load=r_n)
    i_n = _eval_profile(scenario.i_ls_amp, 0.0)
    require_positive(allow_zero=True, i_ls_amp=i_n)
    # the reference t_f_cmd was fed forward from
    v_ref_n = v_ref_ff = _eval_profile(scenario.v_ref, 0.0)
    t_f_cmd = feedforward_tf(v_ref_n, scenario.i_ls_ff, params)
    gate = _gate_terms(params, r_n, t_f_cmd)
    consts = _amplitude_consts(gate, i_n)

    t_arr = np.arange(n_cycles) * ts
    v_samp = np.empty(n_cycles)
    v_mean = np.empty(n_cycles)
    duty_arr = np.empty(n_cycles)

    for n in range(n_cycles):
        t_n = n * ts
        moved = regate = False
        # the range checks, as in simulator._cycle, call require_positive
        # only on a value that fails them
        if r_fn is not None:
            r = r_fn(t_n)
            if r != r_n:  # NaN always differs
                if not 0.0 < r < math.inf:
                    require_positive(r_load=r)
                r_n = r
                moved = regate = True
        if i_fn is not None:
            i = i_fn(t_n)
            if i != i_n:
                if not 0.0 <= i < math.inf:
                    require_positive(allow_zero=True, i_ls_amp=i)
                i_n = i
                moved = True
        if v_ref_fn is not None:
            v_ref_n = v_ref_fn(t_n)
            if v_ref_n != v_ref_ff:  # NaN always differs
                t_f_cmd = feedforward_tf(v_ref_n, scenario.i_ls_ff, params)
                v_ref_ff = v_ref_n
                moved = regate = True
        if moved:
            if regate:
                gate = _gate_terms(params, r_n, t_f_cmd)
            consts = _amplitude_consts(gate, i_n)
        duty, integrator, saturated = pi_step(
            v_ref_n - v_o, k_p, k_i, d_min, d_max, ts, duty, integrator,
            saturated)
        v_samp[n] = v_o
        v_o, v_cd1, v_mean[n] = _cycle(v_o, v_cd1, duty, consts)[:3]
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
