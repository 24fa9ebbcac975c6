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
from typing import Callable, Union

import numpy as np

from .errors import NonPositiveParameter
from .params import ValidatedParams, require_positive
from .simulator import ModulationCommand, SwitchCycleState, step_cycle
from .smallsignal import PiGains


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
    diagnostics: list             # CycleSummary of each cycle
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
    state = SwitchCycleState(scenario.v_o0)
    p_n = params
    v_ref_ff = math.nan  # the reference t_f_cmd was fed forward from

    t_arr = np.empty(n_cycles)
    v_samp = np.empty(n_cycles)
    v_mean = np.empty(n_cycles)
    duty_arr = np.empty(n_cycles)
    diags: list = []

    for n in range(n_cycles):
        t_n = n * ts
        r_n = _eval_profile(scenario.r_load, t_n)
        i_n = _eval_profile(scenario.i_ls_amp, t_n)
        if r_n != p_n.r_load or i_n != p_n.i_ls_amp:  # NaN always differs
            p_n = params.with_load(r_n).with_amplitude(i_n)
        v_ref_n = _eval_profile(scenario.v_ref, t_n)
        if v_ref_n != v_ref_ff:  # NaN always differs
            t_f_cmd = feedforward_tf(v_ref_n, scenario.i_ls_ff, params)
            v_ref_ff = v_ref_n
        duty, cstate = pi_update(state.v_o, v_ref_n, gains, cstate, ts)
        new_state, d, _ = step_cycle(state, ModulationCommand(duty, t_f_cmd),
                                     p_n, t_start=t_n)
        t_arr[n] = t_n
        v_samp[n] = state.v_o
        v_mean[n] = d.v_o_mean
        duty_arr[n] = duty
        diags.append(d)
        state = new_state

    return _summarize(scenario, t_arr, v_samp, v_mean, duty_arr, diags)


def _summarize(scenario, t_arr, v_samp, v_mean, duty_arr,
               diags) -> TransientRecord:
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
        diagnostics=diags, final_value=final, settling_time=settling,
        overshoot=float(np.max(v_mean) - final),
        undershoot=float(final - np.min(v_mean)),
        steady_state_error=error,
        regulation_failed=failed)
