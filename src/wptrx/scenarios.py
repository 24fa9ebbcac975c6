"""Prebuilt closed-loop experiments and the coupling sweep.

These encode the transient studies the CLI and the acceptance suite share:
regulated startup, a no-load-to-full-load step, a source-amplitude ramp,
and the coupling sweep (source amplitude standing in for coil separation).

Two conventions matter here:

* "No load" is 10 kOhm, not infinity: regulation still needs a bleed path
  and a finite RC time constant.
* The feedforward amplitude of a scenario is chosen at (or below) the
  smallest live amplitude it will see.  The square-root fall-time estimate
  always undershoots the exact commutation time by a percent or two, so a
  feedforward evaluated at the live amplitude fires the gate marginally
  early and forfeits zero-voltage turn-on; an amplitude margin keeps the
  commanded delay on the safe side, where the switch path's diode simply
  holds the node until the gate edge.
"""

from dataclasses import dataclass
from typing import Sequence

from .analytic import OperatingPoint, duty_for_target_vo
from .control import (Scenario, closed_loop_run, feedforward_tf,
                      ramp_profile, step_profile)
from .params import ValidatedParams
from .simulator import soft_switching_report
from .smallsignal import PiGains, design_pi

NO_LOAD_RESISTANCE = 10e3

# Carrier periods each coupling-sweep point runs.
SWEEP_CYCLES = 3000


def equilibrium_op(params: ValidatedParams, v_ref: float,
                   i_ls_ff: float) -> OperatingPoint:
    """Where the loop sits in steady state: v_ref at the feedforward phase
    delay, pinned, with the duty that produces it."""
    fst = params.f_s * feedforward_tf(v_ref, i_ls_ff, params)
    duty = duty_for_target_vo(params.i_ls_amp, params.r_load, v_ref, fst)
    return OperatingPoint.pinned(duty, fst, params.f_s, v_o=v_ref)


def design_gains(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                 f_c: float) -> PiGains:
    """PI gains at the regulated operating point, ``equilibrium_op``."""
    return design_pi(params, equilibrium_op(params, v_ref, i_ls_ff), f_c)


def startup_scenario(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                     duration: float = 0.12) -> Scenario:
    """Regulated start from a discharged output, synchronization on at 0."""
    return Scenario(name="startup", duration=duration,
                    r_load=params.r_load, i_ls_amp=params.i_ls_amp,
                    v_ref=v_ref, i_ls_ff=i_ls_ff, v_o0=0.0,
                    initial_integrator=0.0, initial_duty=0.5)


def load_step_scenario(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                       r_low: float, t_step: float = 10e-3,
                       duration: float = 30e-3) -> Scenario:
    """No-load-equivalent to loaded step at fixed reference.

    Starts warm at the unloaded equilibrium so the record isolates the
    step response.
    """
    d0 = equilibrium_op(params.with_load(NO_LOAD_RESISTANCE), v_ref,
                        i_ls_ff).duty
    return Scenario(name="load_step", duration=duration,
                    r_load=step_profile(NO_LOAD_RESISTANCE, r_low, t_step),
                    i_ls_amp=params.i_ls_amp, v_ref=v_ref, i_ls_ff=i_ls_ff,
                    v_o0=v_ref, initial_duty=d0, initial_integrator=d0)


def source_ramp_scenario(params: ValidatedParams, v_ref: float,
                         i_ls_ff: float, i_start: float, i_stop: float,
                         t_ramp_start: float = 5e-3, ramp_len: float = 10e-3,
                         duration: float = 30e-3) -> Scenario:
    """Source-amplitude ramp (coupling drift) at fixed load and reference."""
    d0 = equilibrium_op(params.with_amplitude(i_start), v_ref, i_ls_ff).duty
    return Scenario(name="source_ramp", duration=duration,
                    r_load=params.r_load,
                    i_ls_amp=ramp_profile(i_start, i_stop, t_ramp_start,
                                          t_ramp_start + ramp_len),
                    v_ref=v_ref, i_ls_ff=i_ls_ff, v_o0=v_ref,
                    initial_duty=d0, initial_integrator=d0)


@dataclass(frozen=True)
class SweepRow:
    i_ls_amp: float
    v_o_steady: float
    reg_error: float
    duty: float
    zvs_fraction: float
    zcs_fraction: float


def coupling_sweep(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                   amplitudes: Sequence[float], f_c: float) -> list:
    """Closed-loop regulation across source amplitudes.

    Each point designs its own PI gains and runs SWEEP_CYCLES carrier
    periods from a warm start at its own equilibrium; the row reports the
    tail-window mean output, regulation error, and soft-switching fractions
    over the whole run.
    """
    rows = []
    for i_amp in amplitudes:
        p_i = params.with_amplitude(i_amp)
        op = equilibrium_op(p_i, v_ref, i_ls_ff)
        sc = Scenario(name=f"sweep_{i_amp:g}",
                      duration=SWEEP_CYCLES * params.t_period,
                      r_load=params.r_load, i_ls_amp=i_amp, v_ref=v_ref,
                      i_ls_ff=i_ls_ff, v_o0=v_ref, initial_duty=op.duty,
                      initial_integrator=op.duty)
        rec = closed_loop_run(sc, design_pi(p_i, op, f_c), p_i)
        tail = max(1, len(rec.v_o_mean) // 5)
        v_tail = float(rec.v_o_mean[-tail:].mean())
        rep = soft_switching_report(rec.diagnostics)
        rows.append(SweepRow(i_ls_amp=i_amp, v_o_steady=v_tail,
                             reg_error=abs(v_tail - v_ref),
                             duty=float(rec.duty[-1]),
                             zvs_fraction=rep.zvs_fraction,
                             zcs_fraction=rep.zcs_fraction))
    return rows
