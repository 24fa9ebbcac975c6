"""Prebuilt closed-loop experiments and the coupling sweep.

These encode the transient studies the CLI and the acceptance suite share:
regulated startup, a no-load-to-full-load step and a source-amplitude ramp,
each run cycle by cycle under PI control, and the coupling sweep (source
amplitude standing in for coil separation), whose points are steady states
solved directly as closed-loop periodic orbits rather than simulated.

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

from .control import (Scenario, closed_loop_orbit, equilibrium_op,
                      ramp_profile, step_profile)
from .params import ValidatedParams
from .smallsignal import PiGains, design_pi

NO_LOAD_RESISTANCE = 10e3


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
    spectral_radius: float


def coupling_sweep(params: ValidatedParams, v_ref: float, i_ls_ff: float,
                   amplitudes: Sequence[float], f_c: float) -> list:
    """Closed-loop regulation across source amplitudes, in steady state.

    Each point designs its own PI gains (``design_gains``) and solves for
    its closed-loop periodic orbit (``control.closed_loop_orbit``).  The row
    reports the orbit's cycle-mean output and its distance from v_ref, the
    duty, the orbit's ZVS and ZCS verdicts (1.0 or 0.0) and the spectral
    radius of the closed-loop cycle map.  Where v_ref is out of reach inside
    the duty window, the row is the open-loop orbit at the bound and its
    ``reg_error`` shows the miss.
    """
    rows = []
    for i_amp in amplitudes:
        p_i = params.with_amplitude(i_amp)
        orbit = closed_loop_orbit(p_i, v_ref, i_ls_ff,
                                  design_gains(p_i, v_ref, i_ls_ff, f_c))
        v_mean = orbit.summary.v_o_mean
        rows.append(SweepRow(i_ls_amp=i_amp, v_o_steady=v_mean,
                             reg_error=abs(v_mean - v_ref), duty=orbit.duty,
                             zvs_fraction=float(orbit.summary.zvs_ok),
                             zcs_fraction=float(orbit.summary.zcs_ok),
                             spectral_radius=orbit.spectral_radius))
    return rows
