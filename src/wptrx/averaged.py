"""Cycle-averaged output dynamics.

Averaging the rectifier over one carrier period leaves a single slow state,
the output voltage:

    C_o * dv_o/dt = |I|/(2*pi) * (cos(phi_f) - cos(2*pi*D + phi_f)) - v_o/R

with phi_f = 2*pi*f_s*t_f.  For a fixed (duty, phase delay) pair this is
affine in v_o, so every constant-command segment has the exact solution

    v_o(t) = v_inf + (v_o(0) - v_inf) * exp(-t / (R*C_o)),

and the integrator here composes those closed forms instead of stepping an
ODE solver.  A Runge-Kutta reference lives in the test suite only.
"""

from dataclasses import dataclass
from enum import Enum
import math
from typing import Sequence

import numpy as np

from .analytic import TWO_PI, solve_operating_point, steady_state_vo
from .errors import NonPositiveParameter
from .params import ValidatedParams

# Integration undershoot below this is clamped to zero and flagged; the
# rectifier cannot drive its output negative.
_V_NEG_TOL = -1e-6


@dataclass(frozen=True)
class AveragedState:
    """Slow-model state: output voltage (V) at time t (s)."""
    v_o: float
    t: float


class TfMode(Enum):
    """How the phase delay inside a schedule is produced.

    PINNED           constant value supplied by the caller.
    FEEDFORWARD      square-root fall-time estimate at (V_ref, |I|_nominal),
                     mirroring the controller's computation-saving shortcut.
    SELF_CONSISTENT  converged operating point per duty segment.
    """
    PINNED = "pinned"
    FEEDFORWARD = "feedforward"
    SELF_CONSISTENT = "self_consistent"


class DutySchedule:
    """Piecewise-constant (duty, phase-delay) command profile.

    ``times`` are segment start instants (first must be 0), ``duties`` and
    ``fsts`` the per-segment values.
    """

    def __init__(self, times: Sequence[float], duties: Sequence[float],
                 fsts: Sequence[float]):
        if len(times) != len(duties) or len(times) != len(fsts):
            raise ValueError("times, duties, fsts must have equal length")
        if times[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        for d in duties:
            if not (0.0 < d < 1.0):
                raise NonPositiveParameter("duty (must lie in (0,1))", d)
        self.times = tuple(float(t) for t in times)
        self.duties = tuple(float(d) for d in duties)
        self.fsts = tuple(float(x) for x in fsts)

    @classmethod
    def constant(cls, duty: float, phase_delay_norm: float) -> "DutySchedule":
        return cls((0.0,), (duty,), (phase_delay_norm,))

    @classmethod
    def steps(cls, times: Sequence[float], duties: Sequence[float],
              params: ValidatedParams, mode: TfMode = TfMode.FEEDFORWARD,
              pinned_fst: float = 0.0, v_ref: float = 0.0,
              i_ls_nominal: float = 0.0) -> "DutySchedule":
        """Build a stepped schedule, deriving the phase delay per ``mode``."""
        if mode is TfMode.PINNED:
            fsts = [pinned_fst] * len(times)
        elif mode is TfMode.FEEDFORWARD:
            from .control import feedforward_tf
            fst = params.f_s * feedforward_tf(v_ref, i_ls_nominal, params)
            fsts = [fst] * len(times)
        else:
            fsts = [solve_operating_point(params, d).phase_delay_norm
                    for d in duties]
        return cls(times, duties, fsts)

    def eval(self, t: float) -> tuple:
        idx = 0
        for i, start in enumerate(self.times):
            if t >= start:
                idx = i
            else:
                break
        return self.duties[idx], self.fsts[idx]

    def breakpoints(self) -> tuple:
        return self.times


@dataclass(frozen=True)
class AveragedTrajectory:
    """Sampled solution of the averaged model."""
    t: np.ndarray
    v_o: np.ndarray
    duty: np.ndarray
    phase_delay_norm: np.ndarray
    clamped: bool = False  # True if the solution undershot zero and was held


def averaged_rhs(v_o: float, duty: float, phase_delay_norm: float,
                 params: ValidatedParams) -> float:
    """dv_o/dt of the averaged model (V/s)."""
    phi = TWO_PI * phase_delay_norm
    k = params.i_ls_amp / TWO_PI * (
        math.cos(phi) - math.cos(TWO_PI * duty + phi))
    return (k - v_o / params.r_load) / params.c_o


def exp_segment(v0: float, duty: float, phase_delay_norm: float, dt: float,
                params: ValidatedParams) -> tuple:
    """Advance one constant-command segment exactly.

    Returns (v_end, v_inf, tau): the endpoint, the segment's asymptote
    (the steady-state voltage for this command) and the RC time constant.
    """
    tau = params.r_load * params.c_o
    v_inf = steady_state_vo(params.i_ls_amp, params.r_load, duty,
                            phase_delay_norm)
    v_end = v_inf + (v0 - v_inf) * math.exp(-dt / tau)
    return v_end, v_inf, tau


def integrate_averaged(initial: AveragedState, schedule: DutySchedule,
                       horizon: float, params: ValidatedParams,
                       sample_dt: float = 1e-5) -> AveragedTrajectory:
    """Integrate the averaged model over ``horizon`` seconds.

    The schedule is advanced with the exact exponential closed form between
    its breakpoints.  Output is sampled every ``sample_dt`` including both
    endpoints.
    """
    if horizon <= 0:
        raise NonPositiveParameter("horizon", horizon)
    t0 = initial.t
    t_end = t0 + horizon
    sample_times = np.arange(t0, t_end + 0.5 * sample_dt, sample_dt)
    if sample_times[-1] < t_end - 1e-15:
        sample_times = np.append(sample_times, t_end)

    # Knots: all instants where the command may change.
    bps = [b for b in schedule.breakpoints() if t0 < b < t_end]
    knots = np.unique(np.array([t0] + bps + [t_end]))

    v = initial.v_o
    clamped = False
    out_v = np.empty_like(sample_times)
    out_d = np.empty_like(sample_times)
    out_f = np.empty_like(sample_times)
    si = 0
    for k in range(len(knots) - 1):
        a, b = knots[k], knots[k + 1]
        duty, fst = schedule.eval(a)
        tau = params.r_load * params.c_o
        v_inf = steady_state_vo(params.i_ls_amp, params.r_load, duty, fst)
        # emit samples inside [a, b)
        while si < len(sample_times) and sample_times[si] < b - 1e-15:
            ts = sample_times[si]
            vs = v_inf + (v - v_inf) * math.exp(-(ts - a) / tau)
            if vs < 0.0:
                if vs < _V_NEG_TOL:
                    clamped = True
                vs = max(vs, 0.0)
            out_v[si] = vs
            out_d[si] = duty
            out_f[si] = fst
            si += 1
        v = v_inf + (v - v_inf) * math.exp(-(b - a) / tau)
        if v < 0.0:
            if v < _V_NEG_TOL:
                clamped = True
            v = 0.0
    # trailing samples at exactly t_end
    duty, fst = schedule.eval(knots[-1] - 1e-15)
    while si < len(sample_times):
        out_v[si] = max(v, 0.0)
        out_d[si] = duty
        out_f[si] = fst
        si += 1
    return AveragedTrajectory(t=sample_times, v_o=out_v, duty=out_d,
                              phase_delay_norm=out_f, clamped=clamped)


@dataclass(frozen=True)
class DutyCurveRow:
    """One point of an output-voltage-versus-duty sweep."""
    r_load: float
    duty: float
    v_o: float
    t_f: float
    regulable: bool
    error: str = ""


def vo_vs_duty_curve(params: ValidatedParams, r_values: Sequence[float],
                     d_grid: Sequence[float],
                     exact: bool = False) -> list:
    """Output voltage versus duty for several loads.

    Each point is a converged operating point (fall time self-consistent
    with the output voltage).  Solver failures are recorded per row instead
    of aborting the sweep.
    """
    if len(r_values) == 0 or len(d_grid) == 0:
        raise NonPositiveParameter("grid size", 0)
    rows = []
    for r in r_values:
        p_r = params.with_load(r)
        for d in d_grid:
            try:
                op = solve_operating_point(p_r, d, exact=exact)
                rows.append(DutyCurveRow(r_load=r, duty=d, v_o=op.v_o,
                                         t_f=op.t_f, regulable=op.regulable))
            except Exception as exc:  # per-row propagation, sweep continues
                rows.append(DutyCurveRow(r_load=r, duty=d, v_o=float("nan"),
                                         t_f=float("nan"), regulable=False,
                                         error=type(exc).__name__))
    return rows
