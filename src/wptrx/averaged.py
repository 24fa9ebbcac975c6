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

import bisect
from dataclasses import dataclass
from enum import Enum
import math
from typing import Sequence

import numpy as np

from .analytic import (PHASE_DELAY_MAX, TWO_PI, solve_operating_point,
                       steady_state_vo)
from .errors import NonPositiveParameter, WptrxError
from .params import ValidatedParams, require_positive

# Integration undershoot below this is clamped to zero and flagged; the
# rectifier cannot drive its output negative.
_V_NEG_TOL = -1e-6


@dataclass(frozen=True)
class AveragedState:
    """Slow-model state: output voltage (V) at time t (s)."""
    v_o: float
    t: float


class TfMode(Enum):
    """How the phase delay inside a schedule is produced: PINNED, a
    constant value supplied by the caller, is the one mode."""
    PINNED = "pinned"


class DutySchedule:
    """Piecewise-constant (duty, phase-delay) command profile.

    ``times`` are segment start instants, finite and strictly increasing
    from 0; ``duties`` (in (0, 1)) and ``fsts`` (f_s*t_f in [0, 0.25)) the
    per-segment values.
    """

    def __init__(self, times: Sequence[float], duties: Sequence[float],
                 fsts: Sequence[float]):
        if len(times) != len(duties) or len(times) != len(fsts):
            raise ValueError("times, duties, fsts must have equal length")
        if times[0] != 0.0:
            raise NonPositiveParameter("first segment start", times[0], "= 0")
        for a, b in zip(times, times[1:]):
            require_positive(segment_length=b - a)
        for d, fst in zip(duties, fsts):
            require_positive(below=1.0, duty=d)
            require_positive(allow_zero=True, below=PHASE_DELAY_MAX,
                             phase_delay_norm=fst)
        self.times = tuple(float(t) for t in times)
        self.duties = tuple(float(d) for d in duties)
        self.fsts = tuple(float(x) for x in fsts)

    @classmethod
    def constant(cls, duty: float, phase_delay_norm: float) -> "DutySchedule":
        return cls((0.0,), (duty,), (phase_delay_norm,))

    @classmethod
    def steps(cls, times: Sequence[float], duties: Sequence[float],
              params: ValidatedParams, mode: TfMode,
              pinned_fst: float) -> "DutySchedule":
        """Stepped duties under one pinned phase delay.  ``params`` and
        ``mode`` are not read; the benchmark's design pass passes them."""
        return cls(times, duties, [pinned_fst] * len(times))

    def eval(self, t: float) -> tuple:
        """(duty, phase delay) in force at ``t``."""
        idx = max(bisect.bisect_right(self.times, t) - 1, 0)
        return self.duties[idx], self.fsts[idx]


@dataclass(frozen=True)
class AveragedTrajectory:
    """Sampled solution of the averaged model."""
    t: np.ndarray
    v_o: np.ndarray
    duty: np.ndarray
    phase_delay_norm: np.ndarray
    clamped: bool  # True if the solution undershot zero and was held


def averaged_rhs(v_o: float, duty: float, phase_delay_norm: float,
                 params: ValidatedParams) -> float:
    """dv_o/dt of the averaged model (V/s)."""
    phi = TWO_PI * phase_delay_norm
    k = params.i_ls_amp / TWO_PI * (
        math.cos(phi) - math.cos(TWO_PI * duty + phi))
    return (k - v_o / params.r_load) / params.c_o


def integrate_averaged(initial: AveragedState, schedule: DutySchedule,
                       horizon: float, params: ValidatedParams,
                       sample_dt: float = 1e-5) -> AveragedTrajectory:
    """Integrate the averaged model over ``horizon`` seconds.

    The schedule is advanced with the exact exponential closed form between
    its breakpoints.  Output is sampled every ``sample_dt`` from the start
    and once more at the end of the horizon; no sample lies past it.
    """
    require_positive(horizon=horizon, sample_dt=sample_dt)
    require_positive(allow_zero=True, v_o=initial.v_o, t=initial.t)
    t0 = initial.t
    t_end = t0 + horizon
    n_inside = max(1, math.ceil(horizon / sample_dt - 1e-9))
    sample_times = np.append(t0 + sample_dt * np.arange(n_inside), t_end)

    # Knots: all instants where the command may change.
    knots = [t0] + [b for b in schedule.times if t0 < b < t_end] + [t_end]
    edges = [0, *np.searchsorted(sample_times, knots[1:-1]),
             len(sample_times)]

    tau = params.r_load * params.c_o
    v = initial.v_o
    clamped = False
    out_v = np.empty_like(sample_times)
    for a, b, lo, hi in zip(knots, knots[1:], edges, edges[1:]):
        duty, fst = schedule.eval(a)
        v_inf = steady_state_vo(params.i_ls_amp, params.r_load, duty, fst)
        # the samples in [a, b), then b itself, which starts the next span
        span = np.append(sample_times[lo:hi], b)
        v_span = v_inf + (v - v_inf) * np.exp((a - span) / tau)
        clamped |= bool(v_span.min() < _V_NEG_TOL)
        np.maximum(v_span, 0.0, out=v_span)
        out_v[lo:hi] = v_span[:-1]
        v = v_span[-1]
    segment = np.searchsorted(schedule.times, sample_times, "right") - 1
    return AveragedTrajectory(t=sample_times, v_o=out_v,
                              duty=np.take(schedule.duties, segment),
                              phase_delay_norm=np.take(schedule.fsts, segment),
                              clamped=clamped)


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
                     d_grid: Sequence[float]) -> list:
    """Output voltage versus duty for several loads.

    Each point is a converged operating point (fall time self-consistent
    with the output voltage).  Solver failures (WptrxError) are recorded
    per row instead of aborting the sweep; any other exception propagates.
    """
    if len(r_values) == 0 or len(d_grid) == 0:
        raise NonPositiveParameter("grid size", 0)
    rows = []
    for r in r_values:
        p_r = params.with_load(r)
        for d in d_grid:
            try:
                op = solve_operating_point(p_r, d)
                rows.append(DutyCurveRow(r_load=r, duty=d, v_o=op.v_o,
                                         t_f=op.t_f, regulable=op.regulable))
            except WptrxError as exc:  # per-row record, sweep continues
                rows.append(DutyCurveRow(r_load=r, duty=d, v_o=float("nan"),
                                         t_f=float("nan"), regulable=False,
                                         error=type(exc).__name__))
    return rows
