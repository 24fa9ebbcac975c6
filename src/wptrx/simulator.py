"""Event-driven simulation of the five-interval switching cycle.

One carrier period of the rectifier, with the cycle clock zeroed at the
positive-going zero crossing of the coil current:

  I   both devices off; the current charges the diode capacitance and
      discharges the switch capacitance through the node sum C_S1 + C_D1
      until the switch voltage reaches zero (natural zero-voltage turn-on).
  II  switch path conducting, positive current half-cycle: the coil current
      feeds the output capacitor and load.
  III same conduction topology, negative half-cycle (the current zero
      crossing is a bookkeeping event, not a topology change).
  IV  both devices off after gate turn-off; the negative current swings the
      node back until the diode voltage reaches zero.
  V   diode conducting; the current freewheels, the output capacitor alone
      feeds the load.  The diode turns off at the next current zero
      crossing, i.e. with zero current.

Every interval is analytically integrable (RC exponentials and
sinusoid-driven RC forms), so the simulator composes closed forms.  The
State IV end (the diode capacitance reaching zero) is closed-form; the
State I end (the switch voltage reaching zero) is one Newton step from the
lossless closed form where an a-priori bound puts it within 1e-16 s of the
root, and safeguarded Newton steps to 1e-13 s elsewhere.  Each output ripple
extreme (a zero of dv_o/dt on a conduction segment) is bracketed in closed
form and the bracket narrowed to 1e-13 s.  No step size exists anywhere.

All of a cycle's arithmetic lives in one private kernel, ``_cycle``, which
takes and returns plain floats: the boundary state, the duty and a tuple
of the receiver's constants at one load, source amplitude and gate delay
in, the next state, the cycle mean and the event times and closed-form
coefficients out.  ``_cycle_consts`` builds that tuple in two parts:
``_gate_terms`` (the time constant, the cos and sin of the fixed phases and
the gate delay's decay and phase terms), which checks the gate delay, and
``_amplitude_consts``, which adds the terms the source amplitude scales.
``run``, ``periodic_steady_state`` and ``cycle_linearization`` build it
once per call.  The closed-loop run builds both parts once, then the gate
part again only when the live load or the fed-forward delay moves, and the
amplitude part again when any of the three does.

Only ``run`` keeps what its cycles did, in one record per run: a
``RunResult`` holding the receiver, the command, ``_cycle``'s outputs as
``CycleColumns`` (one numpy array per output, one row per cycle; ``th4`` is
NaN where the node never reaches zero) and a ``SegmentTable`` built once
from those columns, one row per state a cycle spent time in.  The sampler
and ``cycle_diagnostics`` (the ledger, ripple extremes and device peaks, as
``DiagnosticColumns``) evaluate that table's closed forms as array
expressions over all its rows at once, and reduce each cycle's rows over a
(cycles, 5) matrix of slots; ``cycle_diagnostics`` keeps every bit of the
scalar arithmetic by taking its transcendentals from ``math``.  The
spectrum reads the table as ``_Seg`` rows, and the event columns are
array expressions over the cycle columns.
The closed-loop run, the orbit solve (one bracketed root in v_o, as the
closed-loop orbit is one in the duty) and the linearization step ``_cycle``
itself and build no records; ``run`` is the one public way to step the
simulator.

If the commanded gate delay arrives before the switch voltage has fallen to
zero, turn-on is forced: the residual switch-capacitor energy
(C_S1*v_CS1^2/2) is logged as a hard-switching loss, the diode capacitance
is topped up from the output capacitor (charge-conserving), and the cycle
continues in the conduction topology.

Energy ledger convention: the two commutation capacitances both terminate
at the switching node, so their stored energy is tracked as the node energy
C_sum*v_node^2/2.  While the conduction clamp holds the node on the output
rail, the per-interval equations above move the node with v_o without
modelling the corresponding rail current; the ledger exposes that artifact
flow explicitly as ``e_node_tracking`` (of order C_sum/C_o times the ripple
relative to the throughput).  With it the per-cycle identity

    e_in + e_node_tracking = e_load + de_stored + e_hard_switch

closes exactly (to float roundoff) on every cycle without hard switching;
the residual of a hard-switched cycle equals the (unlogged) two-capacitor
transfer loss of the diode-capacitance top-up.
"""

from dataclasses import dataclass
from enum import IntEnum
from functools import cache, cached_property
from itertools import repeat
import math
from typing import NamedTuple, Sequence

import numpy as np

from .analytic import TWO_PI
from .errors import (GateOverrun, NoConvergence, NonPositiveParameter,
                     ZeroGainOperatingPoint)
from .params import ValidatedParams, require_positive
from .rootfind import bisect_root

# Event localization tolerance (s), and the distance from the root within
# which _turn_on_time's bound accepts its one Newton step (s).
T_EVENT_TOL = 1e-13
_ONE_STEP_TOL = 1e-3 * T_EVENT_TOL
_MAX_EVENT_ITER = 100

# Periodic steady state: largest one-cycle change |P(x) - x| of the boundary
# state accepted as "on the orbit" (V), and the step at which v_cd1's start
# on an orbit without State V counts as settled.  v_o is a bracketed root,
# found with no derivative, so the soft/hard kink cannot stall it: on a
# seeded sweep of 2000 receivers with loads up to 10 kOhm (outputs up to
# 3.7 kV), and on table2 and fig7.cfg at 5 Ohm - 10 kOhm gated at 0.99, 1
# and 1.01 x the exact fall time, a cycle brought v_o back exactly; what is
# left is v_cd1's settling step, up to 9.5e-12 V on that sweep.
V_ORBIT_TOL = 1e-11

# ZVS verdict threshold, small against the 24 V scale: residual switch
# voltage at the gate edge (V)
V_ZVS_TOL = 10e-3

class SwitchingState(IntEnum):
    STATE_I = 1
    STATE_II = 2
    STATE_III = 3
    STATE_IV = 4
    STATE_V = 5


# the conduction states, where the node is clamped to the output rail
_CLAMPED = (SwitchingState.STATE_II, SwitchingState.STATE_III)


@dataclass(frozen=True)
class ModulationCommand:
    """Per-cycle gate command of the hybrid modulation: duty ratio and gate
    delay t_f after the current zero crossing (s).  The equivalent phase
    angle is ``analytic.phase_angle(duty, f_s * t_f)``.

    The command itself checks nothing.  The modulation's range of the
    delay, f_s*t_f in [0, 1/4) (``analytic.PHASE_DELAY_MAX``), is checked
    where a delay is set as a design input: by the config's
    ``phase_delay_norm``, by ``analytic.duty_bounds`` and by
    ``averaged.DutySchedule``.  The simulator accepts any finite t_f >= 0
    (``_cycle_consts`` checks that) up to a gate-off edge past the period's
    end (``GateOverrun``), since a delay derived from a state can land past
    1/4: ``analytic.solve_operating_point(exact=True)`` gives
    f_s*t_f = 0.367 at D = 0.22 on fig7.cfg's receiver at 5 kOhm, and that
    command has a periodic orbit."""
    duty: float
    t_f: float


class SwitchCycleState(NamedTuple):
    """Continuous state at a cycle boundary (the positive-going current zero
    crossing, where State I begins): the output voltage and the diode
    capacitance voltage, which is zero after a cycle that reached State V.
    The switch voltage is v_o - v_cd1.  It is the x = (v_o, v_cd1) that
    the orbit solve and ``cycle_linearization`` take."""
    v_o: float
    v_cd1: float = 0.0


class _Seg(NamedTuple):
    """One analytic segment, times relative to the cycle start.

    Output voltage: v_o(th) = h * exp(-(th-t_ref)/tau) + p_s sin(w th)
    + p_c cos(w th).  Without source-to-rail flow (States I, IV and V) the
    output capacitor only discharges into the load: p_s = p_c = 0.
    ``t_ref`` is the exponential's reference instant; it equals t0 except on
    the State-III half of a conduction interval, which keeps the State-II
    reference (the current zero crossing is not a restart).
    The node voltage (diode capacitance voltage) follows from ``state``:
      I, IV:   va(th) = va0 + amp * (cos(w t_ref) - cos(w th))
               (both devices off: the coil current integrates on the node)
      II, III: va = v_o(th)      (conduction clamp)
      V:       va = 0            (diode conducting)
    """
    t0: float
    t1: float
    t_ref: float
    state: SwitchingState
    h: float
    p_s: float
    p_c: float
    va0: float

    def v_o(self, th: float, tau: float, w: float) -> float:
        return (self.h * math.exp(-(th - self.t_ref) / tau)
                + self.p_s * math.sin(w * th) + self.p_c * math.cos(w * th))


class CycleColumns(NamedTuple):
    """A run's cycles as columns, one numpy array each, one row per cycle:
    v_o at both boundaries and its cycle mean, the natural commutation
    intervals (NaN where one never completed), the soft-switching verdicts,
    the boundary node voltage and the rest of ``_cycle``'s outputs.  ZCS is
    ``reached_state_v``: the cycle ends at the current zero in State V, so
    the diode turns off at zero current.  The times are relative to the
    cycle's start; ``th4`` is NaN where the node never reaches zero.
    """
    v_o_start: np.ndarray
    v_o_end: np.ndarray
    v_o_mean: np.ndarray
    t_f_meas: np.ndarray
    t_r_meas: np.ndarray
    zvs_ok: np.ndarray
    v_cs1_at_gate: np.ndarray
    hard_switched: np.ndarray
    reached_state_v: np.ndarray
    e_hard_switch: np.ndarray
    v_cd1_start: np.ndarray
    v_cd1_end: np.ndarray
    gate_off: np.ndarray
    th1: np.ndarray      # the end of State I
    th_iv: np.ndarray    # the start of State IV
    th4: np.ndarray      # the end of State IV
    va_pre_snap: np.ndarray   # the node where State I ends, before a top-up
    v_at_th1: np.ndarray      # v_o where conduction starts
    v_at_iv: np.ndarray       # v_o where State IV starts
    v_at_th4: np.ndarray      # v_o where State V starts (see _cycle)
    h: np.ndarray             # the conduction closed form (see _Seg)
    va_end_iv: np.ndarray     # the node where State IV ends


class SegmentTable(NamedTuple):
    """A run's segments as columns with one row per segment, cycle by cycle
    in time order; a row's first eight fields are a ``_Seg``'s.  ``first``
    holds each cycle's first row and, last, the number of rows."""
    t0: np.ndarray
    t1: np.ndarray
    t_ref: np.ndarray
    state: np.ndarray
    h: np.ndarray
    p_s: np.ndarray
    p_c: np.ndarray
    va0: np.ndarray
    first: np.ndarray


class DiagnosticColumns(NamedTuple):
    """The charge/energy ledger, the output ripple extremes and the device
    peaks of a run's cycles, one array each, one row per cycle; built by
    ``cycle_diagnostics``.

    ``de_stored`` uses the node-referenced convention described in the
    module docstring, so ``e_in + e_node_tracking - e_load - de_stored -
    e_hard_switch`` is zero (to roundoff) for every soft-switched cycle.
    """
    q_f: np.ndarray
    q_r: np.ndarray
    e_in: np.ndarray
    e_load: np.ndarray
    e_node_tracking: np.ndarray
    de_stored: np.ndarray
    v_o_ripple_pp: np.ndarray
    v_o_min: np.ndarray
    v_o_max: np.ndarray
    v_cs1_peak: np.ndarray
    v_cd1_peak: np.ndarray


class EventColumns(NamedTuple):
    """A run's events in time order (see ``RunResult.events``): absolute
    times and names, the names as ASCII bytes (``b"gate_on"``)."""
    t: np.ndarray
    name: np.ndarray


# the six event slots of a soft (row 0) and a hard-switched (row 1)
# cycle, and _EARLIER[j, l]: slot l precedes slot j in a row (both made
# flat and reshaped: numpy reads a nested list through code that nothing
# else in a capture runs, and that would stay paged in for these alone)
_EVENT_NAMES = np.array(
    [b"cycle_start", b"cs1_zero", b"gate_on", b"ils_zero", b"gate_off",
     b"cd1_zero", b"cycle_start", b"gate_on", b"hard_switch", b"ils_zero",
     b"gate_off", b"cd1_zero"]).reshape(2, 6)
_EARLIER = np.array([l < j for j in range(6)
                     for l in range(6)]).reshape(6, 6)


@dataclass(frozen=True, eq=False)
class RunResult:
    """``n_cycles`` cycles of one command on one receiver, starting at
    t = 0: the receiver, the command, ``_cycle``'s outputs as columns, the
    segment table built from them and the state after the last cycle."""
    params: ValidatedParams
    cmd: ModulationCommand
    columns: CycleColumns
    segments: SegmentTable
    final_state: SwitchCycleState

    @cached_property
    def events(self) -> EventColumns:
        """The run's events in time order, as columns, each cycle's sorted
        by time (stably: tied events keep the order below): its start, the
        switch's natural turn-on (cs1_zero) before the gate edge or the
        forced one (hard_switch) after it, the current zero at T/2, gate
        off and, where the node reaches zero, cd1_zero."""
        c = self.columns
        ts = self.params.t_period
        hard = c.hard_switched
        # one row of six slots per cycle, in that order; th4 is NaN where
        # the node never reaches zero
        t = np.empty((len(hard), 6))
        t[:, 0] = 0.0
        t[:, 1] = np.where(hard, self.cmd.t_f, c.th1)
        t[:, 2] = np.where(hard, c.th1, self.cmd.t_f)
        t[:, 3] = 0.5 * ts
        t[:, 4] = c.gate_off
        t[:, 5] = c.th4
        t += np.arange(len(hard))[:, None] * ts
        # each slot's place in the run: where its cycle's row starts, plus
        # the slots of the row that come before it in time, or tie with it
        # in time and come before it in the row (a NaN counts as +inf, so
        # it comes last); 36 comparisons a row cost less than sorting six
        # values, and run no sort code (argsort's first call pages in
        # 128 kB of it)
        key = np.where(np.isnan(t), np.inf, t)
        place = ((key[:, None, :] < key[:, :, None])
                 | (key[:, None, :] == key[:, :, None]) & _EARLIER
                 ).sum(axis=2)
        place += 6 * np.arange(len(hard))[:, None]
        times, names = np.empty(t.size), np.empty(t.size, _EVENT_NAMES.dtype)
        times[place] = t
        names[place] = _EVENT_NAMES[hard.view(np.uint8)]
        kept = ~np.isnan(times)
        return EventColumns(times[kept], names[kept])


@dataclass
class Waveform:
    """Uniformly sampled channels of cycles."""
    t: np.ndarray
    i_ls: np.ndarray
    v_cs1: np.ndarray
    v_cd1: np.ndarray
    v_o: np.ndarray
    gate: np.ndarray
    state: np.ndarray


# ---------------------------------------------------------------------------
# the ledger and the ripple extremes, as columns over the segment table
# ---------------------------------------------------------------------------

def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function of one float, of each element of ``x``.
    numpy's exp, expm1 and arccos differ from libm's in the last place on
    about 5 %, 9 % and 10 % of uniform arguments in [-1, 1] (x86-64,
    glibc, numpy 2.4), and the diagnostics keep every bit of the scalar
    arithmetic, so they take each transcendental from ``math``."""
    return np.fromiter(map(fn, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each element of ``x`` as Python takes it, by libm's
    pow, which differs from numpy's v * v on about 1 in 1200 arguments."""
    return np.fromiter(map(pow, x.tolist(), repeat(2)), float, len(x))


def _terms_at(th: np.ndarray, h: np.ndarray, t_ref: np.ndarray, tau: float,
              w: float) -> tuple:
    """sin(w th), cos(w th) and h e^{-(th - t_ref)/tau} elementwise, the
    three terms of v_o(th) on segments with those h and t_ref (see _Seg):
    v_o = he + p_s s + p_c c."""
    x = w * th
    return (_libm(math.sin, x), _libm(math.cos, x),
            h * _libm(math.exp, -(th - t_ref) / tau))


def _conduction_extremes(seg: SegmentTable, rows: np.ndarray, ends: tuple,
                         consts: tuple, r_load: float) -> np.ndarray:
    """v_o at each root of g(th) = i(th) - v_o(th)/R, which is C_o dv_o/dt,
    inside the conduction rows ``rows`` of ``seg``, stepped under
    ``_cycle_consts`` ``consts`` at load r_load: one row per segment row,
    the roots of its first and second piece, NaN where a piece has none.
    ``ends`` holds sin(w th) and v_o at the rows' starts, then at their
    ends.

    With e = h exp(-(th - t_ref)/tau), the load's exponential share of v_o,
    g = S - e/R, where S = a sin(w th) + b cos(w th), a = i_amp - p_s/R and
    b = -p_c/R.  A row is cut where S turns (w th = atan2(a, b) + k pi);
    turns are T/2 apart and no conduction row is longer than T/2, so a row
    has at most one.  A piece is searched where g changes sign across it.
    As S and e are both monotone on a piece, its root lies between the
    instants where S meets the values of e/R at the piece's two ends (acos
    on the piece's half wave).  That map, applied twice, leaves a bracket
    below 2e-14 s on the built-in receivers across loads and duties, as
    each round shrinks it by a factor of order w tau.  Widened by
    T_EVENT_TOL/4 each side against rounding, it goes to ``bisect_root``,
    one call per root, which checks the sign change and narrows it to
    T_EVENT_TOL where it is still wider (near a turn, where S is flat); on
    those receivers g is evaluated only at the bracket's two ends.  A g of
    exactly zero at a piece's start is a root there.

    Every step is a column over the rows, pieces or brackets, with the
    arithmetic and operation order of a search of one segment at a time
    (the tests keep one as the reference); min(a, b), max(a, b) and
    sorted() are comparisons in the builtins' operand order, so ties give
    the same float.
    """
    _, w, tau, _, i_amp, _, p_s, p_c = consts[:8]
    t0, t1, t_ref, h = seg.t0[rows], seg.t1[rows], seg.t_ref[rows], \
        seg.h[rows]
    s0, v0, s1, v1 = ends
    a, b = i_amp - p_s / r_load, -p_c / r_load
    half = math.pi / w
    turn = math.atan2(a, b) / w
    # the first turn at or after t0, stepped past t0 if it rounds onto it
    th = turn + half * np.ceil((t0 - turn) / half)
    th = np.where(th > t0, th, th + half)
    assert (th + half >= t1).all(), "a conduction row spans two turns of S"
    has_cut = th < t1
    # g and v_o at the cut, or at t1 where there is none
    g1 = i_amp * s1 - v1 / r_load
    g_cut, v_cut = g1.copy(), v1.copy()
    s, c, e = _terms_at(th[has_cut], h[has_cut], t_ref[has_cut], tau, w)
    v_cut[has_cut] = e + p_s * s + p_c * c
    g_cut[has_cut] = i_amp * s - v_cut[has_cut] / r_load
    # a row's pieces, [t0, cut] and [cut, t1], or [t0, t1] alone
    cut = np.where(has_cut, th, t1)
    lo, hi = np.column_stack((t0, cut)), np.column_stack((cut, t1))
    g_lo = np.column_stack((i_amp * s0 - v0 / r_load, g_cut))
    g_hi = np.column_stack((g_cut, g1))
    piece = np.column_stack((np.ones(len(t0), bool), has_cut))
    at_lo = piece & (g_lo == 0.0)
    out = np.where(at_lo, np.column_stack((v0, v_cut)), np.nan)
    sign_change = piece & ~at_lo & (g_lo * g_hi < 0.0)
    lo, hi = lo[sign_change], hi[sign_change]
    k = np.nonzero(sign_change)[0]
    h_k, tr_k = h[k], t_ref[k]
    # on its half wave S = (-1)**j hypot(a, b) cos(w (th - start)), and
    # x <- the instant where S = e(x)/R maps each end inward
    j = np.floor((0.5 * (lo + hi) - turn) / half)
    start = (turn + j * half)[:, None]
    scale = (np.where(j % 2 == 1, -h_k, h_k)
             / (math.hypot(a, b) * r_load))[:, None]
    x = np.column_stack((lo, hi))
    for _ in range(2):
        ratio = scale * _libm(math.exp, -(x - tr_k[:, None]) / tau)
        x = start + _libm(math.acos, np.clip(ratio, -1.0, 1.0)) / w
    # sorted, then max(lo, x0 - tol/4) and min(hi, x1 + tol/4)
    swap = x[:, 1] < x[:, 0]
    x0 = np.where(swap, x[:, 1], x[:, 0]) - 0.25 * T_EVENT_TOL
    x1 = np.where(swap, x[:, 0], x[:, 1]) + 0.25 * T_EVENT_TOL
    lo = np.where(x0 > lo, x0, lo)
    hi = np.where(x1 < hi, x1, hi)
    roots = []
    for lo_k, hi_k, h_r, t_r in zip(lo.tolist(), hi.tolist(), h_k.tolist(),
                                    tr_k.tolist()):
        def g(th, h=h_r, t_ref=t_r):
            s = math.sin(w * th)
            return i_amp * s - (h * math.exp(-(th - t_ref) / tau) + p_s * s
                                + p_c * math.cos(w * th)) / r_load
        roots.append(bisect_root(g, lo_k, hi_k, T_EVENT_TOL))
    s, c, e = _terms_at(np.array(roots), h_k, tr_k, tau, w)
    out[sign_change] = e + p_s * s + p_c * c
    return out


# ---------------------------------------------------------------------------
# the cycle engine
# ---------------------------------------------------------------------------

def _turn_on_time(v0: float, va0: float, amp: float, w: float, tau: float,
                  hi: float) -> float:
    """Natural end of State I: the root of the switch voltage
    f(th) = v0 e^{-th/tau} - (va0 + amp (1 - cos w th)) on (0, hi], given
    f(0) > 0 >= f(hi).

    The seed is the lossless root th0 (tau -> inf, the
    ``analytic.fall_time_exact`` form): sin^2(w th0/2) = s =
    (v0 - va0)/(2 amp), so f(th0) = g0 = v0 expm1(-th0/tau) and
    sin(w th0) = 2 sqrt(s (1 - s)) come without another trig call.  One
    Newton step from th0 < hi, th1 = th0 - step with step = g0/d0 and
    d0 = f'(th0) < 0, is returned without evaluating f where this a-priori
    bound (Kantorovich's, Ortega & Rheinboldt 1970, 12.6) puts it within
    _ONE_STEP_TOL of the root.  On J = [th0 - 2 step, th0],
    |f'(th)| >= amp w sin(w th) >= m = amp w (sin(w th0) - 2 w step) and
    |f''| <= M = v0/tau^2 + amp w^2.  If 2m >= |d0| then
    f(th0 - 2 step) >= g0 + 2 m step >= 0, so the root th* lies in J (and
    J in (0, pi/w), where sin > 0); Taylor's theorem at th0 then gives
    |th1 - th*| = |f''(xi)| (th* - th0)^2 / (2 |d0|) <= 2 M step^2 / m.
    The step is taken when that, plus 4 eps th0 + 16 eps s amp/m (eps the
    float epsilon) for the rounding of th0 (at most 6 eps s/(w sin(w th0))
    through the asin, and amp/m >= 1/(w sin(w th0))) and of the step, is
    at most _ONE_STEP_TOL.

    Elsewhere (the bound unmet, s >= 1 or th0 >= hi) Newton steps on f with
    its analytic derivative continue from min(th0, hi), inside the sign
    bracket [lo, hi]: a step that leaves it is replaced by the bracket
    midpoint (Brent 1973, ch. 4).  They stop after a step shorter than
    T_EVENT_TOL; the point reached is then off the root by the order of
    that step squared.
    """
    lo = 0.0
    s = (v0 - va0) / (2.0 * amp)
    th = hi
    if s < 1.0:
        r = math.sqrt(s)
        th0 = 2.0 * math.asin(r) / w
        if th0 < hi:
            th = th0
            e = math.expm1(-th / tau)
            sin0 = 2.0 * r * math.sqrt(1.0 - s)
            aw = amp * w
            slope = -v0 * (1.0 + e) / tau - aw * sin0
            step = v0 * e / slope
            m = aw * (sin0 - 2.0 * w * step)
            # the bound above, multiplied through by m > 0
            if 2.0 * m >= -slope and (
                    2.0 * (v0 / (tau * tau) + aw * w) * step * step
                    + 2.0 ** -48 * s * amp
                    <= m * (_ONE_STEP_TOL - 2.0 ** -50 * th)):
                return th - step
    for _ in range(_MAX_EVENT_ITER):
        decay = v0 * math.exp(-th / tau)
        g = decay - (va0 + amp * (1.0 - math.cos(w * th)))
        if g == 0.0:
            return th
        if g > 0.0:
            lo = th
        else:
            hi = th
        slope = -decay / tau - amp * w * math.sin(w * th)
        # gap falls on the bracket when v0 > 0; any other slope, like a
        # step out of the bracket, takes the midpoint
        nxt = th - g / slope if slope < 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - th) <= T_EVENT_TOL:
            return nxt
        th = nxt
    raise NoConvergence(f"State I turn-on not located in {_MAX_EVENT_ITER} "
                        f"steps: v0={v0!r}, va0={va0!r}, amp={amp!r}")


def _gate_terms(params: ValidatedParams, r_load: float, t_f: float) -> tuple:
    """The terms of ``_cycle_consts`` fixed while the load r_load and the
    gate delay t_f are, whatever the source amplitude, in its order, then
    the factors of its amplitude terms: w c_sum, r_load, 1 + (w tau)^2,
    -w tau and 1 - cos w hi.  Raises NonPositiveParameter for a negative
    or non-finite t_f: the delay is checked here, once per build, not on
    every cycle."""
    if not 0.0 <= t_f < math.inf:
        require_positive(allow_zero=True, t_f=t_f)
    ts = params.t_period
    w = params.omega
    tau = r_load * params.c_o
    half = 0.5 * ts
    hi = min(t_f, half)
    return (ts, w, tau, half, math.cos(w * half), math.sin(w * half),
            math.cos(w * ts), params.c_d1, params.c_o + params.c_d1, t_f, hi,
            math.exp(-hi / tau), math.cos(w * t_f), math.sin(w * t_f),
            math.exp(-t_f / tau), -math.expm1(-t_f / tau),
            w * params.c_sum, r_load, 1.0 + (w * tau) ** 2, -w * tau,
            1.0 - math.cos(w * hi))


def _amplitude_consts(gate: tuple, i_amp: float) -> tuple:
    """``_cycle_consts`` at the source amplitude i_amp from its
    ``_gate_terms`` ``gate``, with the same bits: no libm call, so a source
    ramp with the load and the delay held rebuilds only this part."""
    w_c_sum, r_load, den, w_tau, swing_hi = gate[16:]
    amp = i_amp / w_c_sum
    p_s = i_amp * r_load / den
    p_c = w_tau * p_s
    # p_c = 0 where p_s = 0, so p_s alone tells whether the source feeds
    return (gate[:4] + (i_amp, amp, p_s, p_c, p_s != 0.0) + gate[4:12]
            + (amp * swing_hi,) + gate[12:16])


def _cycle_consts(params: ValidatedParams, r_load: float, i_amp: float,
                  t_f: float) -> tuple:
    """What ``_cycle`` reads of the receiver at load r_load and source
    amplitude i_amp under the gate delay t_f, all fixed while those three
    are: ts, w, tau, T/2, i_amp, amp, p_s, p_c, whether the source feeds
    the rail while the switch conducts, cos and sin of w T/2, cos w T, c_d1,
    c_o + c_d1; then t_f, hi = min(t_f, T/2), e^{-hi/tau},
    amp (1 - cos w hi), cos and sin of w t_f, e^{-t_f/tau} and
    1 - e^{-t_f/tau}.  Built as ``_amplitude_consts`` of ``_gate_terms``,
    which checks t_f (see there); ``run``, the orbit solves and the
    linearization build it once per call, and the closed-loop run rebuilds
    each part only when what it depends on moves.  Only t_f >= 0 and finite
    is checked here: a delay with f_s*t_f past the modulation's 1/4 is
    accepted, and ``_cycle`` raises GateOverrun only when duty + f_s*t_f
    >= 1.  The 1/4 bound is checked where a delay is set as a design input
    (see ``ModulationCommand``)."""
    return _amplitude_consts(_gate_terms(params, r_load, t_f), i_amp)


def _cycle(v0: float, va0: float, duty: float, consts: tuple) -> tuple:
    """The arithmetic of one carrier period from the boundary state
    (v0, va0) under the duty; the receiver, its load, its source amplitude
    and the gate delay t_f come in as ``_cycle_consts``, which has checked
    t_f.

    Returns plain floats: the next v_o and v_cd1 and the cycle mean first,
    then what ``run`` keeps: gate_off, th1, hard, v_cs1_at_gate,
    va_pre_snap, v_at_th1, th_iv, h, v_at_iv, th4 (None when the node never
    reaches zero), va_end_iv, reached_v and v_at_th4 (see CycleColumns).
    Raises NonPositiveParameter for a duty outside (0, 1) and GateOverrun
    when the gate-off edge would pass the end of the period.

    The cycle mean integrates v_o over each segment [t0, t1] in closed
    form: tau coeff (1 - e^{-(t1 - t0)/tau}) for the exponential whose value
    at t0 is coeff, plus, while the source feeds the rail,
    (p_c sin - p_s cos)(w th) / w between the ends.  The segments' areas
    are added left to right in segment order (``sum()`` of floats rounds
    differently from Python 3.12 on), and the cos and sin of each event
    phase are taken once.  A hard cycle's State I ends at t_f, so it reads
    every State-I term from the constants.
    """
    # require_positive keeps the rule and its message; the chain only keeps
    # its call off the valid duty of every cycle
    if not 0.0 < duty < 1.0:
        require_positive(below=1.0, duty=duty)

    (ts, w, tau, half, i_amp, amp, p_s, p_c, flow, cos_half, sin_half,
     cos_ts, c_d1, c_o_d1, t_f, hi, decay_hi, rise_hi, cos_f, sin_f,
     decay_f, fill_f) = consts
    gate_off = t_f + duty * ts
    if gate_off >= ts:
        raise GateOverrun(f"duty + f_s*t_f = {duty + t_f / ts:.6g} >= 1")

    # integral of v_o over the cycle, segment by segment: the cycle mean
    area = 0.0

    # ---- State I: natural commutation, or forced at the gate edge ----
    natural = None
    if v0 - va0 <= 0.0:
        natural = 0.0
    elif (i_amp > 0.0 and hi > 0.0
          and v0 * decay_hi - (va0 + rise_hi) <= 0.0):
        natural = _turn_on_time(v0, va0, amp, w, tau, hi)

    hard = natural is None
    if hard:
        th1, cos_1, sin_1 = t_f, cos_f, sin_f
        v_at_th1 = v0 * decay_f
        va_pre_snap = va0 + amp * (1.0 - cos_1)
        v_cs1_at_gate = v_at_th1 - va_pre_snap
        # max(v_cs1_at_gate, 0.0).  Every cycle runs this, so it calls no
        # builtin min or max (a call costs several times a comparison); each
        # conditional keeps the builtin's operand order, min(a, b) as
        # ``b if b < a else a``, so NaN, -0.0 and ties give the same float
        v_cs1_at_gate = 0.0 if 0.0 > v_cs1_at_gate else v_cs1_at_gate
        if th1 > 0.0:
            area += tau * v0 * fill_f
        # diode capacitance top-up drawn from the output capacitor
        v_at_th1 -= v_cs1_at_gate * c_d1 / c_o_d1
    else:
        th1 = natural
        cos_1, sin_1 = math.cos(w * th1), math.sin(w * th1)
        # node value when conduction begins: the clamp pins it to the
        # output voltage on natural completion (the located event time
        # carries the solver tolerance; the clamp value does not)
        v_at_th1 = va_pre_snap = v0 * math.exp(-th1 / tau)
        v_cs1_at_gate = 0.0
        if th1 > 0.0:
            area += tau * v0 * -math.expm1(-th1 / tau)

    # ---- conduction: [th1, max(gate_off, half)], one closed form; State II
    # before the current zero crossing at T/2, State III after it ----
    th_iv = half if half > gate_off else gate_off
    h = v_at_th1 - p_s * sin_1 - p_c * cos_1
    cos_iv, sin_iv = math.cos(w * th_iv), math.sin(w * th_iv)
    if th1 < half:
        seg = tau * h * -math.expm1(-(half - th1) / tau)
        if flow:
            seg += (-p_s * cos_half + p_c * sin_half
                    + p_s * cos_1 - p_c * sin_1) / w
        area += seg
        t_iii, cos_iii, sin_iii = half, cos_half, sin_half
    else:
        t_iii, cos_iii, sin_iii = th1, cos_1, sin_1
    if th_iv > t_iii:
        seg = (tau * (h * math.exp(-(t_iii - th1) / tau))
               * -math.expm1(-(th_iv - t_iii) / tau))
        if flow:
            seg += (-p_s * cos_iv + p_c * sin_iv
                    + p_s * cos_iii - p_c * sin_iii) / w
        area += seg
    v_at_iv = (h * math.exp(-(th_iv - th1) / tau) + p_s * sin_iv
               + p_c * cos_iv)

    # ---- State IV: the node swings down toward the diode along
    # va(th) = v_at_iv + amp (cos w th_iv - cos w th).  On [th_iv, T] the
    # phase w th lies in [pi, 2 pi], where cos increases, so the zero is
    # the one root of cos w th = c; c > 1 means no zero before T ----
    th4 = None
    if v_at_iv <= 0.0:
        th4 = th_iv
    elif i_amp > 0.0:
        c = cos_iv + v_at_iv / amp
        if c <= 1.0:
            th4 = (TWO_PI - math.acos(c)) / w
            th4 = th_iv if th_iv > th4 else th4
            th4 = ts if ts < th4 else th4

    th4_eff = th4 if th4 is not None else ts
    if th4_eff > th_iv:
        area += tau * v_at_iv * -math.expm1(-(th4_eff - th_iv) / tau)
    va_end_iv = 0.0 if th4 is not None else \
        v_at_iv + amp * (cos_iv - cos_ts)

    # ---- State V: freewheel; v_o decays from the last segment's start ----
    reached_v = th4 is not None and th4 < ts
    t_last = th4 if reached_v else th_iv
    v_at_th4 = v_at_iv * math.exp(-(t_last - th_iv) / tau)
    if reached_v:
        area += tau * v_at_th4 * -math.expm1(-(ts - th4) / tau)

    v_end = v_at_th4 * math.exp(-(ts - t_last) / tau)
    # 0 when State V was reached; on a cycle that never freewheels the
    # switch-path diode caps the carried node voltage at the output rail
    return (v_end, v_end if v_end < va_end_iv else va_end_iv, area / ts,
            gate_off, th1, hard, v_cs1_at_gate, va_pre_snap, v_at_th1, th_iv,
            h, v_at_iv, th4, va_end_iv, reached_v, v_at_th4)


def run(params: ValidatedParams, cmd: ModulationCommand, n_cycles: int,
        initial: SwitchCycleState = SwitchCycleState(0.0)) -> RunResult:
    """Run ``n_cycles`` (an integer >= 1) carrier periods of the constant
    command ``cmd`` from the boundary state ``initial`` (by default an empty
    output capacitor), whose voltages must be finite and >= 0.
    ``cycle_diagnostics``, ``sample_waveform`` and ``spectrum`` read the
    result; ``periodic_steady_state`` gives a start on the orbit.  Raises
    NonPositiveParameter for a bad count, start, duty or gate delay, and
    GateOverrun when the gate-off edge would pass the end of the period.
    """
    require_positive(integer=True, n_cycles=n_cycles)
    require_positive(allow_zero=True, v_o=initial.v_o, v_cd1=initial.v_cd1)
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)
    v_o, v_cd1 = initial
    outputs = []
    for _ in range(n_cycles):
        out = _cycle(v_o, v_cd1, cmd.duty, consts)
        outputs.append(out)
        v_o, v_cd1 = out[0], out[1]
    # one row per output, th4's None as NaN
    (v_end, va_end, v_mean, gate_off, th1, hard, v_cs1_at_gate, va_pre_snap,
     v_at_th1, th_iv, h, v_at_iv, th4, va_end_iv, reached_v,
     v_at_th4) = np.array(outputs, dtype=float).T.copy()
    hard, reached_v = hard != 0.0, reached_v != 0.0
    columns = CycleColumns(
        v_o_start=np.concatenate(([initial.v_o], v_end[:-1])),
        v_o_end=v_end, v_o_mean=v_mean,
        t_f_meas=np.where(hard, np.nan, th1), t_r_meas=th4 - th_iv,
        zvs_ok=v_cs1_at_gate <= V_ZVS_TOL,
        v_cs1_at_gate=v_cs1_at_gate, hard_switched=hard,
        reached_state_v=reached_v,
        e_hard_switch=np.where(
            hard, 0.5 * params.c_s1 * v_cs1_at_gate * v_cs1_at_gate, 0.0),
        v_cd1_start=np.concatenate(([initial.v_cd1], va_end[:-1])),
        v_cd1_end=va_end, gate_off=gate_off, th1=th1, th_iv=th_iv, th4=th4,
        va_pre_snap=va_pre_snap, v_at_th1=v_at_th1, v_at_iv=v_at_iv,
        v_at_th4=v_at_th4, h=h, va_end_iv=va_end_iv)
    return RunResult(params=params, cmd=cmd, columns=columns,
                     segments=_segment_table(columns, consts),
                     final_state=SwitchCycleState(v_o, v_cd1))


def _segment_table(c: CycleColumns, consts: tuple) -> SegmentTable:
    """The segment table of the cycles ``c`` stepped under
    ``_cycle_consts`` ``consts``: one row per state each cycle spent time
    in, in order, so a row ends where the next starts and a cycle has at
    most five, each with t1 > t0: the slots of ``sample_waveform`` and
    ``cycle_diagnostics``.  ``_cycle``'s cycle mean integrates these same
    segments from its scalars, so the two must skip the same empty states.
    A loop, not array expressions: fig13 and fig14 run 4 and 1 cycles,
    where the fixed cost of some 30 numpy calls outweighed the loop's."""
    ts, _, _, half, _, _, p_s, p_c = consts[:8]
    rows, first = [], [0]
    for th1, th_iv, th4, h, v0, va0, v_at_iv, v_at_th4, reached_v in zip(*(
            col.tolist() for col in (
                c.th1, c.th_iv, c.th4, c.h, c.v_o_start, c.v_cd1_start,
                c.v_at_iv, c.v_at_th4, c.reached_state_v))):
        if th1 > 0.0:
            rows.append((0.0, th1, 0.0, 1, v0, 0.0, 0.0, va0))
        if th1 < half:
            rows.append((th1, half, th1, 2, h, p_s, p_c, 0.0))
        t_iii = half if half > th1 else th1
        if th_iv > t_iii:
            rows.append((t_iii, th_iv, th1, 3, h, p_s, p_c, 0.0))
        th4_eff = ts if math.isnan(th4) else th4
        if th4_eff > th_iv:
            rows.append((th_iv, th4_eff, th_iv, 4, v_at_iv, 0.0, 0.0,
                         v_at_iv))
        if reached_v:
            rows.append((th4, ts, th4, 5, v_at_th4, 0.0, 0.0, 0.0))
        first.append(len(rows))
    t0, t1, t_ref, state, h, p_s, p_c, va0 = np.array(rows).T.copy()
    return SegmentTable(t0=t0, t1=t1, t_ref=t_ref, state=state.astype(np.int8),
                        h=h, p_s=p_s, p_c=p_c, va0=va0, first=np.array(first))


def _seg_rows(table: SegmentTable) -> list:
    """The rows of ``table`` as _Seg, in order."""
    return list(map(_Seg._make, zip(*(col.tolist() for col in table[:8]))))


def cycle_diagnostics(result: RunResult) -> DiagnosticColumns:
    """The charge/energy ledger, the output ripple extremes and the device
    peaks of every cycle of ``result``, from its columns and segment table.

    Each formula runs once over all rows of the table as array
    expressions: the rail energy and the integral of v_o^2 of each segment
    in closed form, v_o at each segment's ends and the ripple extremes of
    the conduction segments (``_conduction_extremes``).  Each cycle's rows
    are then placed in order in its row of a (cycles, 5) slot matrix and
    added slot by slot from 0.0, or reduced by min and max over slots
    padded with +-inf.  The arithmetic and its order are those of a loop
    over the rows one segment at a time, bit for bit: the transcendentals
    and squares come from libm (see ``_libm``), never from numpy, and no
    sum is left to ``np.sum``'s pairwise order.  (The min and max may pick
    another of several equal candidates than Python's would, which only a
    -0.0 beside a 0.0 could show.)
    """
    params = result.params
    r_load, c_sum, c_o = params.r_load, params.c_sum, params.c_o
    consts = _cycle_consts(params, r_load, params.i_ls_amp, result.cmd.t_f)
    _, w, tau, _, i_amp, _, p_s, p_c = consts[:8]
    seg = result.segments
    t0, t1 = seg.t0, seg.t1
    s0, c0, coeff = _terms_at(t0, seg.h, seg.t_ref, tau, w)
    s1, c1, e1 = _terms_at(t1, seg.h, seg.t_ref, tau, w)
    v_t0 = coeff + seg.p_s * s0 + seg.p_c * c0
    v_t1 = e1 + seg.p_s * s1 + seg.p_c * c1

    # the source energy into the rail (J) and the integral of v_o^2
    # (V^2*s) of each segment; coeff is the exponential term at its start
    # (h itself where t_ref = t0, as exp(-0.0) is 1.0).
    # The source feeds the rail only on a conduction segment, with
    # i(th) = i_amp sin(w th); elsewhere p_s = p_c = 0 and v_o is a decay
    d = t1 - t0
    int_v2 = 0.5 * tau * coeff * coeff * -_libm(math.expm1, -2.0 * d / tau)
    e_rail = np.zeros(len(d))
    clamped = ((seg.state >= _CLAMPED[0].value)
               & (seg.state <= _CLAMPED[-1].value))
    cr = np.flatnonzero(clamped)
    d, tc0, tc1, coeff_c = d[cr], t0[cr], t1[cr], coeff[cr]
    # int e^{au} sin(wu) du and int e^{au} cos(wu) du over [0, d]
    a = -1.0 / tau
    e, den = _libm(math.exp, a * d), a * a + w * w
    sin_d, cos_d = _libm(math.sin, w * d), _libm(math.cos, w * d)
    i_s = (e * (a * sin_d - w * cos_d) + w) / den
    i_c = (e * (a * cos_d + w * sin_d) - a) / den
    # exp * sin(w th) and exp * cos(w th), by sin(w th) = sin(wu)cos(wt0)
    # + cos(wu)sin(wt0), u = th - t0
    int_e_sin = c0[cr] * i_s + s0[cr] * i_c
    int_e_cos = c0[cr] * i_c - s0[cr] * i_s
    # sin^2(w th), cos^2(w th) and sin(w th) cos(w th) over [t0, t1], by
    # their antiderivatives th/2 -+ sin(2 w th)/(4 w) and -cos(2 w th)/(4 w)
    sin_0, sin_1 = _libm(math.sin, 2.0 * w * tc0), _libm(math.sin,
                                                          2.0 * w * tc1)
    cos_0, cos_1 = _libm(math.cos, 2.0 * w * tc0), _libm(math.cos,
                                                          2.0 * w * tc1)
    w4 = 4.0 * w
    sin2 = (tc1 / 2.0 - sin_1 / w4) - (tc0 / 2.0 - sin_0 / w4)
    cos2 = (tc1 / 2.0 + sin_1 / w4) - (tc0 / 2.0 + sin_0 / w4)
    sincos = -cos_1 / w4 - -cos_0 / w4
    e_rail[cr] = i_amp * (coeff_c * int_e_sin + (p_s * sin2 + p_c * sincos))
    int_v2[cr] = (int_v2[cr]
                  + 2.0 * coeff_c * (p_s * int_e_sin + p_c * int_e_cos)
                  + p_s ** 2 * sin2 + p_c ** 2 * cos2
                  + 2.0 * p_s * p_c * sincos)
    roots = np.full((len(t0), 2), np.nan)
    roots[cr] = _conduction_extremes(
        seg, cr, (s0[cr], v_t0[cr], s1[cr], v_t1[cr]), consts, r_load)

    # each cycle's rows, in order, in its row of a (cycles, 5) matrix
    first = seg.first
    n = len(first) - 1
    cyc = np.repeat(np.arange(n), np.diff(first))
    slot = (cyc, np.arange(len(t0)) - first[cyc])

    def per_cycle(values, pad):
        m = np.full((n, 5) + values.shape[1:], pad)
        m[slot] = values
        return m.reshape(n, -1)

    e_cond = np.zeros(n)
    e_load = np.zeros(n)
    for rail, load in zip(per_cycle(e_rail, 0.0).T,
                          per_cycle(int_v2 / r_load, 0.0).T):
        e_cond += rail
        e_load += load
    # v_o's candidate extremes: each row's two end values and its roots
    cand = np.column_stack((v_t0, v_t1, roots))
    found = ~np.isnan(cand)
    c = result.columns
    v_o_min = np.column_stack((c.v_o_start, c.v_o_end, per_cycle(
        np.where(found, cand, np.inf), np.inf))).min(axis=1)
    v_o_max = np.column_stack((c.v_o_start, c.v_o_end, per_cycle(
        np.where(found, cand, -np.inf), -np.inf))).max(axis=1)
    # the diode sees the output rail during conduction, the switch sees it
    # while the diode freewheels (from State V's start)
    v_cd1_peak = np.column_stack((c.va_pre_snap, per_cycle(
        np.where(found & clamped[:, None], cand, -np.inf),
        -np.inf))).max(axis=1)
    v0, va0, v_end, va_end = c.v_o_start, c.v_cd1_start, c.v_o_end, \
        c.v_cd1_end
    v_cs1_end = np.where(c.reached_state_v, c.v_at_th4, v_end - va_end)
    v_cs1_start = v0 - va0
    pre2, va02, end_iv2, iv2, th1_2, end2, v02, va_end2 = _squares(
        np.concatenate((c.va_pre_snap, va0, c.va_end_iv, c.v_at_iv,
                        c.v_at_th1, v_end, v0, va_end))).reshape(8, n)
    # node energy of the State I and State IV swings
    e_in_node = (0.5 * c_sum * (pre2 - va02)
                 + 0.5 * c_sum * (end_iv2 - iv2))
    return DiagnosticColumns(
        q_f=c_sum * (c.va_pre_snap - va0),
        q_r=c_sum * (c.v_at_iv - c.va_end_iv),
        e_in=e_in_node + e_cond, e_load=e_load,
        # node energy acquired while clamped to the rail (model supplies
        # no rail current for it; see module docstring)
        e_node_tracking=0.5 * c_sum * (iv2 - th1_2),
        de_stored=0.5 * c_o * (end2 - v02) + 0.5 * c_sum * (va_end2 - va02),
        v_o_ripple_pp=v_o_max - v_o_min, v_o_min=v_o_min, v_o_max=v_o_max,
        v_cs1_peak=np.where(v_cs1_end > v_cs1_start, v_cs1_end,
                            v_cs1_start),
        v_cd1_peak=v_cd1_peak)


@dataclass(frozen=True)
class PeriodicOrbit:
    """Cycle-aligned state on the periodic orbit of a constant command.

    ``residual`` is max(|dv_o|, |dv_cd1|) over one cycle started from
    ``state`` (V); ``cycles`` counts the cycles the solve stepped.
    """
    state: SwitchCycleState
    residual: float
    cycles: int


_MAX_ORBIT_ITER = 30
_CYCLE_FD_STEP = 1e-4   # state difference step, relative to max(|v_o|, 1 V)
# cycle_linearization's duty step: it moves only the gate-off edge, never a
# located event, so it can be small.
_DUTY_FD_STEP = 1e-5


def _orbit_start(v_o: float, duty: float, consts: tuple):
    """(a*, the next v_o and v_cd1 of the cycle from (v_o, a*), cycles
    stepped) at ``duty`` under ``consts``, or None if a* is unsettled after
    _MAX_ORBIT_ITER cycles.  a* is v_cd1's start on the orbit through v_o:
    0 where the cycle from (v_o, 0) reaches State V, else
    a <- P(v_o, a)[v_cd1] from 0 until a moves by V_ORBIT_TOL or less.
    Both orbit solves, open- and closed-loop, start their cycles here."""
    a = 0.0
    for n in range(1, _MAX_ORBIT_ITER + 1):
        v_next, a_next = _cycle(v_o, a, duty, consts)[:2]
        if abs(a_next - a) <= V_ORBIT_TOL:
            return a, v_next, a_next, n
        a = a_next
    return None


def periodic_steady_state(params: ValidatedParams,
                          cmd: ModulationCommand) -> PeriodicOrbit:
    """Periodic steady state of a constant command, as one bracketed root
    in v_o (the open-loop twin of ``control.closed_loop_orbit``): v* is the
    root of r(v) = P(v, a*)[v_o] - v on [0, v_hi], P one ``_cycle`` and a*
    v_cd1's start (``_orbit_start``), to adjacent floats
    (``rootfind.bisect_root``).  No derivative is taken, so the kinks of P
    (the soft/hard boundary, the start or end of State V) cannot stall it.

    Bracket.  C_o dv_o/dt = s I sin(w t) - v_o/R, s = 1 while the switch
    conducts and 0 otherwise, and v_o jumps only down (a hard turn-on tops
    C_D1 up from C_o).  The weighted input int e^{-(T-t)/tau} s I sin(w t)
    dt is at most the positive half-wave's charge Q = 2 I/w, so for any a
    r(v) <= Q/C_o - v (1 - e^{-T/tau}), below 0 above
    v_bar = Q/(C_o (1 - e^{-T/tau})).  v_hi = 2 v_bar leaves r(v_hi) at
    most -Q/C_o, a cycle's charge clear of rounding.  r(0) > 0 wherever a
    cycle from rest charges the output; r(0) < 0 is the negative orbit,
    which is named, not bracketed past; at I = 0, r(0) = 0 and v* = 0.

    Raises NoConvergence, naming the command, where a* does not settle, at
    a negative orbit or an unbracketed end, and where the orbit found moves
    by more than V_ORBIT_TOL over a cycle.
    """
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)
    cycles = 0

    def failure(why):
        return NoConvergence(f"periodic steady state at duty={cmd.duty!r}, "
                             f"t_f={cmd.t_f!r} s after {cycles} cycles: {why}")

    # the ends are evaluated again by bisect_root, and v* for its a*
    @cache
    def start(v):
        """(a*, r(v), the change of v_cd1) at v_o = v."""
        nonlocal cycles
        found = _orbit_start(v, cmd.duty, consts)
        if found is None:
            cycles += _MAX_ORBIT_ITER
            raise failure(f"v_cd1's start unsettled at v_o = {v!r} V")
        a, v_next, a_next, n = found
        cycles += n
        return a, v_next - v, a_next - a

    ts, w, tau = consts[:3]
    v_hi = 4.0 * params.i_ls_amp / (w * params.c_o * -math.expm1(-ts / tau))
    r_lo = start(0.0)[1]
    if r_lo < 0.0:
        raise failure(f"a cycle from 0 V discharges the output (by "
                      f"{-r_lo:.3g} V): the orbit lies below 0 V")
    if r_lo > 0.0 and not start(v_hi)[1] < 0.0:
        raise failure(f"r = {start(v_hi)[1]!r} V at the upper end {v_hi!r} V")
    v = bisect_root(lambda v: start(v)[1], 0.0, v_hi, 0.0)
    a, r_v, da = start(v)
    residual = max(abs(r_v), abs(da))
    if residual > V_ORBIT_TOL:
        raise failure(f"residual {residual:.3g} V above {V_ORBIT_TOL:g} V")
    return PeriodicOrbit(state=SwitchCycleState(v, a), residual=residual,
                         cycles=cycles)


def cycle_linearization(params: ValidatedParams, cmd: ModulationCommand,
                        x: SwitchCycleState) -> tuple:
    """The one-cycle map linearized at the boundary state x under ``cmd``
    (Verghese, Elbuluk & Kassakian, IEEE Trans. Power Electron. 1986):
    x_{n+1} = A x_n + B d_n and y_n = C x_n + D d_n, with d_n the duty held
    over cycle n and y_n the mean of cycle n, by one-sided differences of
    (P(x) - x, cycle mean) (state step h = _CYCLE_FD_STEP max(|v_o|, 1 V),
    duty step _DUTY_FD_STEP).  Returns (A, B, C, D, cycles stepped).
    Raises ZeroGainOperatingPoint where the duty does not move the map.

    The steps are forward (+h), so at the soft/hard kink, where the
    natural State I turn-on meets the gate edge t_f, each column reads the
    side its step lands on.  +h in v_o lengthens State I, so the v_o
    column reads the hard side (turn-on forced at t_f) whenever x lies
    within h of the kink on the soft side; +h in v_cd1 shortens State I,
    so that column reads the soft side.  At table2 (D = 0.532) on the
    orbit gated at its own exact fall time, A[0,0] reads 0.999863788 with
    the default step and 0.999859742 with state steps of +-1e-6 and -1e-4
    relative; 1 - lambda differs by 3 %.  Gated at 0.99 and 1.01 times that
    fall time, all four agree to nine digits."""
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)
    h = _CYCLE_FD_STEP * max(abs(x[0]), 1.0)

    def residual(v_o, v_cd1, duty=cmd.duty):
        return np.array(_cycle(v_o, v_cd1, duty, consts)[:3]) - (v_o, v_cd1,
                                                                 0.0)

    r = residual(*x)
    rv = residual(x[0] + h, x[1])
    if x[1] == r[1] == rv[1] == 0.0:
        # State V reached: v_cd1 restarts from zero, so P(x) is unchanged
        ra, calls = r - (0.0, h, 0.0), 3
    else:
        ra, calls = residual(x[0], x[1] + h), 4
    col_d = (residual(*x, cmd.duty + _DUTY_FD_STEP) - r) / _DUTY_FD_STEP
    if not col_d.any():
        raise ZeroGainOperatingPoint(
            f"the duty does not move the cycle map at D = {cmd.duty}")
    jac = np.column_stack((rv - r, ra - r)) / h  # rows: A - I, C
    return jac[:2] + np.eye(2), col_d[:2], jac[2], col_d[2], calls


# Samples per block of whole cycles that the sampler evaluates at once.
# Every per-sample temporary is one block long, so on 400 cycles at 256
# samples per cycle (16 cycles a block) the sampler holds about 0.4 MB
# beside its output; one pass over the whole run took about 8 MB.  A
# capture writes each block as it is made (``_waveform_blocks``), so no
# channel of the whole run is held; ``sample_waveform`` copies the blocks
# into channels of the whole run.
_BLOCK_SAMPLES = 4096


def _waveform_blocks(result: RunResult, sample_rate: float) -> tuple:
    """(n, blocks): the number of samples of the run's uniform grid at
    ``sample_rate``, and an iterator of ``Waveform`` blocks of whole cycles,
    each of at most about ``_BLOCK_SAMPLES`` samples (see there), whose
    times are the grid's, k / ``sample_rate``.  The rate is checked before
    this returns (see ``sample_waveform``); a block is evaluated when it is
    asked for, and holds the only copy of its samples.

    Cycle c's samples are the grid times below its end less 1e-18 s, found
    by ``searchsorted`` in its block's times: those run from the block's
    first sample to the first past the end of its last cycle, or to the
    grid's end (k / rate is below x for k < ceil(x * rate) - 1 and not for
    k > ceil(x * rate) + 1 while x * rate < 2**51)."""
    require_positive(sample_rate=sample_rate)
    params = result.params
    ts = params.t_period
    w = params.omega
    tau = params.r_load * params.c_o
    amp = params.i_ls_amp / (w * params.c_sum)
    seg = result.segments
    n_cycles = len(seg.first) - 1
    t_start = np.arange(n_cycles) * ts
    t_end = t_start[-1].item() + ts
    n = int(round(t_end * sample_rate))
    if n == 0:
        raise NonPositiveParameter(
            "sample_rate", sample_rate,
            f"> {0.5 / t_end:g} to sample {n_cycles} cycles")
    gate_on = t_start + result.cmd.t_f
    gate_off = t_start + result.columns.gate_off
    first = seg.first[:-1]
    # the starts of each cycle's segments after its first, inf-padded to 4
    cycle_of_row = np.repeat(np.arange(n_cycles), np.diff(seg.first))
    cuts = np.full((n_cycles, 5), np.inf)
    cuts[cycle_of_row, np.arange(len(seg.t0)) - first[cycle_of_row]] = seg.t0
    cuts = cuts[:, 1:]
    # by math.cos, as the segments' scalar arithmetic takes it (np.cos may
    # round differently)
    cos_ref = np.array([math.cos(w * t) for t in seg.t_ref.tolist()])
    cycle_ends = t_start + ts - 1e-18
    per_block = max(1, _BLOCK_SAMPLES * n_cycles // n)

    def blocks():
        lo = 0
        for c0 in range(0, n_cycles, per_block):
            x = cycle_ends[c0:c0 + per_block]
            tk = np.arange(lo, min(n, math.ceil(x[-1] * sample_rate) + 2)
                           ) / sample_rate
            ends = lo + np.searchsorted(tk, x)
            hi = ends[-1]
            tk = tk[:hi - lo]
            cyc = c0 + np.repeat(np.arange(len(ends)),
                                 np.diff(ends, prepend=lo))
            th = tk - t_start[cyc]
            row = first[cyc]
            for cut in cuts.T:
                row += th >= cut[cyc]
            sin_wt = np.sin(w * th)
            cos_wt = np.cos(w * th)
            v_o = (seg.h[row] * np.exp(-(th - seg.t_ref[row]) / tau)
                   + seg.p_s[row] * sin_wt + seg.p_c[row] * cos_wt)
            st = seg.state[row]
            # the clamped states are adjacent; ints compare faster than
            # members
            v_cd1 = np.where(
                (st >= _CLAMPED[0].value) & (st <= _CLAMPED[-1].value), v_o,
                np.where(st == SwitchingState.STATE_V.value, 0.0,
                         seg.va0[row] + amp * (cos_ref[row] - cos_wt)))
            gate = (gate_on[cyc] <= tk) & (tk < gate_off[cyc])
            yield Waveform(t=tk, i_ls=params.i_ls_amp * sin_wt,
                           v_cs1=v_o - v_cd1, v_cd1=v_cd1, v_o=v_o,
                           gate=gate.view(np.int8), state=st)
            lo = hi
    return n, blocks()


def sample_waveform(result: RunResult, sample_rate: float) -> Waveform:
    """Evaluate the run's segment closed forms on a uniform grid.
    A sample within 1e-18 s of a cycle's end belongs to the next cycle, and
    one exactly on a segment's end to the next segment (the sample at T/2
    is State III).

    The grid is evaluated in blocks of whole cycles of at most about
    ``_BLOCK_SAMPLES`` (4096) samples, 16 cycles at 256 samples per cycle
    (``_waveform_blocks``), each copied into channels of the whole run as
    it is made.  So what is held at once is the returned channels (4.3 MB
    on 400 cycles at 256 samples per cycle) and one block's temporaries
    (about 0.4 MB there).  A sample's segment is its cycle's first segment
    row plus the number of the cycle's other segments that start at or
    before it.

    Raises NonPositiveParameter naming ``sample_rate`` for a rate that is
    not finite and > 0, or so low that the grid holds no sample.
    """
    n, blocks = _waveform_blocks(result, sample_rate)
    whole, lo = None, 0
    for block in blocks:
        block = vars(block).values()  # its channels, in field order
        whole = whole or [np.empty(n, c.dtype) for c in block]
        for c, part in zip(whole, block):
            c[lo:lo + len(part)] = part
        lo += len(part)
    return Waveform(*whole)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumResult:
    harmonics: list  # (k, amplitude, phase_rad)
    thd: float

    @property
    def fundamental(self) -> float:
        return self.harmonics[0][1]


# the channels spectrum() takes, as sample_waveform names them
_SPECTRUM_CHANNELS = ("i_ls", "v_cs1", "v_cd1", "v_o")


def spectrum(result: RunResult, channels: Sequence[str],
             n_harmonics: int) -> list:
    """Fourier coefficients at k*f_s, k = 1..n_harmonics (an integer >= 1),
    plus THD of channels of a run's cycles: one SpectrumResult per name in
    ``channels`` (``i_ls``, ``v_cs1``, ``v_cd1`` or ``v_o``), in order, each
    the same as from a call for it alone.  ``channels`` is a sequence of
    names; a bare string is rejected with a TypeError rather than read
    letter by letter.

    A cycle's coefficient is c_k = (2/T) int_0^T y(th) e^{-jkw th} dth,
    with its phase referenced to the cycle's own start; the result is the
    mean over the cycles, which on cycles of one orbit equals the
    correlation over the whole window, since f_s*T = 1.  Nothing is
    sampled.  The output and node voltages of every segment are sums of
    terms C e^{s th}, s in {-1/tau, +-jw, 0} (see _Seg), and each term is
    integrated against e^{-jkw th} in closed form.  With
    Z_m = int_t0^t1 e^{-jmw th} dth for m = 0..n_harmonics+1 (Z_0 = t1 -
    t0, the k = 1 sinusoid taken exactly), sin w th and cos w th contribute
    (Z_{k-1} - Z_{k+1})/2j and (Z_{k-1} + Z_{k+1})/2, a constant 1
    contributes Z_k, and the decay e^{-(th-t0)/tau}, written from the
    segment start so nothing overflows,
    (e^{-(t1-t0)/tau} e^{-jkw t1} - e^{-jkw t0})/(-1/tau - jkw).
    i_ls is one sinusoid over the whole cycle: exactly c_1 = -j i_ls_amp
    and no other harmonic.  Segments and cycles are added left to right
    (``sum()`` of floats rounds differently from Python 3.12 on).
    """
    if isinstance(channels, str):
        raise TypeError(f"channels must be a sequence of names, not the "
                        f"string {channels!r}; pass ({channels!r},)")
    unknown = [c for c in channels if c not in _SPECTRUM_CHANNELS]
    if unknown:
        raise ValueError(f"no spectrum of channel(s) {unknown}; take "
                         f"{_SPECTRUM_CHANNELS}")
    require_positive(integer=True, n_harmonics=n_harmonics)
    params = result.params
    w = params.omega
    tau = params.r_load * params.c_o
    amp = params.i_ls_amp / (w * params.c_sum)
    m = np.arange(n_harmonics + 2)
    neg_jmw = -1j * w * m
    neg_jmw[0] = 1.0     # Z_0 is set apart; keeps the division finite
    decay_den = -1.0 / tau + neg_jmw[1:-1]
    v_o = np.zeros(n_harmonics, dtype=complex)
    v_cd1 = np.zeros(n_harmonics, dtype=complex)
    rows = _seg_rows(result.segments)
    first = result.segments.first.tolist()
    for k in range(len(first) - 1):
        segs = rows[first[k]:first[k + 1]]
        phasor = np.exp(np.multiply.outer(
            [g.t0 for g in segs] + [segs[-1].t1], neg_jmw))
        for seg, e0, e1 in zip(segs, phasor, phasor[1:]):
            z = (e1 - e0) / neg_jmw
            z[0] = seg.t1 - seg.t0
            cos_k = 0.5 * (z[:-2] + z[2:])
            coeff = seg.h * math.exp(-(seg.t0 - seg.t_ref) / tau)
            vo_k = coeff * (math.exp(-(seg.t1 - seg.t0) / tau) * e1[1:-1]
                            - e0[1:-1]) / decay_den
            if seg.p_s or seg.p_c:
                vo_k += seg.p_s * (0.5j * (z[2:] - z[:-2])) + seg.p_c * cos_k
            v_o += vo_k
            if seg.state in _CLAMPED:
                v_cd1 += vo_k
            elif seg.state != SwitchingState.STATE_V:
                v_cd1 += ((seg.va0 + amp * math.cos(w * seg.t_ref)) * z[1:-1]
                          - amp * cos_k)
    scale = 2.0 / (params.t_period * (len(first) - 1))
    coeffs = {"v_o": v_o * scale, "v_cd1": v_cd1 * scale,
              "v_cs1": (v_o - v_cd1) * scale,
              "i_ls": np.zeros(n_harmonics, dtype=complex)}
    coeffs["i_ls"][0] = -1j * params.i_ls_amp
    results = []
    for channel in channels:
        c = coeffs[channel]
        rows = [(k, float(a), float(p)) for k, a, p in
                zip(range(1, n_harmonics + 1), np.abs(c), np.angle(c))]
        a1 = rows[0][1]
        # added left to right: sum() rounds differently from Python 3.12 on
        rest = 0.0
        for _, a, _ in rows[1:]:
            rest += a * a
        rest = math.sqrt(rest)
        thd = rest / a1 if a1 > 0 else float("inf")
        results.append(SpectrumResult(harmonics=rows, thd=thd))
    return results
