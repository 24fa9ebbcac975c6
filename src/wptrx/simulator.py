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
State I end (the switch voltage reaching zero) takes safeguarded Newton
steps from the lossless closed form to 1e-13 s.  Each output ripple
extreme (a zero of dv_o/dt on a conduction segment) is bracketed in closed
form and the bracket bisected to 1e-13 s.  No step size exists anywhere.

All of a cycle's arithmetic lives in one private kernel, ``_cycle``, which
takes and returns plain floats: the boundary state, the duty and a tuple
of the receiver's constants at one load, source amplitude and gate delay
in, the next state, the cycle mean and the event times and closed-form
coefficients out.  ``_cycle_consts`` builds that tuple (time constant,
source-driven coefficients, the cos and sin of the fixed phases, and the
gate delay's decay and phase terms) and checks the gate delay, once per
build.  ``step_cycle`` builds it on every call from the receiver's own
load and amplitude and the command's delay; ``run``,
``periodic_steady_state`` and ``cycle_linearization`` build it once per
call and step the private ``_step_cycle`` and ``_cycle_residual``, which
take it; the closed-loop run builds it once and again only when the live
load, the amplitude or the fed-forward delay changes, and builds no
records.  ``step_cycle`` builds what other callers read: the next state,
a ``CycleSummary`` (cycle mean and end voltage, timing,
soft-switching verdicts) and the cycle's ``CyclePiece``, which keeps the
receiver, the event times and closed-form coefficients and builds the
segments and the event list from them on every read; nothing is cached.
``cycle_diagnostics`` builds the full ``CycleDiagnostics`` (ledger, ripple
extremes, device peaks) from a piece alone; a ``run``'s result does so for
every cycle each time its diagnostics are read.

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
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analytic import TWO_PI
from .errors import (GateOverrun, NoConvergence, NonPeriodicWindow,
                     ZeroGainOperatingPoint)
from .params import ValidatedParams, require_positive
from .rootfind import bisect_root

# Event localization tolerance (s).
T_EVENT_TOL = 1e-13
_MAX_EVENT_ITER = 100

# Periodic steady state: largest one-cycle change |P(x) - x| of the boundary
# state accepted as "on the orbit" (V).  The event times are smooth in the
# state, so the attainable floor is float resolution: on a seeded sweep of
# receivers with loads up to 10 kOhm (outputs up to ~8 kV) every orbit is
# found to 1e-12 V and some fail at 1e-13 V; this keeps a decade of margin.
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
    angle is ``analytic.phase_angle(duty, f_s * t_f)``."""
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


@dataclass(frozen=True)
class CycleSummary:
    """What step_cycle reports of every cycle: the output voltage at both
    boundaries and its cycle mean, the measured timing and the
    soft-switching verdicts.

    ``t_f_meas``/``t_r_meas`` are the natural commutation intervals and are
    NaN when the corresponding transition never completed naturally.
    ``zcs_ok`` is ``reached_state_v``: the cycle ends at a current zero, so
    a diode that conducted turns off at zero current.
    """
    v_o_start: float
    v_o_end: float
    v_o_mean: float
    t_f_meas: float
    t_r_meas: float
    zvs_ok: bool
    zcs_ok: bool
    v_cs1_at_gate: float
    hard_switched: bool
    reached_state_v: bool
    e_hard_switch: float


@dataclass(frozen=True)
class CycleDiagnostics(CycleSummary):
    """The summary plus the charge/energy ledger, the output ripple
    extremes and the device peaks of one cycle; built by
    ``cycle_diagnostics``.

    ``de_stored`` uses the node-referenced convention described in the
    module docstring, so ``e_in + e_node_tracking - e_load - de_stored -
    e_hard_switch`` is zero (to roundoff) for every soft-switched cycle.
    """
    q_f: float
    q_r: float
    e_in: float
    e_load: float
    e_node_tracking: float
    de_stored: float
    v_o_ripple_pp: float
    v_o_min: float
    v_o_max: float
    v_cs1_peak: float
    v_cd1_peak: float
    states_visited: tuple


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


@dataclass(frozen=True)
class CyclePiece:
    """One carrier period as step_cycle solved it: its receiver, event times
    and closed-form coefficients.  ``segments`` and ``events`` are built
    from them on every read; a caller that needs them twice keeps them."""
    params: ValidatedParams
    t_start: float
    gate_on: float   # absolute gate edges
    gate_off: float
    summary: CycleSummary
    # node voltage v_cd1 at the cycle start, at the end of State I, at the
    # start and the end of the conduction clamp, at the end of State IV and
    # at the cycle end; cycle_diagnostics reads it for the ledger
    node_v: tuple
    # after t_start: the end of State I, the start of State IV and its end
    # (None when the node never reaches zero)
    th1: float
    th_iv: float
    th4: Optional[float]
    # the conduction closed form (see _Seg), and v_o where State V starts
    # (v_o at th_iv on a cycle that never reaches State V)
    h: float
    p_s: float
    p_c: float
    v_at_th4: float

    @property
    def segments(self) -> list:
        """The cycle's _Seg of each state it spent time in, in order.
        step_cycle's cycle mean integrates these same segments from its
        scalars, so the two must skip the same empty states."""
        ts, th1, th_iv, th4 = self.params.t_period, self.th1, self.th_iv, \
            self.th4
        half = 0.5 * ts
        h, p_s, p_c = self.h, self.p_s, self.p_c
        v_at_iv = self.node_v[3]
        segs = []
        if th1 > 0.0:
            segs.append(_Seg(0.0, th1, 0.0, SwitchingState.STATE_I,
                             self.summary.v_o_start, 0.0, 0.0,
                             self.node_v[0]))
        if th1 < half:
            segs.append(_Seg(th1, half, th1, SwitchingState.STATE_II,
                             h, p_s, p_c, 0.0))
        t_iii = max(th1, half)
        if th_iv > t_iii:
            segs.append(_Seg(t_iii, th_iv, th1, SwitchingState.STATE_III,
                             h, p_s, p_c, 0.0))
        th4_eff = th4 if th4 is not None else ts
        if th4_eff > th_iv:
            segs.append(_Seg(th_iv, th4_eff, th_iv, SwitchingState.STATE_IV,
                             v_at_iv, 0.0, 0.0, v_at_iv))
        if self.summary.reached_state_v:
            segs.append(_Seg(th4, ts, th4, SwitchingState.STATE_V,
                             self.v_at_th4, 0.0, 0.0, 0.0))
        return segs

    @property
    def events(self) -> list:
        """(absolute time, name) of the cycle's events, in time order."""
        t0, hard = self.t_start, self.summary.hard_switched
        events = [(t0, "cycle_start")]
        if not hard:
            events.append((t0 + self.th1, "cs1_zero"))
        events.append((self.gate_on, "gate_on"))
        if hard:
            events.append((t0 + self.th1, "hard_switch"))
        events.append((t0 + 0.5 * self.params.t_period, "ils_zero"))
        events.append((self.gate_off, "gate_off"))
        if self.th4 is not None:
            events.append((t0 + self.th4, "cd1_zero"))
        events.sort(key=lambda e: e[0])
        return events


@dataclass(frozen=True)
class RunResult:
    """The pieces of a ``run`` and its final state.  ``diagnostics``
    (``cycle_diagnostics`` of every piece) is built on every read."""
    pieces: list
    final_state: SwitchCycleState

    @property
    def diagnostics(self) -> list:
        return [cycle_diagnostics(p) for p in self.pieces]


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
# closed-form segment integrals
# ---------------------------------------------------------------------------

# antiderivatives of sin^2(w th), cos^2(w th) and sin(w th) cos(w th)
def _sin2(th: float, w: float) -> float:
    return th / 2.0 - math.sin(2.0 * w * th) / (4.0 * w)


def _cos2(th: float, w: float) -> float:
    return th / 2.0 + math.sin(2.0 * w * th) / (4.0 * w)


def _sincos(th: float, w: float) -> float:
    return -math.cos(2.0 * w * th) / (4.0 * w)


def _seg_integrals(seg: _Seg, tau: float, w: float, i_amp: float) -> tuple:
    """(source energy into the rail (J), integral of v_o^2 (V^2*s)) over a
    segment.  The source feeds the rail only on a conduction segment (State
    II or III), with i(th) = i_amp sin(w th); elsewhere p_s = p_c = 0 and
    v_o is a pure decay."""
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return 0.0, 0.0
    # the exponential term's coefficient at the segment start
    coeff = (seg.h if seg.t_ref == seg.t0
             else seg.h * math.exp(-(seg.t0 - seg.t_ref) / tau))
    e_sq = 0.5 * tau * coeff * coeff * -math.expm1(-2.0 * d / tau)
    if seg.state not in _CLAMPED:
        return 0.0, e_sq
    # int e^{au} sin(wu) du and int e^{au} cos(wu) du over [0, d]
    a = -1.0 / tau
    e, den = math.exp(a * d), a * a + w * w
    i_s = (e * (a * math.sin(w * d) - w * math.cos(w * d)) + w) / den
    i_c = (e * (a * math.cos(w * d) + w * math.sin(w * d)) - a) / den
    c0, s0 = math.cos(w * seg.t0), math.sin(w * seg.t0)
    # exp * sin(w th) and exp * cos(w th), by sin(w th) = sin(wu)cos(wt0)
    # + cos(wu)sin(wt0), u = th - t0
    int_e_sin = c0 * i_s + s0 * i_c
    int_e_cos = c0 * i_c - s0 * i_s
    t0, t1 = seg.t0, seg.t1
    sin2 = _sin2(t1, w) - _sin2(t0, w)
    sincos = _sincos(t1, w) - _sincos(t0, w)
    e_rail = i_amp * (coeff * int_e_sin + (seg.p_s * sin2 + seg.p_c * sincos))
    return e_rail, (e_sq
                    + 2.0 * coeff * (seg.p_s * int_e_sin + seg.p_c * int_e_cos)
                    + seg.p_s ** 2 * sin2
                    + seg.p_c ** 2 * (_cos2(t1, w) - _cos2(t0, w))
                    + 2.0 * seg.p_s * seg.p_c * sincos)


def _conduction_extremes(seg: _Seg, tau: float, w: float, i_amp: float,
                         r_load: float) -> list:
    """The candidates for v_o's extremes on a conduction segment: v_o at
    each root of g(th) = i(th) - v_o(th)/R, which is C_o dv_o/dt, inside
    it, then at its start and at its end.

    With e = h exp(-(th - t_ref)/tau), the load's exponential share of v_o,
    g = S - e/R, where S = a sin(w th) + b cos(w th), a = i_amp - p_s/R and
    b = -p_c/R.  The segment is cut where S turns (w th = atan2(a, b) +
    k pi), and a piece is searched where g changes sign across it.  As S
    and e are both monotone on a piece, its root lies between the instants
    where S meets the values of e/R at the piece's two ends (acos on the
    piece's half wave).  That map, applied twice, leaves a bracket below
    2e-14 s on the built-in receivers across loads and duties, as each
    round shrinks it by a factor of order w tau.  Widened by T_EVENT_TOL/4
    each side against rounding, it goes to ``bisect_root``, which checks
    the sign change and halves it to T_EVENT_TOL where it is still wider
    (near a turn, where S is flat); on those receivers g is evaluated only
    at the bracket's two ends.  A g of exactly zero at a piece's start is
    a root there.
    """
    t0, t1 = seg.t0, seg.t1
    h, t_ref, p_s, p_c = seg.h, seg.t_ref, seg.p_s, seg.p_c
    a, b = i_amp - p_s / r_load, -p_c / r_load
    half = math.pi / w
    turn = math.atan2(a, b) / w
    cuts = [t0]
    th = turn + half * math.ceil((t0 - turn) / half)  # first turn >= t0
    while th < t1:
        if th > t0:
            cuts.append(th)
        th += half
    cuts.append(t1)
    # g and v_o at the cuts, v_o as _Seg.v_o computes it
    gs, vs = [], []
    for th in cuts:
        s = math.sin(w * th)
        v = (h * math.exp(-(th - t_ref) / tau) + p_s * s
             + p_c * math.cos(w * th))
        gs.append(i_amp * s - v / r_load)
        vs.append(v)

    def g(th):
        s = math.sin(w * th)
        return i_amp * s - (h * math.exp(-(th - t_ref) / tau) + p_s * s
                            + p_c * math.cos(w * th)) / r_load

    out = []
    for k in range(len(cuts) - 1):
        if gs[k] == 0.0:
            out.append(vs[k])
        elif gs[k] * gs[k + 1] < 0.0:
            lo, hi = cuts[k], cuts[k + 1]
            # on this half wave S = (-1)**j hypot(a, b) cos(w (th - start)),
            # and x <- the instant where S = e(x)/R maps each end inward
            j = math.floor((0.5 * (lo + hi) - turn) / half)
            start = turn + j * half
            scale = (-h if j & 1 else h) / (math.hypot(a, b) * r_load)
            ends = []
            for x in (lo, hi):
                for _ in range(2):
                    c = scale * math.exp(-(x - t_ref) / tau)
                    x = start + math.acos(-1.0 if c < -1.0 else
                                          1.0 if c > 1.0 else c) / w
                ends.append(x)
            x0, x1 = sorted(ends)
            root = bisect_root(g, max(lo, x0 - 0.25 * T_EVENT_TOL),
                               min(hi, x1 + 0.25 * T_EVENT_TOL), T_EVENT_TOL)
            out.append(seg.v_o(root, tau, w))
    out += (vs[0], vs[-1])
    return out


# ---------------------------------------------------------------------------
# the cycle engine
# ---------------------------------------------------------------------------

def _turn_on_time(v0: float, va0: float, amp: float, w: float, tau: float,
                  hi: float) -> float:
    """Natural end of State I: the root of the switch voltage
    gap(th) = v0 e^{-th/tau} - (va0 + amp (1 - cos w th)) on (0, hi], given
    gap(0) > 0 >= gap(hi).

    Newton steps on gap with its analytic derivative, seeded with the
    lossless root (tau -> inf, the ``analytic.fall_time_exact`` form).  The
    sign bracket [lo, hi] is kept as a safeguard: a step that leaves it is
    replaced by the bracket midpoint (Brent 1973, ch. 4).  Stops after a
    step shorter than T_EVENT_TOL; the point it reaches is then off the
    root by the order of that step squared.
    """
    lo = 0.0
    s = (v0 - va0) / (2.0 * amp)
    if s < 1.0:
        # th = min(th, hi).  Every cycle runs this and _cycle, so neither
        # calls the builtin min or max (a call costs several times a
        # comparison); each conditional keeps the builtin's operand order,
        # min(a, b) as ``b if b < a else a``, so NaN, -0.0 and ties give
        # the same float
        th = 2.0 * math.asin(math.sqrt(s)) / w
        th = hi if hi < th else th
    else:
        th = hi
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


def _cycle_consts(params: ValidatedParams, r_load: float, i_amp: float,
                  t_f: float) -> tuple:
    """What ``_cycle`` reads of the receiver at load r_load and source
    amplitude i_amp under the gate delay t_f, all fixed while those three
    are: ts, w, tau, T/2, i_amp, amp, p_s, p_c, whether the source feeds
    the rail while the switch conducts, cos and sin of w T/2, cos w T, c_d1,
    c_o + c_d1; then t_f, hi = min(t_f, T/2), e^{-hi/tau},
    amp (1 - cos w hi), cos and sin of w t_f, e^{-t_f/tau} and
    1 - e^{-t_f/tau}.  Raises NonPositiveParameter for a negative or
    non-finite t_f: the delay is checked here, once per build, not on every
    cycle."""
    if not 0.0 <= t_f < math.inf:
        require_positive(allow_zero=True, t_f=t_f)
    ts = params.t_period
    w = params.omega
    tau = r_load * params.c_o
    half = 0.5 * ts
    amp = i_amp / (w * params.c_sum)
    p_s = i_amp * r_load / (1.0 + (w * tau) ** 2)
    p_c = -w * tau * p_s
    hi = min(t_f, half)
    return (ts, w, tau, half, i_amp, amp, p_s, p_c,
            not (p_s == 0.0 and p_c == 0.0),
            math.cos(w * half), math.sin(w * half), math.cos(w * ts),
            params.c_d1, params.c_o + params.c_d1,
            t_f, hi, math.exp(-hi / tau), amp * (1.0 - math.cos(w * hi)),
            math.cos(w * t_f), math.sin(w * t_f), math.exp(-t_f / tau),
            -math.expm1(-t_f / tau))


def _cycle(v0: float, va0: float, duty: float, consts: tuple) -> tuple:
    """The arithmetic of one carrier period from the boundary state
    (v0, va0) under the duty; the receiver, its load, its source amplitude
    and the gate delay t_f come in as ``_cycle_consts``, which has checked
    t_f.

    Returns plain floats: the next v_o and v_cd1 and the cycle mean first,
    then what step_cycle's records need: gate_off, th1, hard, v_cs1_at_gate,
    va_pre_snap, v_at_th1, th_iv, h, p_s, p_c, v_at_iv, th4 (None when the
    node never reaches zero), va_end_iv, reached_v and v_at_th4 (see
    CyclePiece).  Raises as step_cycle does.

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
            h, p_s, p_c, v_at_iv, th4, va_end_iv, reached_v, v_at_th4)


def step_cycle(state: SwitchCycleState, cmd: ModulationCommand,
               params: ValidatedParams, t_start: float = 0.0) -> tuple:
    """Advance exactly one carrier period.

    Returns (next_state, CycleSummary, CyclePiece);
    ``cycle_diagnostics(piece)`` builds the full record.  Raises
    NonPositiveParameter for a duty outside (0, 1) or a negative or
    non-finite gate delay, and GateOverrun when the gate-off edge would pass
    the end of the period.  The arithmetic is ``_cycle``'s, at
    ``params.r_load`` and ``params.i_ls_amp``; this builds the records.
    """
    return _step_cycle(state, cmd, params, t_start,
                       _cycle_consts(params, params.r_load, params.i_ls_amp,
                                     cmd.t_f))


def _step_cycle(state: SwitchCycleState, cmd: ModulationCommand,
                params: ValidatedParams, t_start: float,
                consts: tuple) -> tuple:
    """``step_cycle`` with the receiver's ``_cycle_consts`` at its own load
    and amplitude and the command's gate delay passed in, so a run of one
    receiver and delay builds them once."""
    (v_end, va_cycle_end, v_mean, gate_off, th1, hard, v_cs1_at_gate,
     va_pre_snap, v_at_th1, th_iv, h, p_s, p_c, v_at_iv, th4, va_end_iv,
     reached_v, v_at_th4) = _cycle(state.v_o, state.v_cd1, cmd.duty, consts)
    summary = CycleSummary(
        v_o_start=state.v_o, v_o_end=v_end, v_o_mean=v_mean,
        t_f_meas=th1 if not hard else float("nan"),
        t_r_meas=(th4 - th_iv) if th4 is not None else float("nan"),
        zvs_ok=v_cs1_at_gate <= V_ZVS_TOL,
        zcs_ok=reached_v,
        v_cs1_at_gate=v_cs1_at_gate, hard_switched=hard,
        reached_state_v=reached_v,
        e_hard_switch=(0.5 * params.c_s1 * v_cs1_at_gate * v_cs1_at_gate
                       if hard else 0.0))

    piece = CyclePiece(params=params, t_start=t_start,
                       gate_on=t_start + cmd.t_f, gate_off=t_start + gate_off,
                       summary=summary,
                       node_v=(state.v_cd1, va_pre_snap, v_at_th1, v_at_iv,
                               va_end_iv, va_cycle_end),
                       th1=th1, th_iv=th_iv, th4=th4, h=h, p_s=p_s, p_c=p_c,
                       v_at_th4=v_at_th4)
    return SwitchCycleState(v_end, va_cycle_end), summary, piece


def cycle_diagnostics(piece: CyclePiece) -> CycleDiagnostics:
    """The full record of one cycle, built from its piece: the summary plus
    the charge/energy ledger, the output ripple extremes and the device
    peaks."""
    s = piece.summary
    params = piece.params
    w = params.omega
    r_load, i_amp = params.r_load, params.i_ls_amp
    tau = r_load * params.c_o
    c_sum = params.c_sum
    va0, va_pre_snap, va_clamp_start, v_at_iv, va_end_iv, va_cycle_end = \
        piece.node_v
    v0, v_end = s.v_o_start, s.v_o_end

    e_cond = 0.0
    e_load = 0.0
    candidates = [v0, v_end]
    cond_candidates = [va_pre_snap]
    segments = piece.segments
    for seg in segments:
        e_rail, int_v2 = _seg_integrals(seg, tau, w, i_amp)
        e_cond += e_rail
        e_load += int_v2 / r_load
        if seg.state in _CLAMPED:
            seg_candidates = _conduction_extremes(seg, tau, w, i_amp, r_load)
            cond_candidates.extend(seg_candidates)
        else:
            seg_candidates = (seg.v_o(seg.t0, tau, w),
                              seg.v_o(seg.t1, tau, w))
        candidates.extend(seg_candidates)

    # node energy of the State I and State IV swings
    e_in_node = (0.5 * c_sum * (va_pre_snap ** 2 - va0 ** 2)
                 + 0.5 * c_sum * (va_end_iv ** 2 - v_at_iv ** 2))
    v_o_min = min(candidates)
    v_o_max = max(candidates)
    # device peaks: the diode sees the output rail during conduction, the
    # switch sees it while the diode freewheels (from State V's start)
    v_cs1_end = (piece.v_at_th4 if s.reached_state_v
                 else v_end - va_cycle_end)
    return CycleDiagnostics(
        **vars(s),
        q_f=c_sum * (va_pre_snap - va0),
        q_r=c_sum * (v_at_iv - va_end_iv),
        e_in=e_in_node + e_cond, e_load=e_load,
        # node energy acquired while clamped to the rail (model supplies no
        # rail current for it; see module docstring)
        e_node_tracking=0.5 * c_sum * (v_at_iv ** 2 - va_clamp_start ** 2),
        de_stored=(0.5 * params.c_o * (v_end ** 2 - v0 ** 2)
                   + 0.5 * c_sum * (va_cycle_end ** 2 - va0 ** 2)),
        v_o_ripple_pp=v_o_max - v_o_min, v_o_min=v_o_min, v_o_max=v_o_max,
        v_cs1_peak=max(v0 - va0, v_cs1_end),
        v_cd1_peak=max(cond_candidates),
        states_visited=tuple(sorted({int(g.state) for g in segments})))


def run(params: ValidatedParams, cmd: ModulationCommand, n_cycles: int,
        initial: SwitchCycleState = SwitchCycleState(0.0)) -> RunResult:
    """Run ``n_cycles`` (>= 1) carrier periods of the constant command
    ``cmd`` from the boundary state ``initial`` (by default an empty output
    capacitor), whose voltages must be finite and >= 0.  Its diagnostics
    are the full ``cycle_diagnostics`` of every cycle, built when first
    read; ``sample_waveform(pieces, ...)`` samples the result;
    ``periodic_steady_state`` gives a start on the orbit.
    """
    require_positive(n_cycles=n_cycles)
    require_positive(allow_zero=True, v_o=initial.v_o, v_cd1=initial.v_cd1)
    state = initial
    pieces = []
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)
    for n in range(n_cycles):
        state, _, piece = _step_cycle(state, cmd, params, n * params.t_period,
                                      consts)
        pieces.append(piece)
    return RunResult(pieces=pieces, final_state=state)


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
_MIN_ORBIT_DAMPING = 1.0 / 1024.0
_CYCLE_FD_STEP = 1e-4   # state difference step, relative to max(|v_o|, 1 V)
# cycle_linearization's duty step: it moves only the gate-off edge, never a
# located event, so it can be small.
_DUTY_FD_STEP = 1e-5


def _cycle_residual(duty: float, x: tuple, consts: tuple) -> tuple:
    """(P(x) - x, cycle mean) of one cycle at ``duty`` from
    x = (v_o, v_cd1), with the receiver's ``_cycle_consts`` (the gate delay
    among them) passed in."""
    v_o, v_cd1, v_mean = _cycle(x[0], x[1], duty, consts)[:3]
    return (v_o - x[0], v_cd1 - x[1], v_mean)


def _cycle_jacobian(residual, x: tuple, r: tuple, h: float) -> tuple:
    """Columns d/dv_o and d/dv_cd1 of ``residual`` (_cycle_residual as a
    map of x) at x, where its value is r, by one-sided differences of
    step h."""
    rv = residual((x[0] + h, x[1]))
    if x[1] == 0.0 and r[1] == 0.0 and rv[1] == 0.0:
        # State V reached: v_cd1 restarts from zero, so P(x) is unchanged
        ra = (r[0], r[1] - h, r[2])
    else:
        ra = residual((x[0], x[1] + h))
    return tuple(tuple((p - q) / h for p, q in zip(f, r)) for f in (rv, ra))


def periodic_steady_state(params: ValidatedParams, cmd: ModulationCommand,
                          v_o0: float) -> PeriodicOrbit:
    """Periodic steady state of a constant command, found by shooting.

    Solves P(x) = x, where P is the one-cycle map of the boundary state
    x = (v_o, v_cd1) over one carrier period (Aprille & Trick, Proc. IEEE
    1972), starting from x = (v_o0, 0).  Newton steps use a one-sided
    difference Jacobian and are halved until they reduce max|P(x) - x|, so
    the solve also converges where P has a kink: at the soft/hard boundary
    (the gate edge meets the natural commutation) and where cycles start or
    stop reaching State V.  On cycles that reach State V, v_cd1 restarts
    from zero and the solve is one-dimensional in v_o.

    Raises NoConvergence, naming the command and the residual, when no
    state within V_ORBIT_TOL is found.
    """
    require_positive(allow_zero=True, v_o0=v_o0)
    calls = 0
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)

    def residual(x):
        """(_cycle_residual, the max-norm of its P(x) - x)."""
        nonlocal calls
        calls += 1
        r = _cycle_residual(cmd.duty, x, consts)
        return r, max(abs(r[0]), abs(r[1]))

    def newton_descent(x, r, size, h):
        """Damped Newton step with a one-sided difference Jacobian (step h);
        None when no damping of it reduces the residual.  A damped point
        that fails is retried with v_cd1 replaced by its one-cycle image,
        which is what a step across the State-V boundary needs: there
        v_cd1' turns from identically zero to following v_o."""
        (j11, j21, _), (j12, j22, _) = _cycle_jacobian(
            lambda y: residual(y)[0], x, r, h)
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        dv = (j12 * r[1] - j22 * r[0]) / det
        da = (j21 * r[0] - j11 * r[1]) / det
        lam = 1.0
        while lam >= _MIN_ORBIT_DAMPING:
            trial = (x[0] + lam * dv, x[1] + lam * da)
            r_trial, size_trial = residual(trial)
            if size_trial >= size and r_trial[1] != 0.0:
                trial = (trial[0], trial[1] + r_trial[1])
                r_trial, size_trial = residual(trial)
            if size_trial < size:
                return trial, r_trial, size_trial
            lam *= 0.5
        return None

    def failure(why, size):
        return NoConvergence(
            f"periodic steady state at duty={cmd.duty!r}, t_f={cmd.t_f!r} "
            f"s: {why}; residual {size:.3g} V after {calls} cycles")

    x = (v_o0, 0.0)
    r, size = residual(x)
    newton_steps = 0
    while size > V_ORBIT_TOL:
        if newton_steps == _MAX_ORBIT_ITER:
            raise failure(f"not within {V_ORBIT_TOL:g} V after "
                          f"{_MAX_ORBIT_ITER} Newton steps", size)
        newton_steps += 1
        h = _CYCLE_FD_STEP * max(abs(x[0]), 1.0)
        # x may sit on a kink of P; the Jacobian from its other side then
        # gives the descent
        step = newton_descent(x, r, size, h) or newton_descent(x, r, size, -h)
        if step is None:
            raise failure("no Newton step reduces the residual", size)
        x, r, size = step
    return PeriodicOrbit(state=SwitchCycleState(*x),
                         residual=size, cycles=calls)


def cycle_linearization(params: ValidatedParams, cmd: ModulationCommand,
                        x: SwitchCycleState) -> tuple:
    """The one-cycle map linearized at the boundary state x under ``cmd``
    (Verghese, Elbuluk & Kassakian, IEEE Trans. Power Electron. 1986):
    x_{n+1} = A x_n + B d_n and y_n = C x_n + D d_n, with d_n the duty held
    over cycle n and y_n the mean of cycle n, by one-sided differences
    (state step _CYCLE_FD_STEP relative, duty step _DUTY_FD_STEP).  Returns
    (A, B, C, D, cycles stepped).  Raises ZeroGainOperatingPoint where the
    duty does not move the map."""
    calls = 0
    consts = _cycle_consts(params, params.r_load, params.i_ls_amp, cmd.t_f)

    def residual(y, duty=cmd.duty):
        nonlocal calls
        calls += 1
        return _cycle_residual(duty, y, consts)

    r = residual(x)
    h_v = _CYCLE_FD_STEP * max(abs(x[0]), 1.0)
    jac = np.array(_cycle_jacobian(residual, x, r, h_v)).T  # rows: A - I, C
    r_d = residual(x, cmd.duty + _DUTY_FD_STEP)
    col_d = np.array([(p - q) / _DUTY_FD_STEP for p, q in zip(r_d, r)])
    if not col_d.any():
        raise ZeroGainOperatingPoint(
            f"the duty does not move the cycle map at D = {cmd.duty}")
    return jac[:2] + np.eye(2), col_d[:2], jac[2], col_d[2], calls


def _require_one_receiver(pieces: Sequence[CyclePiece]) -> ValidatedParams:
    """The receiver of ``pieces``, which must be at least one cycle, all
    stepped on it."""
    require_positive(n_cycles=len(pieces))
    params = pieces[0].params
    if any(piece.params != params for piece in pieces):
        raise NonPeriodicWindow("cycles stepped on different receivers")
    return params


# Samples per block of whole cycles that sample_waveform evaluates at once;
# the block bounds its memory (see its docstring).
_BLOCK_SAMPLES = 4096


def _segment_table(pieces: Sequence[CyclePiece], w: float) -> tuple:
    """The segments of ``pieces`` as columns with one row per segment: h,
    t_ref, p_s, p_c, va0, cos(w t_ref) and state; then the cycles as
    columns with one row per cycle: t_start, gate_on, gate_off, its first
    segment row and the ends of all its segments but the last (a cycle has
    at most five; missing ends are inf)."""
    rows, cycles = [], []
    for piece in pieces:
        segs = piece.segments
        cuts = [seg.t1 for seg in segs[:-1]]
        cycles.append((piece.t_start, piece.gate_on, piece.gate_off,
                       len(rows), *cuts, *[math.inf] * (4 - len(cuts))))
        rows.extend((seg.h, seg.t_ref, seg.p_s, seg.p_c, seg.va0,
                     math.cos(w * seg.t_ref), seg.state)
                    for seg in segs)
    return np.array(rows).T, np.array(cycles).T


def sample_waveform(pieces: Sequence[CyclePiece],
                    sample_rate: float) -> Waveform:
    """Evaluate the cycles' segment closed forms on a uniform grid.
    A sample within 1e-18 s of a cycle's end belongs to the next cycle, and
    one exactly on a segment's end to the next segment (the sample at T/2
    is State III).  There must be at least one cycle, and the cycles must
    share one receiver.

    The grid is evaluated in blocks of whole cycles of at most about
    ``_BLOCK_SAMPLES`` (4096) samples, 16 cycles at 256 samples per cycle,
    written into preallocated channels.  The block size is bounded because
    every temporary, the segment table included, is one block long: on
    400 cycles at 256 samples per cycle (a 4.3 MB result) they need about
    0.4 MB, where one pass over the whole run needed about 8 MB.  A
    sample's segment is its cycle's first segment plus the number of the
    cycle's segment ends at or before it.
    """
    params = _require_one_receiver(pieces)
    require_positive(sample_rate=sample_rate)
    ts = params.t_period
    w = params.omega
    tau = params.r_load * params.c_o
    amp = params.i_ls_amp / (w * params.c_sum)
    t_end = pieces[-1].t_start + ts
    n = int(round((t_end - pieces[0].t_start) * sample_rate))
    t = pieces[0].t_start + np.arange(n) / sample_rate
    i_ls = np.empty(n)
    v_cs1 = np.empty(n)
    v_cd1 = np.empty(n)
    v_o = np.empty(n)
    gate = np.empty(n, dtype=np.int8)
    state_ch = np.empty(n, dtype=np.int8)
    cycle_ends = np.searchsorted(
        t, np.array([piece.t_start for piece in pieces]) + ts - 1e-18)
    per_block = max(1, _BLOCK_SAMPLES * len(pieces) // max(n, 1))
    lo = 0
    for c0 in range(0, len(pieces), per_block):
        ((h, t_ref, p_s, p_c, va0, cos_ref, seg_state),
         (t_start, gate_on, gate_off, first_row, *cut_ends)) = \
            _segment_table(pieces[c0:c0 + per_block], w)
        ends = cycle_ends[c0:c0 + per_block]
        hi = ends[-1]
        cyc = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=lo))
        tk = t[lo:hi]
        th = tk - t_start[cyc]
        row = first_row.astype(np.intp)[cyc]
        for cut in cut_ends:
            row += th >= cut[cyc]
        sin_wt = np.sin(w * th)
        cos_wt = np.cos(w * th)
        i_ls[lo:hi] = params.i_ls_amp * sin_wt
        gate[lo:hi] = (gate_on[cyc] <= tk) & (tk < gate_off[cyc])
        v = (h[row] * np.exp(-(th - t_ref[row]) / tau)
             + p_s[row] * sin_wt + p_c[row] * cos_wt)
        v_o[lo:hi] = v
        st = seg_state[row]
        v_cd1[lo:hi] = np.where(
            np.isin(st, _CLAMPED), v,
            np.where(st == SwitchingState.STATE_V, 0.0,
                     va0[row] + amp * (cos_ref[row] - cos_wt)))
        state_ch[lo:hi] = st
        lo = hi
    np.subtract(v_o, v_cd1, out=v_cs1)
    return Waveform(t=t, i_ls=i_ls, v_cs1=v_cs1, v_cd1=v_cd1, v_o=v_o,
                    gate=gate, state=state_ch)


# ---------------------------------------------------------------------------
# spectrum and soft-switching summaries
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


def spectrum(pieces: Sequence[CyclePiece], channels: Sequence[str],
             n_harmonics: int) -> list:
    """Fourier coefficients at k*f_s, k = 1..n_harmonics (>= 1), plus THD
    of channels of whole cycles: one SpectrumResult per name in
    ``channels`` (``i_ls``, ``v_cs1``, ``v_cd1`` or ``v_o``), in order, each
    the same as from a call for it alone.  ``channels`` is a sequence of
    names; a bare string is rejected with a TypeError rather than read
    letter by letter.  There must be at least one cycle, and the cycles
    must share one receiver.

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
    contributes Z_k, and the decay e^{-(th-t0)/tau}, written from the segment start so nothing
    overflows, (e^{-(t1-t0)/tau} e^{-jkw t1} - e^{-jkw t0})/(-1/tau - jkw).
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
    require_positive(n_harmonics=n_harmonics)
    params = _require_one_receiver(pieces)
    w = params.omega
    tau = params.r_load * params.c_o
    amp = params.i_ls_amp / (w * params.c_sum)
    m = np.arange(n_harmonics + 2)
    neg_jmw = -1j * w * m
    neg_jmw[0] = 1.0     # Z_0 is set apart; keeps the division finite
    decay_den = -1.0 / tau + neg_jmw[1:-1]
    v_o = np.zeros(n_harmonics, dtype=complex)
    v_cd1 = np.zeros(n_harmonics, dtype=complex)
    for piece in pieces:
        segs = piece.segments
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
    scale = 2.0 / (params.t_period * len(pieces))
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


@dataclass(frozen=True)
class SoftSwitchingSummary:
    n_cycles: int
    zvs_fraction: float
    zcs_fraction: float
    worst_v_cs1_at_gate: float
    total_e_hard_switch: float


def soft_switching_report(diags: Sequence[CycleSummary]) -> SoftSwitchingSummary:
    """Aggregate soft-switching verdicts over a run (summaries or full
    diagnostics)."""
    n = len(diags)
    require_positive(n_cycles=n)
    # added left to right: sum() rounds differently from Python 3.12 on
    e_hard = 0.0
    for d in diags:
        e_hard += d.e_hard_switch
    return SoftSwitchingSummary(
        n_cycles=n,
        zvs_fraction=sum(d.zvs_ok for d in diags) / n,
        zcs_fraction=sum(d.zcs_ok for d in diags) / n,
        worst_v_cs1_at_gate=max(d.v_cs1_at_gate for d in diags),
        total_e_hard_switch=e_hard)
