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
steps from the lossless closed form to 1e-13 s.  No step size exists
anywhere.

All of a cycle's arithmetic lives in one private kernel, ``_cycle``, which
takes and returns plain floats: the boundary state, the gate command, the
load and the source amplitude in, the next state, the cycle mean and the
event times and closed-form coefficients out.  The closed-loop run and the
orbit solvers (``cycle_residual``) call it directly and build no records.
``step_cycle`` calls it and builds what other callers read: the next
state, a ``CycleSummary`` (cycle mean and end voltage, timing,
soft-switching verdicts) and the cycle's ``CyclePiece``, which keeps the
event times and closed-form coefficients and builds the segments and the
event list the first time they are read.  ``cycle_diagnostics`` builds the
full ``CycleDiagnostics`` (ledger, ripple extremes, device peaks) from a
piece; a ``run``'s result does so for every cycle the first time its
diagnostics are read.

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
from functools import cached_property
import math
from typing import Optional, Sequence

import numpy as np

from .analytic import TWO_PI
from .errors import GateOverrun, NoConvergence, NonPeriodicWindow
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

# Soft-switching verdict thresholds; small against the 24 V / 2.35 A scales.
V_ZVS_TOL = 10e-3   # residual switch voltage at the gate edge (V)
I_ZCS_TOL = 1e-3    # diode current at turn-off (A)

class SwitchingState(IntEnum):
    STATE_I = 1
    STATE_II = 2
    STATE_III = 3
    STATE_IV = 4
    STATE_V = 5


@dataclass(frozen=True)
class ModulationCommand:
    """Per-cycle gate command of the hybrid modulation: duty ratio and gate
    delay t_f after the current zero crossing (s).  The equivalent phase
    angle is ``analytic.phase_angle(duty, f_s * t_f)``."""
    duty: float
    t_f: float


@dataclass(frozen=True)
class SwitchCycleState:
    """Continuous state at a cycle boundary (the positive-going current zero
    crossing, where State I begins): the output voltage and the diode
    capacitance voltage, which is zero after a cycle that reached State V.
    The switch voltage is v_o - v_cd1."""
    v_o: float
    v_cd1: float = 0.0


@dataclass(frozen=True)
class CycleSummary:
    """What step_cycle reports of every cycle: the output voltage at both
    boundaries and its cycle mean, the measured timing and the
    soft-switching verdicts.

    ``t_f_meas``/``t_r_meas`` are the natural commutation intervals and are
    NaN when the corresponding transition never completed naturally.
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


@dataclass(frozen=True)
class _Seg:
    """One analytic segment, times relative to the cycle start.

    Output voltage: v_o(th) = h * exp(-(th-t_ref)/tau) + p_s sin(w th)
    + p_c cos(w th).  Without source-to-rail flow (States I, IV and V) the
    output capacitor only discharges into the load: p_s = p_c = 0.
    ``t_ref`` is the exponential's reference instant; it equals t0 except on
    the State-III half of a conduction interval, which keeps the State-II
    reference (the current zero crossing is not a restart).
    Node voltage (diode capacitance voltage):
      node "int":   va(th) = va0 + amp * (cos(w t_ref) - cos(w th))
      node "track": va = v_o(th)      (conduction clamp)
      node "zero":  va = 0            (diode conducting)
    """
    t0: float
    t1: float
    t_ref: float
    state: SwitchingState
    h: float
    p_s: float
    p_c: float
    node: str
    va0: float

    def v_o(self, th: float, tau: float, w: float) -> float:
        return (self.h * math.exp(-(th - self.t_ref) / tau)
                + self.p_s * math.sin(w * th) + self.p_c * math.cos(w * th))


@dataclass
class CyclePiece:
    """One carrier period as step_cycle solved it: its event times and
    closed-form coefficients.  ``segments`` and ``events`` are built from
    them the first time they are read."""
    t_start: float
    t_period: float
    i_amp: float
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

    @cached_property
    def segments(self) -> list:
        """The cycle's _Seg of each state it spent time in, in order.
        step_cycle's cycle mean integrates these same segments from its
        scalars, so the two must skip the same empty states."""
        ts, th1, th_iv, th4 = self.t_period, self.th1, self.th_iv, self.th4
        half = 0.5 * ts
        h, p_s, p_c = self.h, self.p_s, self.p_c
        v_at_iv = self.node_v[3]
        segs = []
        if th1 > 0.0:
            segs.append(_Seg(0.0, th1, 0.0, SwitchingState.STATE_I,
                             self.summary.v_o_start, 0.0, 0.0, "int",
                             self.node_v[0]))
        if th1 < half:
            segs.append(_Seg(th1, half, th1, SwitchingState.STATE_II,
                             h, p_s, p_c, "track", 0.0))
        t_iii = max(th1, half)
        if th_iv > t_iii:
            segs.append(_Seg(t_iii, th_iv, th1, SwitchingState.STATE_III,
                             h, p_s, p_c, "track", 0.0))
        th4_eff = th4 if th4 is not None else ts
        if th4_eff > th_iv:
            segs.append(_Seg(th_iv, th4_eff, th_iv, SwitchingState.STATE_IV,
                             v_at_iv, 0.0, 0.0, "int", v_at_iv))
        if self.summary.reached_state_v:
            segs.append(_Seg(th4, ts, th4, SwitchingState.STATE_V,
                             self.v_at_th4, 0.0, 0.0, "zero", 0.0))
        return segs

    @cached_property
    def events(self) -> list:
        """(absolute time, name) of the cycle's events, in time order."""
        t0, hard = self.t_start, self.summary.hard_switched
        events = [(t0, "cycle_start")]
        if not hard:
            events.append((t0 + self.th1, "cs1_zero"))
        events.append((self.gate_on, "gate_on"))
        if hard:
            events.append((t0 + self.th1, "hard_switch"))
        events.append((t0 + 0.5 * self.t_period, "ils_zero"))
        events.append((self.gate_off, "gate_off"))
        if self.th4 is not None:
            events.append((t0 + self.th4, "cd1_zero"))
        events.sort(key=lambda e: e[0])
        return events


@dataclass
class RunResult:
    """The pieces of a ``run``, its final state and the receiver it ran
    on.  ``diagnostics`` (``cycle_diagnostics`` of every piece) is built
    the first time it is read."""
    pieces: list
    final_state: SwitchCycleState
    params: ValidatedParams

    @cached_property
    def diagnostics(self) -> list:
        return [cycle_diagnostics(p, self.params) for p in self.pieces]


@dataclass
class Waveform:
    """Uniformly sampled channels."""
    t: np.ndarray
    i_ls: np.ndarray
    v_cs1: np.ndarray
    v_cd1: np.ndarray
    v_o: np.ndarray
    gate: np.ndarray
    state: np.ndarray
    sample_rate: float


# ---------------------------------------------------------------------------
# closed-form segment integrals
# ---------------------------------------------------------------------------

def _exp_trig_integrals(a: float, w: float, delta: float) -> tuple:
    """(int e^{au} sin(wu) du, int e^{au} cos(wu) du) over [0, delta]."""
    e = math.exp(a * delta)
    den = a * a + w * w
    i_s = (e * (a * math.sin(w * delta) - w * math.cos(w * delta)) + w) / den
    i_c = (e * (a * math.cos(w * delta) + w * math.sin(w * delta)) - a) / den
    return i_s, i_c


# antiderivatives of sin^2(w th), cos^2(w th) and sin(w th) cos(w th)
def _sin2(th: float, w: float) -> float:
    return th / 2.0 - math.sin(2.0 * w * th) / (4.0 * w)


def _cos2(th: float, w: float) -> float:
    return th / 2.0 + math.sin(2.0 * w * th) / (4.0 * w)


def _sincos(th: float, w: float) -> float:
    return -math.cos(2.0 * w * th) / (4.0 * w)


def _effective_exp_coeff(seg: _Seg, tau: float) -> float:
    """Leading exponential coefficient referenced to the segment start."""
    if seg.t_ref == seg.t0:
        return seg.h
    return seg.h * math.exp(-(seg.t0 - seg.t_ref) / tau)


def _int_v(t0: float, t1: float, coeff: float, p_s: float, p_c: float,
           tau: float, w: float) -> float:
    """Integral of v_o over a segment [t0, t1] whose exponential term is
    coeff at t0 (V*s)."""
    em = -math.expm1(-(t1 - t0) / tau)  # 1 - exp(-d/tau)
    if p_s == 0.0 and p_c == 0.0:  # no source-to-rail flow
        return tau * coeff * em
    trig = (-p_s * math.cos(w * t1) + p_c * math.sin(w * t1)
            + p_s * math.cos(w * t0) - p_c * math.sin(w * t0)) / w
    return tau * coeff * em + trig


def _int_iv(seg: _Seg, tau: float, w: float, i_amp: float) -> float:
    """Integral of i(th) * v_o(th) over a conduction segment (J)."""
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return 0.0
    a = -1.0 / tau
    i_s, i_c = _exp_trig_integrals(a, w, d)
    c0, s0 = math.cos(w * seg.t0), math.sin(w * seg.t0)
    # i = I sin(w th) = I (sin(wu)cos(wt0) + cos(wu)sin(wt0)), u = th - t0
    exp_part = _effective_exp_coeff(seg, tau) * (c0 * i_s + s0 * i_c)
    t0, t1 = seg.t0, seg.t1
    trig_part = (seg.p_s * (_sin2(t1, w) - _sin2(t0, w))
                 + seg.p_c * (_sincos(t1, w) - _sincos(t0, w)))
    return i_amp * (exp_part + trig_part)


def _int_v2(seg: _Seg, tau: float, w: float) -> float:
    """Integral of v_o^2 over the segment (V^2*s)."""
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return 0.0
    em2 = -math.expm1(-2.0 * d / tau)
    coeff = _effective_exp_coeff(seg, tau)
    a = -1.0 / tau
    i_s, i_c = _exp_trig_integrals(a, w, d)
    c0, s0 = math.cos(w * seg.t0), math.sin(w * seg.t0)
    # exp * sin(w th) and exp * cos(w th) pieces
    int_e_sin = c0 * i_s + s0 * i_c
    int_e_cos = c0 * i_c - s0 * i_s
    t0, t1 = seg.t0, seg.t1
    return (0.5 * tau * coeff * coeff * em2
            + 2.0 * coeff * (seg.p_s * int_e_sin + seg.p_c * int_e_cos)
            + seg.p_s ** 2 * (_sin2(t1, w) - _sin2(t0, w))
            + seg.p_c ** 2 * (_cos2(t1, w) - _cos2(t0, w))
            + 2.0 * seg.p_s * seg.p_c * (_sincos(t1, w) - _sincos(t0, w)))


def _conduction_extremes(seg: _Seg, tau: float, w: float, i_amp: float,
                         r_load: float) -> list:
    """Interior stationary values of v_o on a conduction segment.

    dv/dt = 0 where i(th) = v(th)/R; located by sign-change scan plus
    bisection (v is nearly constant, so at most a few roots exist).
    """
    out = []
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return out

    def g(th):
        return i_amp * math.sin(w * th) - seg.v_o(th, tau, w) / r_load

    n_scan = 8
    prev_th = seg.t0
    prev_g = g(prev_th)
    for k in range(1, n_scan + 1):
        th = seg.t0 + d * k / n_scan
        cur = g(th)
        if prev_g == 0.0:
            out.append(seg.v_o(prev_th, tau, w))
        elif prev_g * cur < 0.0:
            root = bisect_root(g, prev_th, th, xtol=T_EVENT_TOL)
            out.append(seg.v_o(root, tau, w))
        prev_th, prev_g = th, cur
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
    th = min(2.0 * math.asin(math.sqrt(s)) / w, hi) if s < 1.0 else hi
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


def _cycle(v0: float, va0: float, duty: float, t_f: float, r_load: float,
           i_amp: float, params: ValidatedParams) -> tuple:
    """The arithmetic of one carrier period from the boundary state
    (v0, va0) under the gate command (duty, t_f), with load r_load and
    source amplitude i_amp; every other value is read from ``params``.

    Returns plain floats: the next v_o and v_cd1 and the cycle mean first,
    then what step_cycle's records need: gate_off, th1, hard, v_cs1_at_gate,
    va_pre_snap, v_at_th1, th_iv, h, p_s, p_c, v_at_iv, th4 (None when the
    node never reaches zero), va_end_iv, reached_v and v_at_th4 (see
    CyclePiece).  Raises as step_cycle does.
    """
    # require_positive keeps the rule and its message; the chain only keeps
    # its two calls off the valid command of every cycle
    if not (0.0 < duty < 1.0 and 0.0 <= t_f < math.inf):
        require_positive(below=1.0, duty=duty)
        require_positive(allow_zero=True, t_f=t_f)

    ts = params.t_period
    w = params.omega
    tau = r_load * params.c_o
    half = 0.5 * ts
    gate_on = t_f
    gate_off = t_f + duty * ts
    if gate_off >= ts:
        raise GateOverrun(f"duty + f_s*t_f = {duty + t_f / ts:.6g} >= 1")

    amp = i_amp / (w * params.c_sum)
    # integral of v_o over each segment, in segment order: the cycle mean
    areas = []

    # ---- State I: natural commutation, or forced at the gate edge ----
    natural = None
    hi = min(gate_on, half)
    if v0 - va0 <= 0.0:
        natural = 0.0
    elif (i_amp > 0.0 and hi > 0.0 and v0 * math.exp(-hi / tau)
          - (va0 + amp * (1.0 - math.cos(w * hi))) <= 0.0):
        natural = _turn_on_time(v0, va0, amp, w, tau, hi)

    hard = natural is None
    th1 = gate_on if hard else natural
    v_at_th1 = v0 * math.exp(-th1 / tau)
    # node value when conduction begins: the clamp pins it to the output
    # voltage on natural completion (the located event time carries the
    # solver tolerance; the clamp value does not)
    va_pre_snap = va0 + amp * (1.0 - math.cos(w * th1)) if hard else v_at_th1
    v_cs1_at_gate = max(v_at_th1 - va_pre_snap, 0.0) if hard else 0.0
    if th1 > 0.0:
        areas.append(_int_v(0.0, th1, v0, 0.0, 0.0, tau, w))

    if hard:
        # diode capacitance top-up drawn from the output capacitor
        v_at_th1 -= v_cs1_at_gate * params.c_d1 / (params.c_o + params.c_d1)

    # ---- conduction: [th1, max(gate_off, half)], one closed form; State II
    # before the current zero crossing at T/2, State III after it ----
    th_iv = max(gate_off, half)
    p_s = i_amp * r_load / (1.0 + (w * tau) ** 2)
    p_c = -w * tau * p_s
    h = (v_at_th1 - p_s * math.sin(w * th1) - p_c * math.cos(w * th1))
    if th1 < half:
        areas.append(_int_v(th1, half, h, p_s, p_c, tau, w))
    t_iii = max(th1, half)
    if th_iv > t_iii:
        areas.append(_int_v(t_iii, th_iv, h * math.exp(-(t_iii - th1) / tau),
                            p_s, p_c, tau, w))
    v_at_iv = (h * math.exp(-(th_iv - th1) / tau) + p_s * math.sin(w * th_iv)
               + p_c * math.cos(w * th_iv))

    # ---- State IV: the node swings down toward the diode along
    # va(th) = v_at_iv + amp (cos w th_iv - cos w th).  On [th_iv, T] the
    # phase w th lies in [pi, 2 pi], where cos increases, so the zero is
    # the one root of cos w th = c; c > 1 means no zero before T ----
    th4 = None
    if v_at_iv <= 0.0:
        th4 = th_iv
    elif i_amp > 0.0:
        c = math.cos(w * th_iv) + v_at_iv / amp
        if c <= 1.0:
            th4 = min(max((TWO_PI - math.acos(c)) / w, th_iv), ts)

    th4_eff = th4 if th4 is not None else ts
    if th4_eff > th_iv:
        areas.append(_int_v(th_iv, th4_eff, v_at_iv, 0.0, 0.0, tau, w))
    va_end_iv = 0.0 if th4 is not None else \
        v_at_iv + amp * (math.cos(w * th_iv) - math.cos(w * ts))

    # ---- State V: freewheel; v_o decays from the last segment's start ----
    reached_v = th4 is not None and th4 < ts
    t_last = th4 if reached_v else th_iv
    v_at_th4 = v_at_iv * math.exp(-(t_last - th_iv) / tau)
    if reached_v:
        areas.append(_int_v(th4, ts, v_at_th4, 0.0, 0.0, tau, w))

    v_end = v_at_th4 * math.exp(-(ts - t_last) / tau)
    # 0 when State V was reached; on a cycle that never freewheels the
    # switch-path diode caps the carried node voltage at the output rail
    return (v_end, min(va_end_iv, v_end), sum(areas) / ts,
            gate_off, th1, hard, v_cs1_at_gate, va_pre_snap, v_at_th1, th_iv,
            h, p_s, p_c, v_at_iv, th4, va_end_iv, reached_v, v_at_th4)


def step_cycle(state: SwitchCycleState, cmd: ModulationCommand,
               params: ValidatedParams, t_start: float = 0.0) -> tuple:
    """Advance exactly one carrier period.

    Returns (next_state, CycleSummary, CyclePiece);
    ``cycle_diagnostics(piece, params)`` builds the full record.  Raises
    NonPositiveParameter for a duty outside (0, 1) or a negative or
    non-finite gate delay, and GateOverrun when the gate-off edge would pass
    the end of the period.  The arithmetic is ``_cycle``'s, at
    ``params.r_load`` and ``params.i_ls_amp``; this builds the records.
    """
    i_amp = params.i_ls_amp
    (v_end, va_cycle_end, v_mean, gate_off, th1, hard, v_cs1_at_gate,
     va_pre_snap, v_at_th1, th_iv, h, p_s, p_c, v_at_iv, th4, va_end_iv,
     reached_v, v_at_th4) = _cycle(state.v_o, state.v_cd1, cmd.duty, cmd.t_f,
                                   params.r_load, i_amp, params)
    ts = params.t_period
    summary = CycleSummary(
        v_o_start=state.v_o, v_o_end=v_end, v_o_mean=v_mean,
        t_f_meas=th1 if not hard else float("nan"),
        t_r_meas=(th4 - th_iv) if th4 is not None else float("nan"),
        zvs_ok=v_cs1_at_gate <= V_ZVS_TOL,
        zcs_ok=(reached_v
                and abs(i_amp * math.sin(params.omega * ts)) <= I_ZCS_TOL),
        v_cs1_at_gate=v_cs1_at_gate, hard_switched=hard,
        reached_state_v=reached_v,
        e_hard_switch=(0.5 * params.c_s1 * v_cs1_at_gate * v_cs1_at_gate
                       if hard else 0.0))

    piece = CyclePiece(t_start=t_start, t_period=ts, i_amp=i_amp,
                       gate_on=t_start + cmd.t_f, gate_off=t_start + gate_off,
                       summary=summary,
                       node_v=(state.v_cd1, va_pre_snap, v_at_th1, v_at_iv,
                               va_end_iv, va_cycle_end),
                       th1=th1, th_iv=th_iv, th4=th4, h=h, p_s=p_s, p_c=p_c,
                       v_at_th4=v_at_th4)
    return SwitchCycleState(v_end, va_cycle_end), summary, piece


def cycle_diagnostics(piece: CyclePiece,
                      params: ValidatedParams) -> CycleDiagnostics:
    """The full record of one cycle, built from its piece: the summary plus
    the charge/energy ledger, the output ripple extremes and the device
    peaks.  ``params`` must be the receiver the piece was stepped with."""
    s = piece.summary
    w = params.omega
    tau = params.r_load * params.c_o
    c_sum = params.c_sum
    va0, va_pre_snap, va_clamp_start, v_at_iv, va_end_iv, va_cycle_end = \
        piece.node_v
    v0, v_end = s.v_o_start, s.v_o_end

    e_cond = 0.0
    e_load = 0.0
    candidates = [v0, v_end]
    cond_candidates = [va_pre_snap]
    for seg in piece.segments:
        e_load += _int_v2(seg, tau, w) / params.r_load
        ends = (seg.v_o(seg.t0, tau, w), seg.v_o(seg.t1, tau, w))
        if seg.node == "track":
            e_cond += _int_iv(seg, tau, w, piece.i_amp)
            interior = _conduction_extremes(seg, tau, w, piece.i_amp,
                                            params.r_load)
            candidates.extend(interior)
            cond_candidates.extend(interior)
            cond_candidates.extend(ends)
        candidates.extend(ends)

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
        states_visited=tuple(sorted({int(g.state) for g in piece.segments})))


def run(params: ValidatedParams, cmd: ModulationCommand, n_cycles: int,
        v_o0: float = 0.0,
        initial: Optional[SwitchCycleState] = None) -> RunResult:
    """Run ``n_cycles`` (>= 1) carrier periods of the constant command
    ``cmd``, from ``initial``, or else from output voltage ``v_o0`` (finite,
    >= 0) with the diode capacitance empty.  Its diagnostics are the full
    ``cycle_diagnostics`` of every cycle, built when first read;
    ``sample_waveform(pieces, ...)`` samples the result;
    ``periodic_steady_state`` gives a start on the orbit.
    """
    require_positive(n_cycles=n_cycles)
    state = initial
    if state is None:
        require_positive(allow_zero=True, v_o0=v_o0)
        state = SwitchCycleState(v_o0)
    pieces = []
    for n in range(n_cycles):
        state, _, piece = step_cycle(state, cmd, params,
                                     t_start=n * params.t_period)
        pieces.append(piece)
    return RunResult(pieces=pieces, final_state=state, params=params)


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
CYCLE_FD_STEP = 1e-4    # state difference step, relative to max(|v_o|, 1 V)


def cycle_residual(params: ValidatedParams, cmd: ModulationCommand,
                   x: tuple) -> tuple:
    """(P(x) - x, cycle mean) of one cycle from x = (v_o, v_cd1)."""
    v_o, v_cd1, v_mean = _cycle(x[0], x[1], cmd.duty, cmd.t_f, params.r_load,
                                params.i_ls_amp, params)[:3]
    return (v_o - x[0], v_cd1 - x[1], v_mean)


def cycle_jacobian(residual, x: tuple, r: tuple, h: float) -> tuple:
    """Columns d/dv_o and d/dv_cd1 of ``residual`` (cycle_residual as a
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

    def residual(x):
        """(cycle_residual, the max-norm of its P(x) - x)."""
        nonlocal calls
        calls += 1
        r = cycle_residual(params, cmd, x)
        return r, max(abs(r[0]), abs(r[1]))

    def newton_descent(x, r, size, h):
        """Damped Newton step with a one-sided difference Jacobian (step h);
        None when no damping of it reduces the residual.  A damped point
        that fails is retried with v_cd1 replaced by its one-cycle image,
        which is what a step across the State-V boundary needs: there
        v_cd1' turns from identically zero to following v_o."""
        (j11, j21, _), (j12, j22, _) = cycle_jacobian(
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
        h = CYCLE_FD_STEP * max(abs(x[0]), 1.0)
        # x may sit on a kink of P; the Jacobian from its other side then
        # gives the descent
        step = newton_descent(x, r, size, h) or newton_descent(x, r, size, -h)
        if step is None:
            raise failure("no Newton step reduces the residual", size)
        x, r, size = step
    return PeriodicOrbit(state=SwitchCycleState(*x),
                         residual=size, cycles=calls)


def sample_waveform(pieces: Sequence[CyclePiece], params: ValidatedParams,
                    sample_rate: float) -> Waveform:
    """Evaluate each segment's closed form over its slice of a uniform grid.
    A sample within 1e-18 s of a cycle's end belongs to the next cycle, and
    one exactly on a segment's end to the next segment (the sample at T/2
    is State III)."""
    require_positive(sample_rate=sample_rate)
    ts = params.t_period
    w = params.omega
    tau = params.r_load * params.c_o
    t_end = pieces[-1].t_start + ts
    n = int(round((t_end - pieces[0].t_start) * sample_rate))
    t = pieces[0].t_start + np.arange(n) / sample_rate
    i_ls = np.empty(n)
    v_cd1 = np.empty(n)
    v_o = np.empty(n)
    gate = np.empty(n, dtype=np.int8)
    state_ch = np.empty(n, dtype=np.int8)
    cycle_ends = np.searchsorted(t, [p.t_start + ts - 1e-18 for p in pieces])
    lo = 0
    for piece, hi in zip(pieces, cycle_ends):
        tk = t[lo:hi]
        th = tk - piece.t_start
        sin_wt = np.sin(w * th)
        cos_wt = np.cos(w * th)
        amp = piece.i_amp / (w * params.c_sum)
        i_ls[lo:hi] = piece.i_amp * sin_wt
        gate[lo:hi] = (piece.gate_on <= tk) & (tk < piece.gate_off)
        segs = piece.segments
        cuts = np.searchsorted(th, [seg.t1 for seg in segs[:-1]]).tolist()
        for seg, a, b in zip(segs, [0, *cuts], [*cuts, len(th)]):
            out = slice(lo + a, lo + b)
            v_o[out] = (seg.h * np.exp(-(th[a:b] - seg.t_ref) / tau)
                        + seg.p_s * sin_wt[a:b] + seg.p_c * cos_wt[a:b])
            if seg.node == "int":
                v_cd1[out] = seg.va0 + amp * (math.cos(w * seg.t_ref)
                                              - cos_wt[a:b])
            else:
                v_cd1[out] = v_o[out] if seg.node == "track" else 0.0
            state_ch[out] = seg.state
        lo = hi
    return Waveform(t=t, i_ls=i_ls, v_cs1=v_o - v_cd1, v_cd1=v_cd1, v_o=v_o,
                    gate=gate, state=state_ch, sample_rate=sample_rate)


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


def spectrum(waveform: Waveform, channel: str, n_harmonics: int,
             f_s: float) -> SpectrumResult:
    """Single-bin correlation at k*f_s for k = 1..n_harmonics, plus THD.

    The waveform must cover an integer number of carrier periods (>= 16);
    the correlation over such a window is exact for band-limited content
    and rejects all other harmonics on the uniform grid.
    """
    y = getattr(waveform, channel)
    t = waveform.t
    n = len(t)
    dt = 1.0 / waveform.sample_rate
    periods = n * dt * f_s
    m = round(periods)
    if m < 16 or abs(periods - m) > 1e-6 * max(m, 1):
        raise NonPeriodicWindow(
            f"window covers {periods:.6g} carrier periods; need an integer "
            ">= 16")
    max_k = int(0.5 * waveform.sample_rate / f_s)
    if n_harmonics > max_k:
        raise NonPeriodicWindow(
            f"harmonic {n_harmonics} above Nyquist for sample rate "
            f"{waveform.sample_rate:.3g}")
    harmonics = []
    for k in range(1, n_harmonics + 1):
        c = 2.0 / n * np.sum(y * np.exp(-1j * TWO_PI * k * f_s * t))
        harmonics.append((k, float(np.abs(c)), float(np.angle(c))))
    a1 = harmonics[0][1]
    rest = math.sqrt(sum(a * a for _, a, _ in harmonics[1:]))
    thd = rest / a1 if a1 > 0 else float("inf")
    return SpectrumResult(harmonics=harmonics, thd=thd)


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
    return SoftSwitchingSummary(
        n_cycles=n,
        zvs_fraction=sum(d.zvs_ok for d in diags) / n,
        zcs_fraction=sum(d.zcs_ok for d in diags) / n,
        worst_v_cs1_at_gate=max(d.v_cs1_at_gate for d in diags),
        total_e_hard_switch=sum(d.e_hard_switch for d in diags))
