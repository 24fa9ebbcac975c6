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
sinusoid-driven RC forms), so the simulator composes closed forms and
locates the two commutation events by bracketed bisection to 1e-13 s.  No
step size exists anywhere.

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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analytic import TWO_PI, phase_angle
from .errors import GateOverrun, InvalidDuty, NoConvergence, NonPeriodicWindow
from .params import ValidatedParams, require_positive
from .rootfind import bisect_root

# Event localization tolerance (s).
T_EVENT_TOL = 1e-13

# Periodic steady state: largest one-cycle change |P(x) - x| of the boundary
# state accepted as "on the orbit" (V).  The attainable floor is set by
# T_EVENT_TOL: a located turn-on that moves by 1e-13 s moves the cycle-end
# output by about |I|*1e-13 s/C_o, 1e-10 V at the table2 point.
V_ORBIT_TOL = 1e-9

# Soft-switching verdict thresholds; small against the 24 V / 2.35 A scales.
V_ZVS_TOL = 10e-3   # residual switch voltage at the gate edge (V)
I_ZCS_TOL = 1e-3    # diode current at turn-off (A)

EVENT_NAMES = ("gate_on", "gate_off", "cs1_zero", "cd1_zero", "ils_zero",
               "cycle_start", "hard_switch")


class SwitchingState(IntEnum):
    STATE_I = 1
    STATE_II = 2
    STATE_III = 3
    STATE_IV = 4
    STATE_V = 5


@dataclass(frozen=True)
class ModulationCommand:
    """Per-cycle gate command: duty ratio, gate delay after the current zero
    crossing, and the equivalent phase angle."""
    duty: float
    t_f: float
    phi: float

    @classmethod
    def make(cls, duty: float, t_f: float, f_s: float) -> "ModulationCommand":
        return cls(duty=duty, t_f=t_f,
                   phi=phase_angle(duty, f_s * t_f))


@dataclass(frozen=True)
class SwitchCycleState:
    """Continuous state at a cycle boundary (the positive-going current zero
    crossing, where State I begins): the output voltage and the diode
    capacitance voltage, which is zero after a cycle that reached State V.
    The switch voltage is v_o - v_cd1."""
    v_o: float
    v_cd1: float = 0.0


@dataclass(frozen=True)
class CycleDiagnostics:
    """Measured timing, soft-switching verdicts, and the charge/energy
    ledger of one cycle.

    ``t_f_meas``/``t_r_meas`` are the natural commutation intervals and are
    NaN when the corresponding transition never completed naturally.
    ``de_stored`` uses the node-referenced convention described in the
    module docstring, so ``e_in + e_node_tracking - e_load - de_stored -
    e_hard_switch`` is zero (to roundoff) for every soft-switched cycle.
    """
    t_f_meas: float
    t_r_meas: float
    zvs_ok: bool
    zcs_ok: bool
    v_cs1_at_gate: float
    hard_switched: bool
    reached_state_v: bool
    q_f: float
    q_r: float
    e_in: float
    e_load: float
    e_hard_switch: float
    e_node_tracking: float
    de_stored: float
    v_o_mean: float
    v_o_ripple_pp: float
    v_o_min: float
    v_o_max: float
    v_cs1_peak: float
    v_cd1_peak: float
    v_o_start: float
    v_o_end: float
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

    def v_node(self, th: float, tau: float, w: float, amp: float) -> float:
        if self.node == "int":
            return self.va0 + amp * (math.cos(w * self.t_ref) - math.cos(w * th))
        if self.node == "track":
            return self.v_o(th, tau, w)
        return 0.0


@dataclass
class CyclePiece:
    """Everything step_cycle produced for one carrier period."""
    t_start: float
    i_amp: float
    gate_on: float
    gate_off: float
    segments: list
    events: list  # (absolute time, name)


@dataclass
class RunResult:
    diagnostics: list
    pieces: list
    events: list
    waveform: Optional["Waveform"]
    steady_detected: bool
    steady_cycle: Optional[int]
    final_state: SwitchCycleState


@dataclass
class Waveform:
    """Uniformly sampled channels plus the exact event log."""
    t: np.ndarray
    i_ls: np.ndarray
    v_cs1: np.ndarray
    v_cd1: np.ndarray
    v_o: np.ndarray
    gate: np.ndarray
    state: np.ndarray
    events: list
    sample_rate: float

    def channel(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"no channel {name!r}") from None

    def table_rows(self):
        yield "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
        for k in range(len(self.t)):
            yield (f"{self.t[k]:.11e},{self.i_ls[k]:.11e},"
                   f"{self.v_cs1[k]:.11e},{self.v_cd1[k]:.11e},"
                   f"{self.v_o[k]:.11e},{int(self.gate[k])},"
                   f"{int(self.state[k])}")

    def save_table(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for row in self.table_rows():
                fh.write(row + "\n")

    def save_events(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("t,event\n")
            for t, name in self.events:
                fh.write(f"{t:.11e},{name}\n")


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


def _int_v(seg: _Seg, tau: float, w: float) -> float:
    """Integral of v_o over the segment (V*s)."""
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return 0.0
    em = -math.expm1(-d / tau)  # 1 - exp(-d/tau)
    coeff = _effective_exp_coeff(seg, tau)
    trig = (-seg.p_s * math.cos(w * seg.t1) + seg.p_c * math.sin(w * seg.t1)
            + seg.p_s * math.cos(w * seg.t0) - seg.p_c * math.sin(w * seg.t0)) / w
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

def step_cycle(state: SwitchCycleState, cmd: ModulationCommand,
               params: ValidatedParams, t_start: float = 0.0) -> tuple:
    """Advance exactly one carrier period.

    Returns (next_state, CycleDiagnostics, CyclePiece).  Raises InvalidDuty
    for duty outside (0, 1), NonPositiveParameter for a negative or
    non-finite gate delay, and GateOverrun when the gate-off edge would pass
    the end of the period.
    """
    if not (0.0 < cmd.duty < 1.0):
        raise InvalidDuty(f"duty {cmd.duty!r} outside (0, 1)")
    require_positive(allow_zero=True, t_f=cmd.t_f)

    ts = params.t_period
    w = params.omega
    tau = params.r_load * params.c_o
    i_amp = params.i_ls_amp
    c_sum = params.c_sum
    half = 0.5 * ts
    gate_on = cmd.t_f
    gate_off = cmd.t_f + cmd.duty * ts
    if gate_off >= ts:
        raise GateOverrun(
            f"duty + f_s*t_f = {cmd.duty + cmd.t_f / ts:.6g} >= 1")

    amp = i_amp / (w * c_sum) if i_amp > 0.0 else 0.0
    v0 = state.v_o
    va0 = state.v_cd1
    events = [(t_start, "cycle_start")]
    segments = []

    # ---- State I: locate natural commutation or force at the gate edge ----
    def va_i(th):
        return va0 + amp * (1.0 - math.cos(w * th))

    def vo_decay(th):
        return v0 * math.exp(-th / tau)

    def gap(th):  # switch voltage v_o - v_node during State I
        return vo_decay(th) - va_i(th)

    natural = None
    if gap(0.0) <= 0.0:
        natural = 0.0
    elif i_amp > 0.0:
        hi = min(gate_on, half)
        if hi > 0.0 and gap(hi) <= 0.0:
            natural = bisect_root(gap, 0.0, hi, xtol=T_EVENT_TOL)

    hard = natural is None
    th1 = gate_on if hard else natural
    w_resid = max(gap(th1), 0.0) if hard else 0.0
    v_cs1_at_gate = w_resid

    # node value when conduction begins: the clamp pins it to the output
    # voltage on natural completion (the located event time carries the
    # bisection tolerance; the clamp value does not)
    va_pre_snap = va_i(th1) if hard else vo_decay(th1)
    if th1 > 0.0:
        segments.append(_Seg(t0=0.0, t1=th1, t_ref=0.0,
                             state=SwitchingState.STATE_I, h=v0, p_s=0.0,
                             p_c=0.0, node="int", va0=va0))
    if not hard:
        events.append((t_start + th1, "cs1_zero"))
    events.append((t_start + gate_on, "gate_on"))

    v_at_th1 = vo_decay(th1)
    e_in_node = 0.5 * c_sum * (va_pre_snap ** 2 - va0 ** 2)
    q_f = c_sum * (va_pre_snap - va0)
    t_f_meas = th1 if not hard else float("nan")

    e_hard = 0.0
    if hard:
        events.append((t_start + th1, "hard_switch"))
        e_hard = 0.5 * params.c_s1 * w_resid * w_resid
        # diode capacitance top-up drawn from the output capacitor
        v_at_th1 -= w_resid * params.c_d1 / (params.c_o + params.c_d1)

    # ---- conduction: [th1, max(gate_off, half)], one closed form; State II
    # before the current zero crossing at T/2, State III after it ----
    th_iv = max(gate_off, half)
    p_s = i_amp * params.r_load / (1.0 + (w * tau) ** 2)
    p_c = -w * tau * p_s
    h = (v_at_th1 - p_s * math.sin(w * th1) - p_c * math.cos(w * th1))
    if th1 < half:
        segments.append(_Seg(t0=th1, t1=half, t_ref=th1,
                             state=SwitchingState.STATE_II, h=h, p_s=p_s,
                             p_c=p_c, node="track", va0=0.0))
    state_iii = _Seg(t0=max(th1, half), t1=th_iv, t_ref=th1,
                     state=SwitchingState.STATE_III, h=h, p_s=p_s, p_c=p_c,
                     node="track", va0=0.0)
    if th_iv > state_iii.t0:
        segments.append(state_iii)
    events.append((t_start + half, "ils_zero"))
    events.append((t_start + gate_off, "gate_off"))

    v_at_iv = state_iii.v_o(th_iv, tau, w)

    # ---- State IV: node swings down toward the diode ----
    def va_iv(th):
        return v_at_iv + amp * (math.cos(w * th_iv) - math.cos(w * th))

    th4 = None
    if i_amp > 0.0 and v_at_iv > 0.0:
        if va_iv(ts) <= 0.0:
            th4 = bisect_root(va_iv, th_iv, ts, xtol=T_EVENT_TOL)
    elif v_at_iv <= 0.0:
        th4 = th_iv
    if th4 is not None:
        events.append((t_start + th4, "cd1_zero"))

    th4_eff = th4 if th4 is not None else ts
    if th4_eff > th_iv:
        segments.append(_Seg(t0=th_iv, t1=th4_eff, t_ref=th_iv,
                             state=SwitchingState.STATE_IV, h=v_at_iv,
                             p_s=0.0, p_c=0.0, node="int", va0=v_at_iv))
    va_end_iv = 0.0 if th4 is not None else va_iv(ts)
    e_in_node += 0.5 * c_sum * (va_end_iv ** 2 - v_at_iv ** 2)
    q_r = c_sum * (v_at_iv - va_end_iv)
    t_r_meas = (th4 - th_iv) if th4 is not None else float("nan")

    # ---- State V: freewheel ----
    v_at_th4 = segments[-1].v_o(th4_eff, tau, w) if th4_eff > th_iv else v_at_iv
    reached_v = th4 is not None and th4 < ts
    if reached_v:
        segments.append(_Seg(t0=th4, t1=ts, t_ref=th4,
                             state=SwitchingState.STATE_V, h=v_at_th4,
                             p_s=0.0, p_c=0.0, node="zero", va0=0.0))

    v_end = segments[-1].v_o(ts, tau, w)
    # 0 when State V was reached; on a cycle that never freewheels the
    # switch-path diode caps the carried node voltage at the output rail
    va_cycle_end = min(va_end_iv, v_end)

    zcs_ok = reached_v and abs(i_amp * math.sin(w * ts)) <= I_ZCS_TOL
    zvs_ok = v_cs1_at_gate <= V_ZVS_TOL

    # ---- ledgers ----
    e_cond = 0.0
    e_load_int = 0.0
    int_v_total = 0.0
    candidates = [v0, v_end]
    cond_candidates = [va_pre_snap]
    for seg in segments:
        int_v_total += _int_v(seg, tau, w)
        e_load_int += _int_v2(seg, tau, w) / params.r_load
        ends = (seg.v_o(seg.t0, tau, w), seg.v_o(seg.t1, tau, w))
        if seg.node == "track":
            e_cond += _int_iv(seg, tau, w, i_amp)
            interior = _conduction_extremes(seg, tau, w, i_amp,
                                            params.r_load)
            candidates.extend(interior)
            cond_candidates.extend(interior)
            cond_candidates.extend(ends)
        candidates.extend(ends)

    e_in = e_in_node + e_cond
    # node energy acquired while clamped to the rail (model supplies no
    # rail current for it; see module docstring)
    va_clamp_start = v_at_th1 if hard else va_pre_snap
    e_node_tracking = 0.5 * c_sum * (v_at_iv ** 2 - va_clamp_start ** 2)
    de_stored = (0.5 * params.c_o * (v_end ** 2 - v0 ** 2)
                 + 0.5 * c_sum * (va_cycle_end ** 2 - va0 ** 2))
    v_o_mean = int_v_total / ts
    v_o_min = min(candidates)
    v_o_max = max(candidates)

    # device peaks: the diode sees the output rail during conduction, the
    # switch sees it while the diode freewheels
    v_cd1_peak = max(cond_candidates)
    v_cs1_peak = max(v0 - va0, v_at_th4 if reached_v else v_end - va_cycle_end)

    diags = CycleDiagnostics(
        t_f_meas=t_f_meas, t_r_meas=t_r_meas, zvs_ok=zvs_ok, zcs_ok=zcs_ok,
        v_cs1_at_gate=v_cs1_at_gate, hard_switched=hard,
        reached_state_v=reached_v, q_f=q_f, q_r=q_r, e_in=e_in,
        e_load=e_load_int, e_hard_switch=e_hard,
        e_node_tracking=e_node_tracking, de_stored=de_stored,
        v_o_mean=v_o_mean, v_o_ripple_pp=v_o_max - v_o_min,
        v_o_min=v_o_min, v_o_max=v_o_max, v_cs1_peak=v_cs1_peak,
        v_cd1_peak=v_cd1_peak, v_o_start=v0, v_o_end=v_end,
        states_visited=tuple(sorted({int(s.state) for s in segments})))

    events.sort(key=lambda e: e[0])
    piece = CyclePiece(t_start=t_start, i_amp=i_amp, gate_on=t_start + gate_on,
                       gate_off=t_start + gate_off, segments=segments,
                       events=events)
    return SwitchCycleState(v_end, va_cycle_end), diags, piece


ModulationSource = Union[ModulationCommand,
                         Callable[[int, SwitchCycleState], ModulationCommand]]


def run(params: ValidatedParams, modulation: ModulationSource,
        n_cycles: int, v_o0: float = 0.0,
        initial: Optional[SwitchCycleState] = None,
        sample_rate: float = 0.0) -> RunResult:
    """Run ``n_cycles`` carrier periods.

    ``modulation`` is either a constant command or a callable
    ``(cycle_index, state) -> ModulationCommand`` evaluated at each cycle
    start.  The run starts from ``initial``, or else from output voltage
    ``v_o0`` (finite, >= 0) with the diode capacitance empty.
    ``sample_rate`` > 0 additionally captures a uniformly sampled waveform.
    Steady state is flagged when the cycle-mean output moves by less than
    1 uV for 10 consecutive cycles.
    """
    if n_cycles < 1:
        raise InvalidDuty(f"n_cycles must be >= 1, got {n_cycles}")
    state = initial
    if state is None:
        require_positive(allow_zero=True, v_o0=v_o0)
        state = SwitchCycleState(v_o0)
    diags = []
    pieces = []
    events = []
    steady_run = 0
    steady_cycle = None
    prev_mean = None
    for n in range(n_cycles):
        cmd = modulation(n, state) if callable(modulation) else modulation
        state, d, piece = step_cycle(state, cmd, params,
                                     t_start=n * params.t_period)
        diags.append(d)
        pieces.append(piece)
        events.extend(piece.events)
        if prev_mean is not None and abs(d.v_o_mean - prev_mean) < 1e-6:
            steady_run += 1
            if steady_run >= 10 and steady_cycle is None:
                steady_cycle = n - 9
        else:
            steady_run = 0
        prev_mean = d.v_o_mean
    waveform = None
    if sample_rate > 0.0:
        waveform = sample_waveform(pieces, params, sample_rate, events)
    return RunResult(diagnostics=diags, pieces=pieces, events=events,
                     waveform=waveform, steady_detected=steady_cycle is not None,
                     steady_cycle=steady_cycle, final_state=state)


@dataclass(frozen=True)
class PeriodicOrbit:
    """Cycle-aligned state on the periodic orbit of a constant command.

    ``residual`` is max(|dv_o|, |dv_cd1|) over one cycle started from
    ``state`` (V); ``cycles`` counts the step_cycle calls the solve used.
    """
    state: SwitchCycleState
    residual: float
    cycles: int


_MAX_ORBIT_ITER = 30
_MIN_ORBIT_DAMPING = 1.0 / 1024.0
_ORBIT_FD_STEP = 1e-4   # difference step, relative to max(|v_o|, 1 V)


def periodic_steady_state(params: ValidatedParams, cmd: ModulationCommand,
                          v_o0: float) -> PeriodicOrbit:
    """Periodic steady state of a constant command, found by shooting.

    Solves P(x) = x, where P is step_cycle's map of the boundary state
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
        """(P(x) - x, its max-norm)."""
        nonlocal calls
        calls += 1
        nxt = step_cycle(SwitchCycleState(*x), cmd, params)[0]
        r = (nxt.v_o - x[0], nxt.v_cd1 - x[1])
        return r, max(abs(r[0]), abs(r[1]))

    def newton_descent(x, r, size, h):
        """Damped Newton step with a one-sided difference Jacobian (step h);
        None when no damping of it reduces the residual.  A damped point
        that fails is retried with v_cd1 replaced by its one-cycle image,
        which is what a step across the State-V boundary needs: there
        v_cd1' turns from identically zero to following v_o."""
        rv, _ = residual((x[0] + h, x[1]))
        j11, j21 = (rv[0] - r[0]) / h, (rv[1] - r[1]) / h
        if x[1] == 0.0 and r[1] == 0.0 and rv[1] == 0.0:
            # State V reached: v_cd1 stays at zero, only v_o moves
            j12, j22 = 0.0, -1.0
        else:
            ra, _ = residual((x[0], x[1] + h))
            j12, j22 = (ra[0] - r[0]) / h, (ra[1] - r[1]) / h
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
        h = _ORBIT_FD_STEP * max(abs(x[0]), 1.0)
        # x may sit on a kink of P; the Jacobian from its other side then
        # gives the descent
        step = newton_descent(x, r, size, h) or newton_descent(x, r, size, -h)
        if step is None:
            raise failure("no Newton step reduces the residual", size)
        x, r, size = step
    return PeriodicOrbit(state=SwitchCycleState(*x),
                         residual=size, cycles=calls)


def sample_waveform(pieces: Sequence[CyclePiece], params: ValidatedParams,
                    sample_rate: float, events: list) -> Waveform:
    """Evaluate the exact piecewise forms on a uniform grid."""
    ts = params.t_period
    w = params.omega
    tau = params.r_load * params.c_o
    t_end = pieces[-1].t_start + ts
    n = int(round((t_end - pieces[0].t_start) * sample_rate))
    t = pieces[0].t_start + np.arange(n) / sample_rate
    i_ls = np.empty(n)
    v_cs1 = np.empty(n)
    v_cd1 = np.empty(n)
    v_o = np.empty(n)
    gate = np.zeros(n, dtype=np.int8)
    state_ch = np.empty(n, dtype=np.int8)
    k = 0
    for piece in pieces:
        amp = piece.i_amp / (w * params.c_sum) if piece.i_amp > 0 else 0.0
        t_hi = piece.t_start + ts
        while k < n and t[k] < t_hi - 1e-18:
            th = t[k] - piece.t_start
            seg = _segment_at(piece.segments, th)
            vo = seg.v_o(th, tau, w)
            vn = seg.v_node(th, tau, w, amp)
            i_ls[k] = piece.i_amp * math.sin(w * th)
            v_o[k] = vo
            v_cd1[k] = vn
            v_cs1[k] = vo - vn
            gate[k] = 1 if piece.gate_on <= t[k] < piece.gate_off else 0
            state_ch[k] = int(seg.state)
            k += 1
    return Waveform(t=t, i_ls=i_ls, v_cs1=v_cs1, v_cd1=v_cd1, v_o=v_o,
                    gate=gate, state=state_ch, events=list(events),
                    sample_rate=sample_rate)


def _segment_at(segments: list, th: float) -> _Seg:
    for seg in segments:
        if seg.t0 - 1e-18 <= th < seg.t1:
            return seg
    return segments[-1]


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
    y = waveform.channel(channel)
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


def soft_switching_report(diags: Sequence[CycleDiagnostics]) -> SoftSwitchingSummary:
    """Aggregate soft-switching verdicts over a run."""
    if len(diags) == 0:
        raise InvalidDuty("empty diagnostics list")
    n = len(diags)
    return SoftSwitchingSummary(
        n_cycles=n,
        zvs_fraction=sum(d.zvs_ok for d in diags) / n,
        zcs_fraction=sum(d.zcs_ok for d in diags) / n,
        worst_v_cs1_at_gate=max(d.v_cs1_at_gate for d in diags),
        total_e_hard_switch=sum(d.e_hard_switch for d in diags))
