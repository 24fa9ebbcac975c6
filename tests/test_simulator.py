"""Switched five-interval simulator: timing parity, ledgers, invariants."""

import dataclasses
import math
import random
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wptrx import cli, simulator, table
from wptrx.analytic import (OperatingPoint, duty_bounds, fall_time_exact,
                            rise_time, solve_operating_point,
                            steady_state_vo)
from wptrx.averaged import averaged_rhs
from wptrx.control import equilibrium_op, feedforward_tf
from wptrx.errors import (CommutationImpossible, GateOverrun, NoConvergence,
                          NonPositiveParameter)
from wptrx.params import ReceiverParams, ripple_estimate, validate
from wptrx.rootfind import bisect_root
from wptrx.scenarios import NO_LOAD_RESISTANCE
from wptrx.simulator import (T_EVENT_TOL, V_ORBIT_TOL, ModulationCommand,
                             SwitchCycleState,
                             cycle_diagnostics, cycle_linearization,
                             periodic_steady_state, run,
                             sample_waveform, spectrum)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def vp():
    return validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                   f_s=200e3, i_ls_amp=2.35, r_ls_esr=2.16))


@pytest.fixture(scope="module")
def vp_stiff(vp):
    # enormous output capacitor: the output rail is effectively constant,
    # isolating the commutation mechanics for tight-tolerance checks
    return dataclasses.replace(vp, c_o=1000.0)


def exact_cmd(vp, duty, v_o, margin=1e-12):
    """Command whose gate delay just covers the exact commutation time."""
    return ModulationCommand(duty, fall_time_exact(vp, v_o) + margin)


def steady_soft_run(vp, duty=0.532, n=300):
    op = solve_operating_point(vp, duty, exact=True)
    cmd = ModulationCommand(duty, fall_time_exact(vp, op.v_o))
    return run(vp, cmd, n, initial=SwitchCycleState(op.v_o)), cmd, op


def random_receivers(seed, n):
    """``n`` seeded (receiver, command, averaged output) triples.

    Receivers take turns among a fig7-like box, a table2-like box and a
    light-load box (25-10k ohm log-uniform, up to the scenarios' 10 kohm
    no load, so outputs reach kilovolts).  The duty lies inside
    ``duty_bounds`` of a drawn f_s*t_f in [0.02, 0.15]; every fourth
    command instead fires the gate at the exact fall time of its averaged
    output, on the kink between soft and hard orbits, where that is a
    valid command.
    """
    rng = random.Random(seed)
    u = rng.uniform
    out = []
    for k in range(n):
        if k % 3 == 2:
            c_o, r_load, i_amp = (u(80e-6, 1200e-6),
                                  math.exp(u(math.log(25.0), math.log(10e3))),
                                  u(0.85, 2.65))
        elif k % 3:
            c_o, r_load, i_amp = u(820e-6, 1200e-6), u(38.0, 50.0), \
                u(2.0, 2.65)
        else:
            c_o, r_load, i_amp = u(80e-6, 120e-6), u(25.0, 35.0), \
                u(0.85, 1.15)
        p = validate(ReceiverParams(
            l_s=172e-6, c_s=3.63e-9, c_s1=u(3.8e-9, 5.2e-9),
            c_d1=u(3.8e-9, 5.2e-9), c_o=c_o, r_load=r_load, f_s=200e3,
            i_ls_amp=i_amp))
        fst = u(0.02, 0.15)
        duty = u(*duty_bounds(fst))
        v_avg = steady_state_vo(i_amp, r_load, duty, fst)
        t_f = fst / p.f_s
        if k % 4 == 1:
            try:
                fst_exact = p.f_s * fall_time_exact(p, v_avg)
            except CommutationImpossible:
                fst_exact = 1.0
            if fst_exact < min(0.25, 1.0 - duty):
                t_f = fst_exact / p.f_s
        out.append((p, ModulationCommand(duty, t_f), v_avg))
    return out


# ---------------------------------------------------------------------------
# single-cycle basics
# ---------------------------------------------------------------------------

def test_prototype_cycle_soft_switching(vp):
    # at the nominal 24 V output the natural commutation takes ~386 ns
    st = SwitchCycleState(24.0)
    d24 = run(vp, exact_cmd(vp, 0.532, 24.0, margin=1e-10), 1, st).columns
    assert (d24.zvs_ok[0] and d24.reached_state_v[0]
            and not d24.hard_switched[0])
    assert d24.t_f_meas[0] == pytest.approx(386e-9, abs=1e-9)
    # at the self-consistent operating point the measured fall time matches
    # the exact prediction for the entry voltage
    res, cmd, op = steady_soft_run(vp, n=50)
    c = res.columns
    assert c.zvs_ok[-1] and c.reached_state_v[-1] and not c.hard_switched[-1]
    assert c.t_f_meas[-1] == pytest.approx(
        fall_time_exact(vp, c.v_o_start[-1]), abs=1e-10)


def test_zero_source_cycle(vp):
    p0 = vp.with_amplitude(0.0)
    st = SwitchCycleState(24.0)
    cmd = ModulationCommand(0.5, 382e-9)
    one = run(p0, cmd, 1, st)
    st2, d = one.final_state, one.columns
    assert math.isnan(d.t_f_meas[0]) and math.isnan(d.t_r_meas[0])
    assert not d.reached_state_v[0]
    # no natural commutation events in the log
    names = set(one.events.name.tolist())
    assert b"cs1_zero" not in names and b"cd1_zero" not in names
    # output follows its RC discharge (plus the forced-turn-on top-up drawn
    # from the output capacitor)
    decay = math.exp(-vp.t_period / (vp.r_load * vp.c_o))
    resid = 24.0 * math.exp(-cmd.t_f / (vp.r_load * vp.c_o))
    snap = resid * vp.c_d1 / (vp.c_o + vp.c_d1)
    expect = 24.0 * decay - snap * math.exp(
        -(vp.t_period - cmd.t_f) / (vp.r_load * vp.c_o))
    assert st2.v_o == pytest.approx(expect, rel=1e-9)


def test_forced_turn_on_energy(vp):
    st = SwitchCycleState(24.0)
    one = run(vp, ModulationCommand(0.532, 0.0), 1, st)
    d = one.columns
    assert not d.zvs_ok[0] and d.hard_switched[0]
    assert d.e_hard_switch[0] == pytest.approx(0.5 * vp.c_s1 * 24.0 ** 2,
                                               rel=1e-12)
    assert b"hard_switch" in one.events.name.tolist()
    assert math.isnan(d.t_f_meas[0])


def test_events_match_a_bisection_oracle():
    # the State I turn-on (safeguarded Newton) and the State IV diode
    # turn-on (closed form) against bisection on the same forms, on random
    # single cycles that cover soft, hard and no-State-V cycles
    rng = random.Random(7)
    kinds = {"soft": 0, "hard": 0, "no_state_v": 0}
    for p, cmd, v_avg in random_receivers(8, 3000):
        w, tau, ts = p.omega, p.r_load * p.c_o, p.t_period
        half = 0.5 * ts
        amp = p.i_ls_amp / (w * p.c_sum)
        v0 = v_avg * rng.uniform(0.5, 1.5)
        va0 = v0 * rng.uniform(0.0, 1.0) if rng.random() < 0.3 else 0.0
        if rng.random() < 0.2:  # gate-off late: State V may not be reached
            cmd = ModulationCommand(
                rng.uniform(cmd.duty, 0.999 - p.f_s * cmd.t_f), cmd.t_f)
        one = run(p, cmd, 1, SwitchCycleState(v0, va0))
        s = one.columns

        def gap(th):
            return v0 * math.exp(-th / tau) - (va0 + amp * (1.0 - math.cos(
                w * th)))

        hi = min(cmd.t_f, half)
        if gap(0.0) <= 0.0:
            t_f = 0.0
        elif hi > 0.0 and gap(hi) <= 0.0:
            t_f = bisect_root(gap, 0.0, hi, xtol=T_EVENT_TOL)
        else:
            t_f = math.nan
        assert s.hard_switched[0] == math.isnan(t_f)
        assert not abs(s.t_f_meas[0] - t_f) > T_EVENT_TOL

        th_iv = max(cmd.t_f + cmd.duty * ts, half)
        v_at_iv = one.columns.v_at_iv[0]

        def va_iv(th):
            return v_at_iv + amp * (math.cos(w * th_iv) - math.cos(w * th))

        if v_at_iv <= 0.0:
            t_r = 0.0
        elif va_iv(ts) <= 0.0:
            t_r = bisect_root(va_iv, th_iv, ts, xtol=T_EVENT_TOL) - th_iv
        else:
            t_r = math.nan
        assert s.reached_state_v[0] == (t_r < ts - th_iv)
        assert math.isnan(s.t_r_meas[0]) == math.isnan(t_r)
        assert not abs(s.t_r_meas[0] - t_r) > T_EVENT_TOL

        # the ledger of every kind of cycle is finite
        assert all(np.isfinite(col).all() for col in cycle_diagnostics(one))
        kinds["hard" if s.hard_switched[0] else "soft"] += 1
        kinds["no_state_v"] += not s.reached_state_v[0]
    assert min(kinds.values()) >= 50, kinds


def test_turn_on_time_one_step_and_fallback_match_bisection(vp,
                                                           monkeypatch):
    # the State I turn-on is one Newton step from the lossless root where
    # its a-priori bound accepts it, and evaluates no gap there, so calls no
    # cos; elsewhere safeguarded Newton steps, each with one cos.  Against
    # bisection of the gap to adjacent floats, accepted roots lie within
    # 1e-3 T_EVENT_TOL and the rest within T_EVENT_TOL
    cos_calls = [0]

    def cos(x):
        cos_calls[0] += 1
        return math.cos(x)

    monkeypatch.setattr(simulator, "math",
                        types.SimpleNamespace(**{**vars(math), "cos": cos}))

    def one_step(v0, va0, amp, w, tau, hi):
        """Check _turn_on_time's root; True where the one step was taken."""
        def gap(th):
            return v0 * math.exp(-th / tau) - (va0 + amp * (1.0 - math.cos(
                w * th)))
        assert gap(0.0) > 0.0 >= gap(hi)
        cos_calls[0] = 0
        th = simulator._turn_on_time(v0, va0, amp, w, tau, hi)
        err = abs(th - bisect_root(gap, 0.0, hi, 0.0))
        if cos_calls[0]:
            assert err <= T_EVENT_TOL
            return False
        assert 0.0 < th < hi and err <= 1e-3 * T_EVENT_TOL
        return True

    def receiver_cases():
        """(v0, va0, amp, w, tau, hi) of the turn-ons _cycle would locate,
        on seeded receivers and at the corners of the table2 box."""
        rng = random.Random(3)
        receivers = [(p, cmd.t_f, v_avg) for p, cmd, v_avg in
                     random_receivers(11, 3000)]
        for c_o in (820e-6, 1200e-6):
            for r_load in (38.0, 50.0):
                for i_amp in (2.0, 2.65):
                    for c in (3.8e-9, 5.2e-9):
                        p = validate(ReceiverParams(
                            l_s=172e-6, c_s=3.63e-9, c_s1=c, c_d1=c,
                            c_o=c_o, r_load=r_load, f_s=200e3,
                            i_ls_amp=i_amp))
                        v_avg = steady_state_vo(i_amp, r_load, 0.532, 0.0672)
                        receivers += [(p, fst / p.f_s, v_avg)
                                      for fst in (0.05, 0.0672, 0.1, 0.15)]
        for p, t_f, v_avg in receivers:
            w, tau = p.omega, p.r_load * p.c_o
            amp = p.i_ls_amp / (w * p.c_sum)
            hi = min(t_f, 0.5 * p.t_period)
            v0 = v_avg * rng.uniform(0.5, 1.5)
            va0 = v0 * rng.uniform(0.0, 1.0) if rng.random() < 0.3 else 0.0
            if (v0 * math.exp(-hi / tau) - (va0 + amp * (1.0 - math.cos(
                    w * hi)))) <= 0.0:
                yield v0, va0, amp, w, tau, hi

    taken = [one_step(*case) for case in receiver_cases()]
    n_one_step, n_newton = taken.count(True), taken.count(False)
    assert 0 < n_newton < n_one_step

    # built to fail the bound, on table2: tau of three gate delays; s within
    # 1e-9 of 1, th0 just below hi = T/2; the root at hi (the largest v0
    # with f(hi) <= 0 from va0 = 0), beyond which th0 lies
    w, half = vp.omega, 0.5 * vp.t_period
    amp = vp.i_ls_amp / (w * vp.c_sum)
    tau, hi = vp.r_load * vp.c_o, 0.15 * vp.t_period
    v_at_hi = amp * (1.0 - math.cos(w * hi)) * math.exp(hi / tau)
    while v_at_hi * math.exp(-hi / tau) > amp * (1.0 - math.cos(w * hi)):
        v_at_hi = math.nextafter(v_at_hi, 0.0)
    failing = [(24.0, 0.0, amp, w, 3.0 * hi, hi),
               (24.0 + 2.0 * amp * (1.0 - 1e-10), 24.0, amp, w, tau, half),
               (v_at_hi, 0.0, amp, w, tau, hi)]
    assert not any(one_step(*case) for case in failing)


def _segment_area(t0, t1, coeff, p_s, p_c, tau, w):
    """Integral of v_o over [t0, t1], with its exponential term coeff at t0,
    each cos and sin taken afresh: the kernel's formulation before it
    shared them."""
    em = -math.expm1(-(t1 - t0) / tau)
    if p_s == 0.0 and p_c == 0.0:  # no source-to-rail flow
        return tau * coeff * em
    trig = (-p_s * math.cos(w * t1) + p_c * math.sin(w * t1)
            + p_s * math.cos(w * t0) - p_c * math.sin(w * t0)) / w
    return tau * coeff * em + trig


def reference_cycle(v0, va0, duty, t_f, r_load, i_amp, params):
    """``simulator._cycle`` written segment by segment, every receiver
    constant derived in place and the areas summed by an explicit loop
    (``sum()`` of floats rounds differently from Python 3.12 on)."""
    ts, w = params.t_period, params.omega
    tau = r_load * params.c_o
    half = 0.5 * ts
    gate_off = t_f + duty * ts
    amp = i_amp / (w * params.c_sum)
    areas = []
    natural = None
    hi = min(t_f, half)
    if v0 - va0 <= 0.0:
        natural = 0.0
    elif (i_amp > 0.0 and hi > 0.0 and v0 * math.exp(-hi / tau)
          - (va0 + amp * (1.0 - math.cos(w * hi))) <= 0.0):
        natural = simulator._turn_on_time(v0, va0, amp, w, tau, hi)
    hard = natural is None
    th1 = t_f if hard else natural
    v_at_th1 = v0 * math.exp(-th1 / tau)
    va_pre_snap = va0 + amp * (1.0 - math.cos(w * th1)) if hard else v_at_th1
    v_cs1_at_gate = max(v_at_th1 - va_pre_snap, 0.0) if hard else 0.0
    if th1 > 0.0:
        areas.append(_segment_area(0.0, th1, v0, 0.0, 0.0, tau, w))
    if hard:
        v_at_th1 -= v_cs1_at_gate * params.c_d1 / (params.c_o + params.c_d1)
    th_iv = max(gate_off, half)
    p_s = i_amp * r_load / (1.0 + (w * tau) ** 2)
    p_c = -w * tau * p_s
    h = v_at_th1 - p_s * math.sin(w * th1) - p_c * math.cos(w * th1)
    if th1 < half:
        areas.append(_segment_area(th1, half, h, p_s, p_c, tau, w))
    t_iii = max(th1, half)
    if th_iv > t_iii:
        areas.append(_segment_area(
            t_iii, th_iv, h * math.exp(-(t_iii - th1) / tau), p_s, p_c, tau,
            w))
    v_at_iv = (h * math.exp(-(th_iv - th1) / tau) + p_s * math.sin(w * th_iv)
               + p_c * math.cos(w * th_iv))
    th4 = None
    if v_at_iv <= 0.0:
        th4 = th_iv
    elif i_amp > 0.0:
        c = math.cos(w * th_iv) + v_at_iv / amp
        if c <= 1.0:
            th4 = min(max((TWO_PI - math.acos(c)) / w, th_iv), ts)
    th4_eff = th4 if th4 is not None else ts
    if th4_eff > th_iv:
        areas.append(_segment_area(th_iv, th4_eff, v_at_iv, 0.0, 0.0, tau, w))
    va_end_iv = 0.0 if th4 is not None else \
        v_at_iv + amp * (math.cos(w * th_iv) - math.cos(w * ts))
    reached_v = th4 is not None and th4 < ts
    t_last = th4 if reached_v else th_iv
    v_at_th4 = v_at_iv * math.exp(-(t_last - th_iv) / tau)
    if reached_v:
        areas.append(_segment_area(th4, ts, v_at_th4, 0.0, 0.0, tau, w))
    v_end = v_at_th4 * math.exp(-(ts - t_last) / tau)
    area = 0.0
    for a in areas:
        area += a
    return (v_end, min(va_end_iv, v_end), area / ts,
            gate_off, th1, hard, v_cs1_at_gate, va_pre_snap, v_at_th1, th_iv,
            h, v_at_iv, th4, va_end_iv, reached_v, v_at_th4)


def test_cycle_kernel_matches_the_segment_by_segment_reference(vp):
    # the kernel shares trig values between segments and takes its receiver
    # constants prebuilt; every value it returns must equal the reference's
    # exactly, on seeded single cycles from any boundary state.  The
    # segment rows of a one-cycle run of the same cycle tile [0, T] with
    # non-empty segments in strictly increasing state order
    rng = random.Random(18)
    u = rng.uniform
    ts = vp.t_period
    kinds = dict.fromkeys(("soft", "hard", "conduction_from_after_half",
                           "gate_off_before_half", "gate_off_after_half",
                           "no_state_v", "no_source"), 0)
    for k in range(600):
        r_load = math.exp(u(math.log(10.0), math.log(10e3)))
        i_amp = 0.0 if k % 10 == 0 else u(0.5, 3.0)
        v0 = 0.0 if k % 25 == 1 else math.exp(u(math.log(0.1),
                                                math.log(3000.0)))
        va0 = 0.0 if k % 2 else u(0.0, 1.2) * v0
        if k % 4 == 3:  # the gate fires after T/2
            duty = u(0.05, 0.45)
            t_f = u(0.5, 0.999 - duty) * ts
        else:
            duty = u(0.05, 0.9)
            t_f = u(0.0, 0.999 - duty) * ts
        got = simulator._cycle(v0, va0, duty,
                               simulator._cycle_consts(vp, r_load, i_amp, t_f))
        assert got == reference_cycle(v0, va0, duty, t_f, r_load, i_amp, vp)
        one = run(vp.with_load(r_load).with_amplitude(i_amp),
                  ModulationCommand(duty, t_f), 1, SwitchCycleState(v0, va0))
        nxt = one.final_state
        assert (nxt.v_o, nxt.v_cd1) == got[:2]
        # the diode turns off at the cycle's end, a current zero, so ZCS is
        # reaching State V
        assert one.columns.reached_state_v[0] == got[14]
        segs = one.segments
        assert segs.t0[0] == 0.0 and segs.t1[-1] == ts
        assert np.array_equal(segs.t1[:-1], segs.t0[1:])
        assert np.all(segs.t0 < segs.t1)
        assert np.all(np.diff(segs.state) > 0)
        assert segs.first.tolist() == [0, len(segs.t0)]
        gate_off, th1, hard, reached_v = got[3], got[4], got[5], got[14]
        kinds["hard" if hard else "soft"] += 1
        kinds["conduction_from_after_half"] += th1 >= 0.5 * ts
        kinds["gate_off_before_half" if gate_off < 0.5 * ts
              else "gate_off_after_half"] += 1
        if i_amp == 0.0:
            kinds["no_source"] += 1
        elif not reached_v:
            kinds["no_state_v"] += 1
    assert min(kinds.values()) >= 20, kinds


def reference_cycle_rows(v0, va0, out, t_f, t_start, params, p_s, p_c):
    """The segment rows (t0, t1, t_ref, state, h, p_s, p_c, va0) and the
    events (t, name) of one cycle from its start state and ``_cycle``'s
    outputs ``out``, built one cycle at a time as records, the way the
    simulator built them before it kept a run as columns."""
    (_, _, _, gate_off, th1, hard, _, _, _, th_iv, h, v_at_iv, th4, _,
     reached_v, v_at_th4) = out
    ts = params.t_period
    half = 0.5 * ts
    segs = []
    if th1 > 0.0:
        segs.append((0.0, th1, 0.0, 1, v0, 0.0, 0.0, va0))
    if th1 < half:
        segs.append((th1, half, th1, 2, h, p_s, p_c, 0.0))
    t_iii = max(th1, half)
    if th_iv > t_iii:
        segs.append((t_iii, th_iv, th1, 3, h, p_s, p_c, 0.0))
    th4_eff = th4 if th4 is not None else ts
    if th4_eff > th_iv:
        segs.append((th_iv, th4_eff, th_iv, 4, v_at_iv, 0.0, 0.0, v_at_iv))
    if reached_v:
        segs.append((th4, ts, th4, 5, v_at_th4, 0.0, 0.0, 0.0))
    events = [(t_start, b"cycle_start")]
    if not hard:
        events.append((t_start + th1, b"cs1_zero"))
    events.append((t_start + t_f, b"gate_on"))
    if hard:
        events.append((t_start + th1, b"hard_switch"))
    events.append((t_start + half, b"ils_zero"))
    events.append((t_start + gate_off, b"gate_off"))
    if th4 is not None:
        events.append((t_start + th4, b"cd1_zero"))
    events.sort(key=lambda e: e[0])
    return segs, events


def test_run_tables_match_the_per_cycle_reference():
    # the segment table and the event list of a run, built from its
    # columns at once, hold the rows and events a cycle-by-cycle build of
    # the same cycles gives, bit for bit, on soft, hard, no-State-V and
    # no-source cycles from random start states
    rng = random.Random(26)
    kinds = dict.fromkeys(("soft", "hard", "no_state_v", "no_source"), 0)
    for k, (p, cmd, v_avg) in enumerate(random_receivers(27, 120)):
        if k % 10 == 0:
            p = p.with_amplitude(0.0)
        start = SwitchCycleState(v_avg * rng.uniform(0.5, 1.5),
                                 v_avg * rng.uniform(0.0, 1.0)
                                 if rng.random() < 0.3 else 0.0)
        res = run(p, cmd, 4, initial=start)
        consts = simulator._cycle_consts(p, p.r_load, p.i_ls_amp, cmd.t_f)
        v0, va0 = start
        want_rows, want_events = [], []
        for n in range(4):
            out = simulator._cycle(v0, va0, cmd.duty, consts)
            segs, events = reference_cycle_rows(
                v0, va0, out, cmd.t_f, n * p.t_period, p, consts[6],
                consts[7])
            want_rows += segs
            want_events += events
            kinds["no_source" if p.i_ls_amp == 0.0 else "hard" if out[5]
                  else "soft"] += 1
            kinds["no_state_v"] += not out[14]
            v0, va0 = out[:2]
        assert list(zip(*(col.tolist() for col in res.segments[:8]))) \
            == want_rows
        assert list(zip(res.events.t.tolist(),
                        res.events.name.tolist())) == want_events
    assert min(kinds.values()) >= 20, kinds


def reference_events(res) -> list:
    """(t, name) of every event of the run ``res``, each cycle's listed in
    slot order and sorted with Python's stable ``list.sort``, from the
    cycle columns alone."""
    c, ts, t_f = res.columns, res.params.t_period, res.cmd.t_f
    events = []
    for k, (th1, hard, gate_off, th4) in enumerate(zip(
            c.th1.tolist(), c.hard_switched.tolist(), c.gate_off.tolist(),
            c.th4.tolist())):
        t0 = k * ts
        cycle = [(t0, b"cycle_start")]
        cycle += ([(t0 + t_f, b"gate_on"), (t0 + th1, b"hard_switch")]
                  if hard else
                  [(t0 + th1, b"cs1_zero"), (t0 + t_f, b"gate_on")])
        cycle += [(t0 + 0.5 * ts, b"ils_zero"), (t0 + gate_off, b"gate_off")]
        if not math.isnan(th4):
            cycle.append((t0 + th4, b"cd1_zero"))
        cycle.sort(key=lambda e: e[0])
        events += cycle
    return events


def test_event_columns_match_a_stable_sort_per_cycle():
    # the event columns against a cycle-by-cycle build with Python's sort,
    # on soft, hard and no-State-V cycles, and on copies of those columns
    # with ties forced between every pair of slots that can meet and with
    # th4 set to NaN, where the tied events keep their slot order
    kinds = dict.fromkeys(("soft", "hard", "no_state_v"), 0)
    ties = 0
    for p, cmd, v_avg in random_receivers(33, 60):
        res = run(p, cmd, 6, initial=SwitchCycleState(v_avg))
        c = res.columns
        kinds["hard"] += int(np.count_nonzero(c.hard_switched))
        kinds["soft"] += int(np.count_nonzero(~c.hard_switched))
        kinds["no_state_v"] += int(np.count_nonzero(np.isnan(c.th4)))
        half = 0.5 * p.t_period
        th1, gate_off, th4 = c.th1.copy(), c.gate_off.copy(), c.th4.copy()
        th1[0] = cmd.t_f            # cs1_zero or hard_switch on gate_on
        gate_off[1] = half          # gate_off on ils_zero
        th4[2] = gate_off[2]        # cd1_zero on gate_off
        th4[3] = half               # cd1_zero on ils_zero
        th1[4] = 0.0                # State I's end on the cycle start
        th4[5] = math.nan           # the node never reaches zero
        tied = dataclasses.replace(res, columns=c._replace(
            th1=th1, gate_off=gate_off, th4=th4))
        for r in (res, tied):
            want = reference_events(r)
            got = r.events
            assert got.name.dtype.kind == "S"
            assert list(zip(got.t.tolist(), got.name.tolist())) == want
        t = tied.events.t
        ties += int(np.count_nonzero(t[1:] == t[:-1]))
    assert min(kinds.values()) >= 20, kinds
    assert ties >= 5 * 60


def test_invalid_commands(vp):
    st = SwitchCycleState(24.0)
    with pytest.raises(NonPositiveParameter) as err:
        run(vp, ModulationCommand(1.2, 0.0), 1, st)
    assert err.value.field == "duty"
    # no cycle to run, or a count that is not an integer (range() raised a
    # bare TypeError on 2.5); numpy's integers are counts too
    for n_cycles in (0, -1, 2.5, 2.0):
        with pytest.raises(NonPositiveParameter, match="an integer > 0"):
            run(vp, ModulationCommand(0.532, 0.0), n_cycles, st)
    assert len(run(vp, ModulationCommand(0.532, 0.0), np.int64(2),
                   st).columns.th1) == 2
    with pytest.raises(GateOverrun):
        run(vp, ModulationCommand(0.95, 0.3e-6), 1, st)
    # a NaN gate delay used to run through and return v_o = NaN; the delay
    # is checked once, where the cycle constants are built, so a run and an
    # orbit solve reject it too
    for t_f in (math.nan, -1e-9, math.inf):
        with pytest.raises(NonPositiveParameter) as err:
            run(vp, ModulationCommand(0.532, t_f), 1, st)
        assert err.value.field == "t_f"
    nan_delay = ModulationCommand(0.532, math.nan)
    for call in (lambda: run(vp, nan_delay, 3, initial=st),
                 lambda: periodic_steady_state(vp, nan_delay)):
        with pytest.raises(NonPositiveParameter) as err:
            call()
        assert err.value.field == "t_f"


def test_run_rejects_bad_start_voltage(vp):
    # a start state was taken as given: NaN ran to an all-NaN trajectory and
    # a negative output voltage ran with no error
    cmd = ModulationCommand(0.532, 386e-9)
    for initial, field in ((SwitchCycleState(math.nan), "v_o"),
                           (SwitchCycleState(-1.0), "v_o"),
                           (SwitchCycleState(-5.0), "v_o"),
                           (SwitchCycleState(24.0, math.inf), "v_cd1"),
                           (SwitchCycleState(24.0, -1.0), "v_cd1")):
        with pytest.raises(NonPositiveParameter) as err:
            run(vp, cmd, 3, initial=initial)
        assert err.value.field == field
    # the start is one argument, so no second start voltage can be passed
    # beside a start state and dropped without notice
    with pytest.raises(TypeError):
        run(vp, cmd, 3, v_o0=5.0, initial=SwitchCycleState(24.0))
    assert run(vp, cmd, 1).columns.v_o_start[0] == 0.0


def test_single_cycle_from_zero_monotone_conduction(vp):
    st = SwitchCycleState(0.0)
    cmd = ModulationCommand(0.532, 386e-9)
    st2 = run(vp, cmd, 1, st).final_state
    res = run(vp, cmd, 1)
    wf = sample_waveform(res, 256 * vp.f_s)
    cond = (wf.state == 2) | (wf.state == 3)
    v_cond = wf.v_o[cond]
    t_cond = wf.t[cond]
    rising = t_cond < 0.45 * vp.t_period  # positive half-cycle部分
    assert np.all(np.diff(v_cond[rising[: len(v_cond)]]) > -1e-12)
    assert st2.v_o > 0.0


# ---------------------------------------------------------------------------
# cross-model parity and ripple
# ---------------------------------------------------------------------------

def test_run_mean_matches_operating_point(vp):
    # constant feedforward-style command from the self-consistent solution
    op = solve_operating_point(vp, 0.532)
    cmd = ModulationCommand(0.532, op.t_f)
    res = run(vp, cmd, 4000, initial=SwitchCycleState(op.v_o))
    assert res.columns.v_o_mean[-1] == pytest.approx(op.v_o, rel=0.01)


@pytest.mark.parametrize("r_load, command, hard, state_v", [
    (None, lambda p: ModulationCommand(0.532, 0.0672 / p.f_s), True, True),
    (1500.0, lambda p: ModulationCommand(0.3, 0.0672 / p.f_s), True, False),
    # the load step's pre-step point
    (NO_LOAD_RESISTANCE, lambda p: ModulationCommand(
        equilibrium_op(p, 24.0, 2.35).duty, feedforward_tf(24.0, 2.35, p)),
     True, True),
    (None, lambda p: exact_cmd(p, 0.532, 24.6, margin=20e-9), False, True),
], ids=["table2", "no_state_v", "no_load", "soft"])
def test_cycle_mean_matches_quadrature_of_its_segments(vp, r_load, command,
                                                       hard, state_v):
    # _cycle sums the segment integrals from its scalars; the segment rows
    # the run builds from the columns must integrate to the same mean
    p = vp.with_load(r_load) if r_load else vp
    cmd = command(p)
    orbit = periodic_steady_state(p, cmd)
    one = run(p, cmd, 1, orbit.state)
    s = one.columns
    assert (s.hard_switched[0], s.reached_state_v[0]) == (hard, state_v)
    tau = p.r_load * p.c_o
    area = sum(quad(lambda th, seg=seg: seg.v_o(th, tau, p.omega), seg.t0,
                    seg.t1, epsabs=0.0, epsrel=1e-13)[0]
               for seg in simulator._seg_rows(one.segments))
    assert s.v_o_mean[0] == pytest.approx(area / p.t_period, rel=1e-12)


def ripple_oracle(vp, v_bar, theta_on):
    """Charge-balance peak-to-peak ripple: net charge into the rail while
    the coil current exceeds the load draw."""
    load = v_bar / vp.r_load
    th_b = math.pi - math.asin(load / vp.i_ls_amp)
    q = (vp.i_ls_amp / vp.omega) * (math.cos(theta_on) - math.cos(th_b)) \
        - load * (th_b - theta_on) / vp.omega
    return q / vp.c_o


def test_ripple_matches_charge_balance_oracle(vp):
    res, cmd, op = steady_soft_run(vp, n=400)
    c = res.columns
    pp_oracle = ripple_oracle(vp, c.v_o_mean[-1], vp.omega * c.t_f_meas[-1])
    assert cycle_diagnostics(res).v_o_ripple_pp[-1] == pytest.approx(
        pp_oracle, rel=0.02)


@pytest.mark.xfail(strict=True, reason=(
    "the half-cycle charge bound ignores the load current drawn during the "
    "rise window; at the loaded prototype point the true peak-to-peak "
    "ripple is ~60% of |I|/(pi*f_s*C_o), so the +-10% parity claim cannot "
    "hold; the charge-balance oracle test above carries the real check"))
def test_ripple_within_10pct_of_estimate(vp):
    res, cmd, op = steady_soft_run(vp, n=400)
    bound = ripple_estimate(vp.i_ls_amp, vp.f_s, vp.c_o)
    assert cycle_diagnostics(res).v_o_ripple_pp[-1] == pytest.approx(
        bound, rel=0.10)


def scan_extremes(seg, tau, w, i_amp, r_load):
    """The ripple extremes as the simulator located them before it
    bracketed them in closed form: g = i - v_o/R sampled at 9 points across
    the segment, each sign change bisected to T_EVENT_TOL, v_o at each root
    (and where g is exactly zero at a sample but the last)."""
    out = []
    d = seg.t1 - seg.t0
    if d <= 0.0:
        return out

    def g(th):
        return i_amp * math.sin(w * th) - seg.v_o(th, tau, w) / r_load

    prev_th = seg.t0
    prev_g = g(prev_th)
    for k in range(1, 9):
        th = seg.t0 + d * k / 8
        cur = g(th)
        if prev_g == 0.0:
            out.append(seg.v_o(prev_th, tau, w))
        elif prev_g * cur < 0.0:
            out.append(seg.v_o(bisect_root(g, prev_th, th, xtol=T_EVENT_TOL),
                               tau, w))
        prev_th, prev_g = th, cur
    return out


def cli_orbit_run(config, changes, n_cycles):
    """A run of ``n_cycles`` on the orbit that ``wptrx simulate`` (``fst``
    None: the gate at the exact fall time of the operating point) or
    ``reproduce fig13`` (``fst`` given) runs for a built-in config with
    ``changes`` (r_load, duty, fst) applied."""
    rc = cli._builtin_config(config)
    r_load, duty, fst = changes
    p = validate(rc.params)
    p = p.with_load(r_load) if r_load else p
    if fst is None:
        op = solve_operating_point(p, duty, exact=True)
        cmd = ModulationCommand(duty, fall_time_exact(p, op.v_o))
    else:
        cmd = ModulationCommand(duty, fst / p.f_s)
    return cli._orbit_run(p, cmd, n_cycles)[1]


# (config, (r_load, duty, f_s*t_f), (hard-switched, reaches State V))
EXTREME_ORBITS = [
    ("table2", (None, 0.532, None), (False, True)),
    ("table2", (None, 0.532, 0.0672), (True, True)),
    ("table2", (None, 0.7, None), (False, True)),
    ("fig7", (None, 0.5, None), (False, True)),
    ("table2", (1500.0, 0.3, 0.0672), (True, False)),   # the digests' light
    ("table2", (3000.0, 0.3, 0.02), (True, False)),     # and lighter copies
]
EXTREME_ORBIT_IDS = ["table2_simulate", "table2_fig13", "table2_d0.7",
                     "fig7_simulate", "light", "lighter"]


def conduction_roots(res):
    """The conduction rows of the run ``res``, as _Seg, each with the v_o
    values ``simulator._conduction_extremes`` finds inside it; the row ends
    handed to it are taken by _Seg.v_o."""
    p = res.params
    w, tau = p.omega, p.r_load * p.c_o
    segs = simulator._seg_rows(res.segments)
    rows = np.flatnonzero((res.segments.state == 2)
                          | (res.segments.state == 3))
    ends = [np.array(col) for col in zip(*(
        (math.sin(w * segs[r].t0), segs[r].v_o(segs[r].t0, tau, w),
         math.sin(w * segs[r].t1), segs[r].v_o(segs[r].t1, tau, w))
        for r in rows.tolist()))]
    consts = simulator._cycle_consts(p, p.r_load, p.i_ls_amp, res.cmd.t_f)
    found = simulator._conduction_extremes(res.segments, rows, ends, consts,
                                           p.r_load)
    return [(r, segs[r], [v for v in pair if not math.isnan(v)])
            for r, pair in zip(rows.tolist(), found.tolist())]


@pytest.mark.parametrize("config, changes, kind", EXTREME_ORBITS,
                         ids=EXTREME_ORBIT_IDS)
def test_ripple_extremes_match_the_scan_and_bisection_reference(
        config, changes, kind):
    # the closed-form brackets find the roots the old scan found, per
    # segment, at v_o within 4 ulp of the cycle's maximum, and nothing on a
    # dense sample of a segment rises above them and its two end values
    n_roots = 0
    res = cli_orbit_run(config, changes, 3)
    c = res.columns
    assert all((hard, state_v) == kind for hard, state_v in
               zip(c.hard_switched.tolist(), c.reached_state_v.tolist()))
    p = res.params
    w, tau = p.omega, p.r_load * p.c_o
    first = res.segments.first.tolist()
    v_o_max = cycle_diagnostics(res).v_o_max.tolist()
    for row, seg, got in conduction_roots(res):
        k = next(k for k in range(len(v_o_max)) if row < first[k + 1])
        tol = 4 * math.ulp(v_o_max[k])
        want = scan_extremes(seg, tau, w, p.i_ls_amp, p.r_load)
        assert len(got) == len(want)
        assert all(abs(a - b) <= tol for a, b in zip(got, want))
        n_roots += len(want)
        th = np.linspace(seg.t0, seg.t1, 2049)
        dense = (seg.h * np.exp(-(th - seg.t_ref) / tau)
                 + seg.p_s * np.sin(w * th) + seg.p_c * np.cos(w * th))
        assert dense.max() <= max(got + [seg.v_o(seg.t0, tau, w),
                                         seg.v_o(seg.t1, tau, w)]) + 1e-12
    assert n_roots > 0


def reference_seg_integrals(seg, tau, w, i_amp):
    """(source energy into the rail (J), integral of v_o^2 (V^2*s)) over a
    segment, as the simulator took them one segment at a time.  The source
    feeds the rail only on a conduction segment (State II or III), with
    i(th) = i_amp sin(w th); elsewhere p_s = p_c = 0 and v_o is a pure
    decay."""
    def sin2(th):
        return th / 2.0 - math.sin(2.0 * w * th) / (4.0 * w)

    def cos2(th):
        return th / 2.0 + math.sin(2.0 * w * th) / (4.0 * w)

    def sincos(th):
        return -math.cos(2.0 * w * th) / (4.0 * w)

    d = seg.t1 - seg.t0
    if d <= 0.0:
        return 0.0, 0.0
    coeff = (seg.h if seg.t_ref == seg.t0
             else seg.h * math.exp(-(seg.t0 - seg.t_ref) / tau))
    e_sq = 0.5 * tau * coeff * coeff * -math.expm1(-2.0 * d / tau)
    if seg.state not in (2, 3):
        return 0.0, e_sq
    a = -1.0 / tau
    e, den = math.exp(a * d), a * a + w * w
    i_s = (e * (a * math.sin(w * d) - w * math.cos(w * d)) + w) / den
    i_c = (e * (a * math.cos(w * d) + w * math.sin(w * d)) - a) / den
    c0, s0 = math.cos(w * seg.t0), math.sin(w * seg.t0)
    int_e_sin = c0 * i_s + s0 * i_c
    int_e_cos = c0 * i_c - s0 * i_s
    t0, t1 = seg.t0, seg.t1
    s2 = sin2(t1) - sin2(t0)
    sc = sincos(t1) - sincos(t0)
    e_rail = i_amp * (coeff * int_e_sin + (seg.p_s * s2 + seg.p_c * sc))
    return e_rail, (e_sq
                    + 2.0 * coeff * (seg.p_s * int_e_sin + seg.p_c * int_e_cos)
                    + seg.p_s ** 2 * s2
                    + seg.p_c ** 2 * (cos2(t1) - cos2(t0))
                    + 2.0 * seg.p_s * seg.p_c * sc)


def reference_conduction_extremes(seg, tau, w, i_amp, r_load):
    """v_o at each root of g = i - v_o/R inside a conduction segment, then
    at its start and end, as the simulator located them one segment at a
    time (see ``simulator._conduction_extremes``)."""
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


def reference_diagnostics(result):
    """``cycle_diagnostics`` of ``result`` one cycle and one segment row at
    a time, with the scalar arithmetic the columns must reproduce."""
    params = result.params
    w = params.omega
    r_load, i_amp = params.r_load, params.i_ls_amp
    tau = r_load * params.c_o
    c_sum, c_o = params.c_sum, params.c_o
    c = result.columns
    segs = simulator._seg_rows(result.segments)
    first = result.segments.first.tolist()
    out = []
    cycles = zip(*(col.tolist() for col in (
        c.v_o_start, c.v_cd1_start, c.v_o_end, c.v_cd1_end, c.va_pre_snap,
        c.v_at_th1, c.v_at_iv, c.va_end_iv, c.reached_state_v, c.v_at_th4)))
    for k, (v0, va0, v_end, va_cycle_end, va_pre_snap, va_clamp_start,
            v_at_iv, va_end_iv, reached_v, v_at_th4) in enumerate(cycles):
        e_cond = 0.0
        e_load = 0.0
        candidates = [v0, v_end]
        cond_candidates = [va_pre_snap]
        for seg in segs[first[k]:first[k + 1]]:
            e_rail, int_v2 = reference_seg_integrals(seg, tau, w, i_amp)
            e_cond += e_rail
            e_load += int_v2 / r_load
            if seg.state in (2, 3):
                seg_candidates = reference_conduction_extremes(
                    seg, tau, w, i_amp, r_load)
                cond_candidates.extend(seg_candidates)
            else:
                seg_candidates = (seg.v_o(seg.t0, tau, w),
                                  seg.v_o(seg.t1, tau, w))
            candidates.extend(seg_candidates)
        e_in_node = (0.5 * c_sum * (va_pre_snap ** 2 - va0 ** 2)
                     + 0.5 * c_sum * (va_end_iv ** 2 - v_at_iv ** 2))
        v_o_min = min(candidates)
        v_o_max = max(candidates)
        v_cs1_end = v_at_th4 if reached_v else v_end - va_cycle_end
        out.append((
            c_sum * (va_pre_snap - va0), c_sum * (v_at_iv - va_end_iv),
            e_in_node + e_cond, e_load,
            0.5 * c_sum * (v_at_iv ** 2 - va_clamp_start ** 2),
            (0.5 * c_o * (v_end ** 2 - v0 ** 2)
             + 0.5 * c_sum * (va_cycle_end ** 2 - va0 ** 2)),
            v_o_max - v_o_min, v_o_min, v_o_max, max(v0 - va0, v_cs1_end),
            max(cond_candidates)))
    return [np.array(col) for col in zip(*out)]


@pytest.mark.parametrize("make", [
    *(lambda vp, orbit=orbit: cli_orbit_run(*orbit[:2], 3)
      for orbit in EXTREME_ORBITS),
    # 400 cycles (simulate's size) of the climb from an empty output, whose
    # first cycle has no State I: enough distinct values that numpy's
    # v * v in place of libm's pow shows
    lambda vp: run(vp, ModulationCommand(0.532, 0.0672 / vp.f_s), 400),
    # one cycle from 24 V (the id keeps the name of the one-cycle call
    # this run replaced)
    lambda vp: run(vp, ModulationCommand(0.532, 0.0672 / vp.f_s), 1,
                   SwitchCycleState(24.0)),
], ids=EXTREME_ORBIT_IDS + ["from_empty_output", "step_cycle"])
def test_diagnostics_equal_the_per_segment_reference_bit_for_bit(vp, make):
    # the columns reproduce the scalar ledger and extremes exactly: compared
    # as integers, so a -0.0 or a last-place difference shows
    res = make(vp)
    got = cycle_diagnostics(res)
    for name, a, b in zip(got._fields, got, reference_diagnostics(res)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_averaged_parity_during_slow_transient(vp):
    # the gate delay tracks the commutation need while the output climbs,
    # so the conduction window matches the averaged model's cycle by cycle
    p = dataclasses.replace(vp, c_o=100e-6)
    op = solve_operating_point(p, 0.55, exact=True)
    state = SwitchCycleState(0.9 * op.v_o)
    diags = []
    for _ in range(400):
        cmd = ModulationCommand(0.55, fall_time_exact(p, state.v_o) + 1e-12)
        one = run(p, cmd, 1, state)
        state = one.final_state
        diags.append(one.columns)
    checked = 0
    for a, b in zip(diags[50:-1], diags[51:]):
        dv = b.v_o_mean[0] - a.v_o_mean[0]
        if abs(dv) > 1e-3 * a.v_o_mean[0] or abs(dv) < 1e-7:
            continue
        rate_sim = dv / p.t_period
        rate_avg = averaged_rhs(a.v_o_mean[0], 0.55, p.f_s * a.t_f_meas[0],
                                p)
        assert rate_sim == pytest.approx(rate_avg, rel=0.02)
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# invariants: sequence, charge, energy, stress, commutation parity
# ---------------------------------------------------------------------------

def test_state_sequence_legality(vp):
    res, cmd, op = steady_soft_run(vp, n=40)
    assert res.segments.state.tolist() == [1, 2, 3, 4, 5] * 40
    # event order within a cycle
    names = [n.decode() for n in res.events.name.tolist()]
    starts = [k for k, n in enumerate(names) if n == "cycle_start"]
    assert len(starts) == 40
    for a, b in zip(starts[1:], starts[2:] + [len(names)]):
        order = names[a:b]
        assert order.index("cycle_start") < order.index("cs1_zero")
        assert order.index("cs1_zero") <= order.index("gate_on")
        assert order.index("gate_on") < order.index("ils_zero")
        assert order.index("ils_zero") < order.index("gate_off")
        assert order.index("gate_off") < order.index("cd1_zero")


def test_charge_balance(vp_stiff):
    v_o = 24.0
    st = SwitchCycleState(v_o)
    cmd = exact_cmd(vp_stiff, 0.532, v_o)
    d = cycle_diagnostics(run(vp_stiff, cmd, 1, st))
    q_expect = vp_stiff.c_sum * v_o
    assert d.q_f[0] == pytest.approx(q_expect, rel=1e-9)
    assert d.q_r[0] == pytest.approx(q_expect, rel=1e-9)
    assert d.q_f[0] == pytest.approx(d.q_r[0], rel=1e-9)


def test_energy_audit_closes(vp):
    # transient run: every soft cycle's ledger must close to 1e-9 relative
    op = solve_operating_point(vp, 0.532, exact=True)
    cmd = ModulationCommand(0.532, fall_time_exact(vp, op.v_o) + 5e-9)
    res = run(vp, cmd, 200, initial=SwitchCycleState(0.8 * op.v_o))
    c, d = res.columns, cycle_diagnostics(res)
    assert not c.hard_switched.any()
    residual = (d.e_in + d.e_node_tracking - d.e_load - d.de_stored
                - c.e_hard_switch)
    assert np.all(np.abs(residual) <= 1e-9 * np.maximum(d.e_in, 1e-12))
    # the clamp-convention artifact flow stays tiny
    assert np.all(np.abs(d.e_node_tracking)
                  <= 1e-4 * np.maximum(d.e_in, 1e-12))


def test_steady_state_efficiency_is_unity(vp):
    res, cmd, op = steady_soft_run(vp, n=400)
    d = cycle_diagnostics(res)
    assert d.e_load[-1] / d.e_in[-1] == pytest.approx(1.0, abs=1e-4)
    assert res.columns.e_hard_switch[-1] == 0.0


def test_hard_cycle_residual_equals_merge_loss(vp):
    st = SwitchCycleState(24.0)
    one = run(vp, ModulationCommand(0.532, 0.0), 1, st)
    s, d = one.columns, cycle_diagnostics(one)
    residual = (d.e_in[0] + d.e_node_tracking[0] - d.e_load[0]
                - d.de_stored[0] - s.e_hard_switch[0])
    w = s.v_cs1_at_gate[0]
    merge = 0.5 * (vp.c_d1 * vp.c_o / (vp.c_d1 + vp.c_o)) * w * w
    assert -residual == pytest.approx(merge, rel=1e-9)


def test_device_stress_bounded_by_output(vp):
    res, cmd, op = steady_soft_run(vp, n=100)
    d = cycle_diagnostics(res)
    # exact bound: neither device ever sees more than the instantaneous
    # output voltage
    assert np.all(d.v_cs1_peak <= d.v_o_max + 1e-6)
    assert np.all(d.v_cd1_peak <= d.v_o_max + 1e-6)
    # mean + pp/2 summary: the ripple is slightly asymmetric about its
    # time-average (the decay phase dwells near the minimum), so the cycle
    # mean sits a percent-of-ripple below the midpoint
    cap = (res.columns.v_o_mean + 0.5 * d.v_o_ripple_pp
           + 0.02 * d.v_o_ripple_pp)
    assert np.all(d.v_cs1_peak <= cap)
    assert np.all(d.v_cd1_peak <= cap)


def test_commutation_time_parity(vp_stiff):
    v_o = 24.0
    cmd = exact_cmd(vp_stiff, 0.532, v_o, margin=1e-12)
    st = SwitchCycleState(v_o)
    d = run(vp_stiff, cmd, 1, st).columns
    t_f_pred = fall_time_exact(vp_stiff, v_o)
    assert abs(d.t_f_meas[0] - t_f_pred) <= 1e-10
    op = OperatingPoint(duty=0.532, t_f=t_f_pred, v_o=v_o,
                        phase_delay_norm=vp_stiff.f_s * t_f_pred)
    assert abs(d.t_r_meas[0] - rise_time(vp_stiff, op)) <= 1e-10


def test_diode_turns_off_on_the_zero_crossing(vp):
    res, cmd, op = steady_soft_run(vp, n=20)
    # the freewheel interval ends exactly at the cycle boundary, where the
    # coil current is zero by construction
    i_end = vp.i_ls_amp * math.sin(vp.omega * vp.t_period)
    assert abs(i_end) < 1e-9
    assert res.columns.reached_state_v.all()


# ---------------------------------------------------------------------------
# waveform capture, channels, spectrum
# ---------------------------------------------------------------------------

def test_waveform_channel_invariants(vp):
    res, cmd, op = steady_soft_run(vp, n=8)
    cap = run(vp, cmd, 8, initial=res.final_state)
    wf = sample_waveform(cap, 512 * vp.f_s)
    eps = 1e-6
    assert np.all(wf.v_cs1 >= -eps) and np.all(wf.v_cd1 >= -eps)
    assert np.all(wf.v_cs1 <= wf.v_o + eps)
    assert np.all(wf.v_cd1 <= wf.v_o + eps)
    both_off = (wf.state == 1) | (wf.state == 4)
    assert np.max(np.abs((wf.v_cs1 + wf.v_cd1 - wf.v_o)[both_off])) < 1e-6
    conducting = (wf.state == 2) | (wf.state == 3)
    assert np.max(np.abs(wf.v_cs1[conducting])) == 0.0
    assert np.max(np.abs((wf.v_cd1 - wf.v_o)[conducting])) == 0.0
    freewheel = wf.state == 5
    assert np.max(np.abs(wf.v_cd1[freewheel])) == 0.0
    assert np.max(np.abs((wf.v_cs1 - wf.v_o)[freewheel])) == 0.0
    # gate channel matches the commanded window
    ts = vp.t_period
    phase = np.mod(wf.t, ts)
    expect_gate = (phase >= cmd.t_f - 1e-15) & \
        (phase < cmd.t_f + cmd.duty * ts - 1e-15)
    assert np.array_equal(wf.gate.astype(bool), expect_gate)


def test_event_log_monotone_and_vocabulary(vp):
    res, cmd, op = steady_soft_run(vp, n=12)
    times = res.events.t.tolist()
    assert all(b > a for a, b in zip(times, times[1:]))
    allowed = {b"gate_on", b"gate_off", b"cs1_zero", b"cd1_zero", b"ils_zero",
               b"cycle_start", b"hard_switch"}
    assert set(res.events.name.tolist()) <= allowed


def test_conduction_samples_satisfy_ode(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 2, initial=res.final_state)
    rate = 4096 * vp.f_s
    wf = sample_waveform(cap, rate)
    dt = 1.0 / rate
    mid = slice(1, -1)
    dv = (wf.v_o[2:] - wf.v_o[:-2]) / (2 * dt)
    cond = ((wf.state == 2) | (wf.state == 3))[mid]
    same_seg = (wf.state[2:] == wf.state[:-2])[...]
    ok = cond & same_seg
    rhs = (wf.i_ls[mid] - wf.v_o[mid] / vp.r_load) / vp.c_o
    err = np.abs(dv[ok] - rhs[ok])
    assert np.max(err) / np.max(np.abs(rhs[ok])) < 1e-3


def reference_samples(result, t):
    """(i_ls, v_cs1, v_cd1, v_o, gate, state) of the run ``result`` on the
    grid ``t``, one sample at a time from its segment rows: a sample
    belongs to the first cycle k with t < k T + T - 1e-18 and, in it, to
    the first segment row with th < t1."""
    params = result.params
    ts, w, tau = params.t_period, params.omega, params.r_load * params.c_o
    amp = params.i_ls_amp / (w * params.c_sum)
    segs = simulator._seg_rows(result.segments)
    first = result.segments.first.tolist()
    gate_off = result.columns.gate_off.tolist()
    k = 0
    rows = []
    for tk in t.tolist():
        while not tk < k * ts + ts - 1e-18:
            k += 1
        t_start = k * ts
        th = tk - t_start
        seg = next(s for s in segs[first[k]:first[k + 1]] if th < s.t1)
        vo = seg.v_o(th, tau, w)
        # I and IV integrate the coil current on the node, II and III clamp
        # it to v_o, and V holds it at zero
        vn = (vo if seg.state in (2, 3) else 0.0 if seg.state == 5
              else seg.va0 + amp * (math.cos(w * seg.t_ref)
                                    - math.cos(w * th)))
        rows.append((params.i_ls_amp * math.sin(w * th), vo - vn, vn, vo,
                     int(t_start + result.cmd.t_f <= tk
                         < t_start + gate_off[k]),
                     int(seg.state)))
    return [np.array(col) for col in zip(*rows)]


def orbit_run(vp, r_load, duty, n_cycles):
    """A run of ``n_cycles`` on the orbit of (duty, f_s*t_f = 0.0672), at
    load ``r_load`` (None: the receiver's own)."""
    p = vp.with_load(r_load) if r_load else vp
    cmd = ModulationCommand(duty, 0.0672 / vp.f_s)
    return run(p, cmd, n_cycles,
               initial=periodic_steady_state(p, cmd).state)


def assert_matches_reference(wf, result):
    i_ls, v_cs1, v_cd1, v_o, gate, state = reference_samples(result, wf.t)
    assert np.array_equal(wf.state, state)
    assert np.array_equal(wf.gate, gate)
    for got, ref in ((wf.i_ls, i_ls), (wf.v_cs1, v_cs1), (wf.v_cd1, v_cd1),
                     (wf.v_o, v_o)):
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("r_load, duty, per_cycle", [
    (None, 0.532, 256),     # table2 orbit: sample 128 lies on T/2
    (1500.0, 0.3, 256),     # hard-switched, States I, II and IV only
    (None, 0.532, 333.7),   # not a whole number of samples per cycle
], ids=["table2", "no_state_v", "fractional_rate"])
def test_sampler_matches_per_sample_reference(vp, r_load, duty, per_cycle):
    res = orbit_run(vp, r_load, duty, 8)
    p = res.params
    wf = sample_waveform(res, per_cycle * p.f_s)
    assert len(wf.t) == round(8 * per_cycle)
    assert_matches_reference(wf, res)
    if r_load:
        assert set(wf.state.tolist()) == {1, 2, 4}
        assert res.columns.hard_switched.all()
    elif per_cycle == 256:
        # a sample exactly on a segment end belongs to the next segment
        assert wf.t[128] == 0.5 * p.t_period
        assert wf.state[128] == 3


@pytest.mark.parametrize("per_cycle", [256, 333.7])
@pytest.mark.parametrize("r_load, duty", [(None, 0.532), (1500.0, 0.3)],
                         ids=["table2", "no_state_v"])
def test_sampler_block_seams(vp, r_load, duty, per_cycle):
    # 37 cycles are more than two of the sampler's blocks and not a whole
    # number of them, so every kind of seam is crossed
    res = orbit_run(vp, r_load, duty, 37)
    ts = res.params.t_period
    wf = sample_waveform(res, per_cycle * res.params.f_s)
    assert len(wf.t) == round(37 * per_cycle)
    per_block = simulator._BLOCK_SAMPLES * 37 // len(wf.t)
    assert 2 * per_block < 37 and 37 % per_block != 0
    assert_matches_reference(wf, res)
    for c in range(per_block, 37, per_block):
        # the block's first sample is the first of cycle c: past the end of
        # cycle c - 1 and before the end of cycle c
        first = np.searchsorted(wf.t, (c - 1) * ts + ts - 1e-18)
        assert c * ts - 1e-18 <= wf.t[first] < c * ts + ts - 1e-18
        assert wf.state[first] == res.segments.state[res.segments.first[c]]


WAVE_HEADER = "t,i_ls,v_cs1,v_cd1,v_o,gate,state"


@pytest.mark.parametrize("n_cycles, per_cycle", [
    (37, 256), (37, 333.7), (1, 256)],
    ids=["block_seams", "fractional_seams", "one_cycle"])
@pytest.mark.parametrize("r_load, duty", [(None, 0.532), (1500.0, 0.3)],
                         ids=["table2", "no_state_v"])
def test_streamed_capture_matches_the_sampled_table(vp, tmp_path, r_load,
                                                    duty, n_cycles,
                                                    per_cycle):
    # a capture streams the sampler's blocks into the table writer; its
    # bytes are those of the whole sampled waveform written at once.  37
    # cycles cross the sampler's block seams (test_sampler_block_seams),
    # some of them inside the writer's 1024-row parts, and one cycle is
    # shorter than one part
    res = orbit_run(vp, r_load, duty, n_cycles)
    rate = per_cycle * res.params.f_s
    n, blocks = simulator._waveform_blocks(res, rate)
    sizes = [len(b.t) for b in blocks]
    assert sum(sizes) == n == round(n_cycles * per_cycle)
    rows = table._TABLE_BLOCK_ROWS
    if n_cycles == 1:
        assert sizes == [n] and n < rows
    else:
        assert len(sizes) > 2 and any(k % rows for k in sizes)
    cli._write_capture(str(tmp_path), "stream.csv", "events.csv", res, rate)
    wf = sample_waveform(res, rate)
    table.write_table(str(tmp_path), "whole.csv", WAVE_HEADER,
                      [getattr(wf, f) for f in WAVE_HEADER.split(",")])
    streamed = (tmp_path / "stream.csv").read_bytes()
    assert streamed.count(b"\n") == n + 1
    assert streamed == (tmp_path / "whole.csv").read_bytes()


def test_sampler_memory_beyond_its_result_is_bounded(vp):
    # the sampler's temporaries are one block long: on the size of
    # `wptrx simulate` (400 cycles at 256 samples per cycle, a 4.3 MB
    # result) they stay under 1 MB, where one pass over the whole run
    # needed about 8 MB more
    res = orbit_run(vp, None, 0.532, 400)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wf = sample_waveform(res, 256 * vp.f_s)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    result = sum(getattr(wf, f).nbytes for f in
                 ("t", "i_ls", "v_cs1", "v_cd1", "v_o", "gate", "state"))
    assert peak <= result + 1e6, (peak, result)


def test_sampler_rejects_a_rate_that_gives_no_sample(vp):
    # 2 cycles last 10 us: the grid holds round(10 us * rate) samples, none
    # below 50 kHz, and a rate that gives none is rejected, not returned as
    # an empty waveform
    res = orbit_run(vp, None, 0.532, 2)
    for rate in (1e3, 5e4):
        with pytest.raises(NonPositiveParameter, match="> 50000") as err:
            sample_waveform(res, rate)
        assert err.value.field == "sample_rate"
    wf = sample_waveform(res, 1e5)
    assert wf.t.tolist() == [0.0]
    assert wf.state.tolist() == [res.segments.state[0]]


def coefficients(res):
    """The complex coefficients of a SpectrumResult, k = 1, 2, ..."""
    return np.array([a * np.exp(1j * phase) for _, a, phase in res.harmonics])


def sampled_coefficients(result, channel, per_cycle, n_harmonics):
    """The correlation of ``channel`` sampled at ``per_cycle`` samples per
    carrier period with e^{-jkwt}, k = 1..n_harmonics: the rectangle rule
    the exact spectrum replaces."""
    p = result.params
    wf = sample_waveform(result, per_cycle * p.f_s)
    y = getattr(wf, channel)
    return np.array([2.0 / len(y) * np.sum(y * np.exp(-1j * p.omega * k
                                                        * wf.t))
                     for k in range(1, n_harmonics + 1)])


@pytest.mark.parametrize("r_load, duty", [(None, 0.532), (1500.0, 0.3)],
                         ids=["table2", "no_state_v"])
def test_sampled_correlation_converges_to_exact_spectrum(vp, r_load, duty):
    # both orbits hard-switch, so v_cd1 jumps at the gate edge and the
    # sampled correlation's error falls only as 1/N: 17 % at k = 29 at
    # fig14's old 256 samples per cycle on table2
    res = orbit_run(vp, r_load, duty, 1)
    assert res.columns.hard_switched[0]
    exact = coefficients(spectrum(res, ("v_cd1",), 40)[0])
    worst, first = [], []
    for per_cycle in (256, 4096, 32768):
        rel = np.abs(np.abs(sampled_coefficients(res, "v_cd1", per_cycle,
                                                 40)) - np.abs(exact)) \
            / np.abs(exact)
        worst.append(rel.max())
        first.append(rel[0])
    assert worst[0] > worst[1] > worst[2]
    assert worst[2] < 5e-3
    # k = 1 converges as 1/N or faster; the light load's gate-edge jump is
    # 397 V, which leaves the 32,768-sample rule 2.8e-5 off at k = 1
    assert first[0] > 3.0 * first[1] > 9.0 * first[2]
    if r_load is None:
        assert first[2] < 2e-6


def quadrature_coefficients(one, channel, n_harmonics):
    """c_k = (2/T) int_0^T y e^{-jkw th} dth of ``channel`` (v_o, v_cd1 or
    v_cs1) of the one-cycle run ``one``, k = 1..n_harmonics, by adaptive
    quadrature of each segment's closed form: an independent reference for
    the exact spectrum."""
    p = one.params
    w, tau = p.omega, p.r_load * p.c_o
    amp = p.i_ls_amp / (w * p.c_sum)

    def value(seg, th):
        vo = seg.v_o(th, tau, w)
        vn = (vo if seg.state in (2, 3) else 0.0 if seg.state == 5
              else seg.va0 + amp * (math.cos(w * seg.t_ref)
                                    - math.cos(w * th)))
        return {"v_o": vo, "v_cd1": vn, "v_cs1": vo - vn}[channel]

    out = []
    for k in range(1, n_harmonics + 1):
        c = 0j
        for seg in simulator._seg_rows(one.segments):
            for part, f in ((1.0, math.cos), (-1j, math.sin)):
                c += part * quad(lambda th: value(seg, th) * f(k * w * th),
                                 seg.t0, seg.t1, epsabs=1e-18,
                                 epsrel=1e-11)[0]
        out.append(2.0 * c / p.t_period)
    return np.array(out)


@pytest.mark.parametrize("c_o", [1000e-6, 1e-6], ids=["table2", "small_c_o"])
def test_spectrum_matches_quadrature_of_the_segments(vp, c_o):
    # at 1 uF the source-driven sin and cos terms of the conduction form
    # are 0.039 V and 1.9 V, where table2's sin term is 4e-8 V
    p = dataclasses.replace(vp, c_o=c_o)
    one = orbit_run(p, None, 0.532, 1)
    channels = ("v_o", "v_cd1", "v_cs1")
    for channel, res in zip(channels, spectrum(one, channels, 10)):
        # rounding is of the order of the voltages, not of each harmonic
        np.testing.assert_allclose(
            coefficients(res), quadrature_coefficients(one, channel, 10),
            rtol=1e-9, atol=1e-13 * one.columns.v_o_start[0])


def test_spectrum_source_current_is_exactly_one_harmonic(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 3, initial=res.final_state)
    sp, = spectrum(cap, ("i_ls",), 10)
    assert sp.fundamental == vp.i_ls_amp
    assert sp.harmonics[0][2] == -0.5 * math.pi
    assert all(a == 0.0 for _, a, _ in sp.harmonics[1:])
    assert sp.thd == 0.0


def test_spectrum_mean_over_orbit_cycles_is_one_cycles(vp):
    # every cycle of the orbit is the same, and each is referenced to its
    # own start
    eight = orbit_run(vp, None, 0.532, 8)
    channels = ("v_cd1", "v_cs1", "v_o")
    for channel, one, mean in zip(
            channels, spectrum(orbit_run(vp, None, 0.532, 1), channels, 40),
            spectrum(eight, channels, 40)):
        c, d = coefficients(one), coefficients(mean) - coefficients(one)
        if channel == "v_o":
            # its harmonics are the ripple, mV and below: against the
            # output voltage, as its rounding is
            assert np.max(np.abs(d)) < 1e-12 * eight.columns.v_o_start[0]
        else:
            assert np.max(np.abs(d) / np.abs(c)) < 1e-12
            assert mean.thd == pytest.approx(one.thd, rel=1e-12)


def test_spectrum_of_several_channels_is_each_channels_own(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 3, initial=res.final_state)
    channels = ("v_cd1", "i_ls", "v_o", "v_cs1")
    together = spectrum(cap, channels, 40)
    assert len(together) == len(channels)
    for channel, got in zip(channels, together):
        alone, = spectrum(cap, (channel,), 40)
        assert got.harmonics == alone.harmonics
        assert got.thd == alone.thd
    # the switch voltage is the output less the node voltage
    v_cd1, _, v_o, v_cs1 = (coefficients(r) for r in together)
    np.testing.assert_allclose(v_cs1, v_o - v_cd1, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(v_cd1)))


def test_spectrum_rejects_bad_arguments(vp):
    res = orbit_run(vp, None, 0.532, 2)
    # a bare name is not read as the channels "v", "_", "o"
    with pytest.raises(TypeError, match="sequence of names"):
        spectrum(res, "v_o", 40)
    with pytest.raises(ValueError, match="gate"):
        spectrum(res, ("v_o", "gate"), 40)
    # no harmonic to take, or a count that is not an integer (numpy's
    # raised a bare TypeError on 2.5)
    for n_harmonics in (0, -3, 2.5, 2.0):
        with pytest.raises(NonPositiveParameter) as err:
            spectrum(res, ("v_o",), n_harmonics)
        assert err.value.field == "n_harmonics"
    assert len(spectrum(res, ("v_o",), np.int64(3))[0].harmonics) == 3


def test_hard_switched_node_harmonics_fall_as_its_jump_over_pi_k(vp):
    # v_cd1 jumps by J at the gate edge of fig14's hard-switched orbit (the
    # top-up from va_pre_snap to v_at_th1), so k a_k tends to |J|/pi: the
    # high harmonics the paper's soft switching removes
    one = orbit_run(vp, None, 0.532, 1)
    jump = one.columns.v_at_th1[0] - one.columns.va_pre_snap[0]
    assert jump > 6.0
    sp, = spectrum(one, ("v_cd1",), 400)
    k = np.arange(1, 401)
    ka = k * np.array([a for _, a, _ in sp.harmonics]) / (abs(jump) / math.pi)
    assert np.mean(ka[199:]) == pytest.approx(1.0, abs=0.02)
    assert np.all(np.abs(ka[199:] - 1.0) < 0.25)
    # the spread about |J|/pi narrows as k grows
    assert np.ptp(ka[199:]) < 0.7 * np.ptp(ka[99:199])
    # so k^2 a_k grows without bound
    k2a = k * ka
    assert np.max(k2a[199:]) > 3.0 * np.max(k2a[49:99])


def test_soft_switched_node_harmonics_fall_as_one_over_k_squared(vp):
    # gated at the exact fall time the node reaches zero switch voltage
    # before the gate edge: v_cd1 is continuous and only its slope jumps,
    # so k^2 a_k stays bounded
    op = solve_operating_point(vp, 0.532, exact=True)
    cmd = exact_cmd(vp, 0.532, op.v_o)
    orbit = periodic_steady_state(vp, cmd)
    one = run(vp, cmd, 1, initial=orbit.state)
    assert one.columns.zvs_ok[0] and not one.columns.hard_switched[0]
    sp, = spectrum(one, ("v_cd1",), 400)
    k = np.arange(1, 401)
    k2a = k * k * np.array([a for _, a, _ in sp.harmonics])
    assert np.max(k2a[199:]) < 1.1 * np.max(k2a[49:99])
    assert np.max(k2a) < 150.0


# ---------------------------------------------------------------------------
# soft-switching summary
# ---------------------------------------------------------------------------

def test_soft_switching_sweep_across_duty_window(vp):
    lo, hi = duty_bounds(0.078)
    for duty in np.linspace(lo + 0.01, hi - 0.01, 7):
        op = solve_operating_point(vp, float(duty), exact=True)
        cmd = ModulationCommand(float(duty), fall_time_exact(vp, op.v_o))
        c = run(vp, cmd, 30, initial=SwitchCycleState(op.v_o)).columns
        assert c.zvs_ok.all() and c.reached_state_v.all()
        assert not c.e_hard_switch.any()


def test_soft_switching_report_counts_hard_cycles(vp):
    # the columns simulate reduces to its zvs and zcs fractions
    cmd = ModulationCommand(0.532, 0.0)
    c = run(vp, cmd, 20, initial=SwitchCycleState(24.0)).columns
    assert not c.zvs_ok.any()
    assert c.v_cs1_at_gate.max() > 1.0
    assert c.e_hard_switch.sum() > 0.0


# ---------------------------------------------------------------------------
# periodic steady state (shooting on the one-cycle map)
# ---------------------------------------------------------------------------

def fig13_cmd(vp):
    """Duty and measured delay f_s*t_f of the shipped table2 config."""
    return ModulationCommand(0.532, 0.0672 / vp.f_s)


def one_cycle_change(vp, cmd, state):
    nxt = run(vp, cmd, 1, state).final_state
    return max(abs(nxt.v_o - state.v_o), abs(nxt.v_cd1 - state.v_cd1))


def test_periodic_steady_state_soft_and_hard(vp):
    hard = fig13_cmd(vp)
    soft = exact_cmd(vp, 0.532, 24.6, margin=20e-9)
    for cmd, is_hard in ((hard, True), (soft, False)):
        orbit = periodic_steady_state(vp, cmd)
        assert orbit.residual <= V_ORBIT_TOL
        assert one_cycle_change(vp, cmd, orbit.state) == orbit.residual
        assert orbit.cycles <= 12
        d = run(vp, cmd, 1, orbit.state).columns
        assert d.hard_switched[0] == is_hard and d.reached_state_v[0]


def test_run_and_orbit_solve_build_their_cycle_constants_once(
        vp, monkeypatch):
    # run, periodic_steady_state and cycle_linearization build the
    # receiver's cycle constants once per call, not once per cycle, and
    # step the same bits as one-cycle runs, which build them on every call
    cmd = fig13_cmd(vp)
    built = []
    cycle_consts = simulator._cycle_consts

    def counted(params, r_load, i_amp, t_f):
        built.append((r_load, i_amp, t_f))
        return cycle_consts(params, r_load, i_amp, t_f)

    monkeypatch.setattr(simulator, "_cycle_consts", counted)
    res = run(vp, cmd, 40, initial=SwitchCycleState(24.0))
    orbit = periodic_steady_state(vp, cmd)
    n_lin = cycle_linearization(vp, cmd, orbit.state)[4]
    assert built == [(vp.r_load, vp.i_ls_amp, cmd.t_f)] * 3
    assert orbit.cycles > 2 and n_lin >= 3
    monkeypatch.undo()
    state = SwitchCycleState(24.0)
    first = res.segments.first
    for n in range(40):
        ref = run(vp, cmd, 1, state)
        state = ref.final_state
        # repr, as t_f_meas is NaN on hard cycles
        assert repr([col[n] for col in res.columns]) == repr(
            [col[0] for col in ref.columns])
        assert repr([col[first[n]:first[n + 1]] for col in res.segments[:8]]
                    ) == repr(list(ref.segments[:8]))
    assert res.final_state == state
    assert orbit.residual == one_cycle_change(vp, cmd, orbit.state)


def test_periodic_steady_state_at_the_soft_hard_kink(vp):
    # locate the gate delay at which the orbit's natural commutation meets
    # the gate edge: P has a kink there (w_resid -> 0 from the hard side)
    def orbit_at(t_f):
        cmd = ModulationCommand(0.532, t_f)
        orbit = periodic_steady_state(vp, cmd)
        assert orbit.residual <= V_ORBIT_TOL
        return orbit.state.v_o, run(vp, cmd, 1, orbit.state).columns

    t_gate = fall_time_exact(vp, 24.0)
    lo, hi = 0.98 * t_gate, 1.02 * t_gate
    assert orbit_at(lo)[1].hard_switched[0]
    assert not orbit_at(hi)[1].hard_switched[0]
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if orbit_at(mid)[1].hard_switched[0]:
            lo = mid
        else:
            hi = mid
    # the orbit is continuous across the kink
    (v_lo, d_lo), (v_hi, _) = orbit_at(lo), orbit_at(hi)
    assert d_lo.v_cs1_at_gate[0] < 1e-6
    assert v_hi == pytest.approx(v_lo, abs=1e-6)


def test_periodic_steady_state_from_cycles_without_state_v(vp):
    # D + f_s*t_f = 0.99: from 24 V the node never swings back to zero, so
    # v_cd1 carries over between cycles; the orbit itself sits near 0 V
    cmd = ModulationCommand(0.96, 0.03 / vp.f_s)
    first = run(vp, cmd, 1, SwitchCycleState(24.0))
    assert (not first.columns.reached_state_v[0]
            and first.final_state.v_cd1 > 0.0)
    orbit = periodic_steady_state(vp, cmd)
    assert orbit.residual <= V_ORBIT_TOL
    assert 0.0 < orbit.state.v_o < 0.1
    # an orbit that never reaches State V: the load keeps v_o beyond the
    # node swing 2|I|/(omega*C_sum), so v_cd1 is a true second coordinate
    high = vp.with_load(3000.0)
    cmd_h = ModulationCommand(0.3, 0.02 / vp.f_s)
    orbit_h = periodic_steady_state(high, cmd_h)
    assert orbit_h.residual <= V_ORBIT_TOL
    d = run(high, cmd_h, 1, orbit_h.state).columns
    assert not d.reached_state_v[0] and orbit_h.state.v_cd1 > 0.0


@pytest.mark.xfail(strict=True, raises=NoConvergence, reason=(
    "CHANGES.md FOUND: the simulator lets v_o go below zero; the conduction "
    "segment has no output clamp, so a command whose averaged output is "
    "negative has an orbit at v_o = -1.44 mV, which the orbit solve names "
    "instead of bracketing past 0 V"))
def test_orbit_output_is_not_negative(vp):
    # the averaged output of this command is -2.42 V: its duty lies above
    # the window's top of 0.8
    p = dataclasses.replace(vp, c_o=864e-6, r_load=43.5, i_ls_amp=1.83)
    cmd = ModulationCommand(0.899, 0.1 / p.f_s)
    assert steady_state_vo(1.83, 43.5, 0.899, 0.1) < 0.0
    orbit = periodic_steady_state(p, cmd)
    assert orbit.residual <= V_ORBIT_TOL
    assert orbit.state.v_o >= 0.0


def test_long_run_approaches_the_solved_orbit(vp):
    # the fixed 8000-cycle settle that fig13 and fig14 used to run ended
    # at 24.144 V; continuing from there creeps monotonically toward the
    # solved orbit at the linearized rate
    cmd = fig13_cmd(vp)
    v_star = periodic_steady_state(vp, cmd).state.v_o
    res = run(vp, cmd, 2000, initial=SwitchCycleState(24.144))
    ends = np.concatenate(([24.144], res.columns.v_o_end))
    steps = np.diff(ends)
    assert np.all(steps > 0.0) and ends[-1] < v_star
    # geometric decay: extrapolating the remaining steps lands on v_star
    rho = (steps[-1] / steps[0]) ** (1.0 / (len(steps) - 1))
    limit = ends[-1] + steps[-1] * rho / (1.0 - rho)
    assert limit == pytest.approx(v_star, abs=1e-6)


def test_fig13_capture_is_steady():
    rc = cli._builtin_config("table2")
    c = cli._steady_va_run(rc, validate(rc.params), 4).columns
    assert np.ptp(c.v_o_mean) <= 1e-9
    assert c.v_o_start[0] == pytest.approx(24.352, abs=1e-3)


def test_simulate_reports_the_orbit_it_starts_on(tmp_path, capsys):
    # it used to print "steady = False": its 1 uV/10-cycle test never saw
    # 10 cycles
    table2 = Path(cli.__file__).parent / "configs" / "table2.cfg"
    assert cli.main(["simulate", "--config", str(table2), "--cycles", "5",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    residual = float(re.search(r"orbit residual = (\S+) V", out).group(1))
    assert 0.0 <= residual <= V_ORBIT_TOL


def test_simulate_builds_its_segment_table_once(tmp_path, monkeypatch):
    # the sampler, the event list and the diagnostics all read the table
    # run builds; each cycle's segments used to be built by the sampler
    # and again by the diagnostics
    built = []
    segment_table = simulator._segment_table

    def counted(columns, consts):
        built.append(len(columns.th1))
        return segment_table(columns, consts)

    monkeypatch.setattr(simulator, "_segment_table", counted)
    table2 = Path(cli.__file__).parent / "configs" / "table2.cfg"
    assert cli.main(["simulate", "--config", str(table2), "--cycles", "40",
                     "--out", str(tmp_path)]) == 0
    assert built == [40]


def test_orbits_converge_across_the_receiver_box():
    # the orbit solve reaches V_ORBIT_TOL only where the one-cycle map is
    # smooth to float resolution: a turn-on time quantized to T_EVENT_TOL
    # makes it a staircase that stalls the solve near 1e-10 V
    for p, cmd, _ in random_receivers(11, 2000):
        assert periodic_steady_state(p, cmd).residual <= V_ORBIT_TOL


@pytest.mark.parametrize("duty", [0.22, 0.3])
def test_orbit_gated_at_the_exact_fall_time_converges(duty):
    # fig7's receiver at 5 kohm, gated at exactly the exact fall time: the
    # orbit sits on the soft/hard kink of the cycle map, where the damped
    # Newton this solve replaced stalled near 2e-11 V
    p = validate(cli._builtin_config("fig7").params).with_load(5000.0)
    op = solve_operating_point(p, duty, exact=True)
    orbit = periodic_steady_state(p, ModulationCommand(duty, op.t_f))
    assert orbit.residual <= V_ORBIT_TOL


@pytest.mark.parametrize("config", ["table2", "fig7"])
def test_orbits_gated_about_the_exact_fall_time_converge(config):
    # loads of 5 ohm to 10 kohm, gated at 0.99, 1 and 1.01 times the exact
    # fall time, so across the soft/hard kink of the cycle map: the damped
    # Newton this solve replaced stalled on 11 of these commands, all gated
    # at exactly the fall time
    base = validate(cli._builtin_config(config).params)
    for r_load in (5.0, 20.0, 38.09, 100.0, 300.0, 1e3, 3e3, 5e3, 10e3):
        p = base.with_load(r_load)
        for duty in (0.2, 0.22, 0.3, 0.4, 0.5, 0.6):
            t_f = solve_operating_point(p, duty, exact=True).t_f
            for cmd in (ModulationCommand(duty, k * t_f)
                        for k in (0.99, 1.0, 1.01)):
                orbit = periodic_steady_state(p, cmd)
                assert one_cycle_change(p, cmd, orbit.state) \
                    == orbit.residual <= V_ORBIT_TOL
                # v* is a zero of r, or r changes sign across one float
                consts = simulator._cycle_consts(p, r_load, p.i_ls_amp,
                                                 cmd.t_f)

                def r(v):
                    return simulator._orbit_start(v, duty, consts)[1] - v
                v = orbit.state.v_o
                assert r(v) == 0.0 or any(
                    (r(math.nextafter(v, w)) < 0.0) != (r(v) < 0.0)
                    for w in (-math.inf, math.inf))


def test_failed_orbit_solve_names_its_command(vp, monkeypatch):
    # v_cd1's start allowed no cycle to settle in
    monkeypatch.setattr(simulator, "_MAX_ORBIT_ITER", 0)
    cmd = ModulationCommand(0.532, 336e-9)
    with pytest.raises(NoConvergence) as err:
        periodic_steady_state(vp, cmd)
    msg = str(err.value)
    assert "duty=0.532" in msg and "t_f=3.36e-07" in msg
    assert "v_cd1's start unsettled" in msg
    # a point that is not a root of r (as a jump of r would leave) fails
    # the residual check
    monkeypatch.undo()
    monkeypatch.setattr(simulator, "bisect_root",
                        lambda f, lo, hi, xtol: 0.5 * (lo + hi))
    with pytest.raises(NoConvergence, match=r"duty=0\.532.*: residual"):
        periodic_steady_state(vp, cmd)


def test_readme_quick_tour_soft_switches(capsys):
    # the tour commands the exact fall time of the exact operating point,
    # so its cycles turn on at zero voltage
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```",
                      readme.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    v_o_mean, zvs_ok = capsys.readouterr().out.splitlines()[0].split()
    assert zvs_ok == "True"
    assert float(v_o_mean) == pytest.approx(23.67, abs=0.01)
