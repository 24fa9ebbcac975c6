"""PI regulation mechanics, feedforward timing, and closed-loop behavior."""

import dataclasses
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from wptrx import control, scenarios, simulator
from wptrx.analytic import fall_time_exact, phase_angle
from wptrx.config import parse_config
from wptrx.control import (Scenario, closed_loop_run, feedforward_tf,
                           pi_step, step_profile)
from wptrx.errors import GateOverrun, NoConvergence, NonPositiveParameter
from wptrx.params import ReceiverParams, validate
from wptrx.scenarios import design_gains, equilibrium_op
from wptrx.simulator import (V_ORBIT_TOL, ModulationCommand, SwitchCycleState,
                             cycle_diagnostics, run)
from wptrx.smallsignal import PiGains


@pytest.fixture(scope="module")
def vp():
    return validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                   f_s=200e3, i_ls_amp=2.35, r_ls_esr=2.16))


@pytest.fixture(scope="module")
def vp_fig7():
    return validate(parse_config(
        Path(control.__file__).parent / "configs" / "fig7.cfg").params)


@pytest.fixture(scope="module")
def vp_fast(vp):
    # smaller output capacitor keeps closed-loop test horizons short
    return dataclasses.replace(vp, c_o=100e-6)


GAINS = PiGains(k_p=-4.4, k_i=-116.0, d_min=0.42, d_max=0.85)


# ---------------------------------------------------------------------------
# PI update
# ---------------------------------------------------------------------------

def pi_at(v_o_sample, v_ref, gains, t_step, duty, integrator, saturated):
    """pi_step on the output sampled against v_ref: the next (duty,
    integrator, saturated)."""
    return pi_step(v_ref - v_o_sample, gains.k_p, gains.k_i, gains.d_min,
                   gains.d_max, t_step, duty, integrator, saturated)


def test_pi_equilibrium_passthrough():
    duty, integrator, saturated = pi_at(24.0, 24.0, GAINS, 5e-6,
                                        0.532, 0.532, False)
    assert duty == 0.532
    assert integrator == 0.532
    assert not saturated


def test_pi_direction_of_action():
    # output too low -> positive error -> with negative gains the duty
    # moves down, which raises the output on the regulable branch
    duty, integrator, _ = pi_at(22.0, 24.0, GAINS, 5e-6, 0.6, 0.6, False)
    assert duty < 0.6
    assert integrator < 0.6


def test_pi_windup_freeze_at_bound():
    # pinned at the upper bound with the error still pushing outward: the
    # integrator must not move for any number of cycles
    st = (GAINS.d_max, 0.9, True)
    for _ in range(100):
        st = pi_at(25.0, 24.0, GAINS, 5e-6, *st)
        # v above ref: e < 0, k_i*e > 0 drives duty further up -> frozen
        assert st[0] == GAINS.d_max
        assert st[1] == 0.9


def test_pi_integrates_back_toward_range():
    # error reverses
    _, integrator, _ = pi_at(23.0, 24.0, GAINS, 5e-6, GAINS.d_max, 0.9, True)
    assert integrator < 0.9


def reference_pi_step(e, k_p, k_i, d_min, d_max, t_step, duty, integrator,
                      saturated):
    """``pi_step`` with its clamp written with the builtin min and max."""
    delta = k_i * e * t_step
    if saturated and (duty >= d_max and delta > 0.0
                      or duty <= d_min and delta < 0.0):
        integrator = integrator + 0.0
    else:
        integrator = integrator + delta
    unsat = k_p * e + integrator
    duty = min(max(unsat, d_min), d_max)
    return duty, integrator, duty != unsat


def same_float(a, b):
    """a == b with the same sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_pi_step_clamp_matches_the_builtin_min_max_reference():
    # pi_step clamps with conditional expressions; on a seeded grid and on
    # the edge cases of the clamp (unsat exactly at a bound, +-0.0 errors
    # and bounds, unsat far out on either side, NaN, frozen and unfrozen
    # integrators) it must return the reference's floats to the sign of
    # zero
    k_p, k_i, t_step = GAINS.k_p, GAINS.k_i, 5e-6
    rng = random.Random(24)
    cases = [(rng.uniform(-3.0, 3.0), GAINS.d_min, GAINS.d_max,
              rng.uniform(0.3, 0.95), rng.uniform(0.2, 1.0),
              rng.random() < 0.5) for _ in range(2000)]
    # with e = +-0.0 the integrator stays put, so unsat lands on a bound
    # or on a signed zero exactly
    for (d_min, d_max), e, integrator, saturated in itertools.product(
            ((GAINS.d_min, GAINS.d_max), (0.0, 1.0), (-0.0, 0.0),
             (0.0, -0.0)),
            (0.0, -0.0, 1e3, -1e3, math.nan),
            (GAINS.d_min, GAINS.d_max, 0.0, -0.0, 0.6),
            (False, True)):
        for duty in (d_min, d_max, 0.6):
            cases.append((e, d_min, d_max, duty, integrator, saturated))
    seen = set()
    for e, d_min, d_max, duty, integrator, saturated in cases:
        args = (e, k_p, k_i, d_min, d_max, t_step, duty, integrator,
                saturated)
        got, want = pi_step(*args), reference_pi_step(*args)
        assert same_float(got[0], want[0]) and same_float(got[1], want[1])
        assert got[2] is want[2]
        unsat = k_p * e + want[1]
        delta = k_i * e * t_step
        seen.add("frozen" if delta != 0.0 and want[1] == integrator
                 else "unfrozen")
        seen.add("at_d_min" if unsat == d_min else "at_d_max"
                 if unsat == d_max else "below" if unsat < d_min
                 else "above" if unsat > d_max else "inside")
    assert seen >= {"frozen", "unfrozen", "at_d_min", "at_d_max", "below",
                    "above", "inside"}


# ---------------------------------------------------------------------------
# feedforward and gate timing
# ---------------------------------------------------------------------------

def test_feedforward_prototype_value(vp):
    assert feedforward_tf(24.0, 2.35, vp) == pytest.approx(382e-9, abs=1e-9)
    assert feedforward_tf(0.0, 2.35, vp) == 0.0


def test_feedforward_mismatch_directions(vp):
    # commanded delay computed at a weaker amplitude than the live one:
    # commutation completes early, the switch-path diode holds the node,
    # zero-voltage turn-on is preserved
    t_cmd = feedforward_tf(24.0, 1.45, vp)
    assert t_cmd > fall_time_exact(vp, 24.0)
    st = SwitchCycleState(24.0)
    d_ok = run(vp, ModulationCommand(0.532, t_cmd), 1, st).columns
    assert d_ok.zvs_ok[0] and not d_ok.hard_switched[0]

    # the reverse mismatch fires the gate before the node has swung
    p_weak = vp.with_amplitude(1.45)
    t_cmd2 = feedforward_tf(24.0, 2.35, p_weak)
    st = SwitchCycleState(24.0)
    d_bad = run(p_weak, ModulationCommand(0.532, t_cmd2), 1, st).columns
    assert not d_bad.zvs_ok[0] and d_bad.hard_switched[0]
    assert d_bad.e_hard_switch[0] > 0.0


def test_gate_edges_follow_the_command(vp):
    # gate_on trails the synchronization edge by the commanded delay,
    # gate_off one duty interval later
    st = SwitchCycleState(24.0)
    cmd = ModulationCommand(0.5, 0.0)
    ev = run(vp, cmd, 1, st).events
    edges = dict(zip(ev.name.tolist(), ev.t.tolist()))
    assert edges[b"gate_on"] == 0.0
    assert edges[b"gate_off"] == pytest.approx(2.5e-6, rel=1e-12)
    # the third cycle of a run starts at 10 us
    cmd2 = ModulationCommand(0.532, 382e-9)
    ev = run(vp, cmd2, 3, initial=st).events
    gate_on, gate_off = ev.t[np.isin(ev.name, [b"gate_on", b"gate_off"])][4:]
    assert gate_on == pytest.approx(10e-6 + 382e-9, rel=1e-12)
    assert gate_off == pytest.approx(10e-6 + 3.042e-6, rel=1e-9)
    with pytest.raises(GateOverrun):
        run(vp, ModulationCommand(0.9, 0.15 / vp.f_s), 1, st)


def test_gate_phase_matches_command(vp):
    # the centre of the on-pulse sits at the paper's phase angle
    cmd = ModulationCommand(0.532, 382e-9)
    ev = run(vp, cmd, 1, SwitchCycleState(24.0)).events
    edges = dict(zip(ev.name.tolist(), ev.t.tolist()))
    centre = 0.5 * (edges[b"gate_on"] + edges[b"gate_off"])
    assert vp.omega * centre == pytest.approx(
        phase_angle(cmd.duty, vp.f_s * cmd.t_f), rel=1e-12)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def test_duty_stays_admissible_everywhere(vp_fast):
    gains = design_gains(vp_fast, 24.0, 2.35, 1000.0)
    sc = Scenario(name="steps", duration=20e-3,
                  r_load=step_profile(vp_fast.r_load, 36.0, 8e-3),
                  i_ls_amp=vp_fast.i_ls_amp,
                  v_ref=step_profile(24.0, 21.0, 14e-3), i_ls_ff=2.35,
                  v_o0=24.0,
                  initial_integrator=equilibrium_op(vp_fast, 24.0, 2.35).duty)
    rec = closed_loop_run(sc, gains, vp_fast)
    assert not rec.regulation_failed
    assert np.min(rec.duty) >= gains.d_min
    assert np.max(rec.duty) <= gains.d_max


def test_antiwindup_recovery_is_prompt(vp_fast):
    # a reference step big enough to pin the duty at its upper bound for
    # dozens of cycles; because the integrator is frozen at its pre-step
    # value instead of winding up, the duty releases as soon as the error
    # has collapsed -- no integrator-discharge plateau.  A wound-up
    # integrator would hold the pin for thousands of cycles past the
    # reversal.
    gains = design_gains(vp_fast, 24.0, 2.35, 1000.0)
    d0 = equilibrium_op(vp_fast, 24.0, 2.35).duty
    sc = Scenario(name="down_step", duration=30e-3,
                  r_load=vp_fast.r_load, i_ls_amp=vp_fast.i_ls_amp,
                  v_ref=step_profile(24.0, 20.5, 2e-3), i_ls_ff=2.35,
                  v_o0=24.0, initial_integrator=d0)
    rec = closed_loop_run(sc, gains, vp_fast)
    at_bound = rec.duty >= gains.d_max - 1e-12
    assert np.sum(at_bound) >= 50
    err = np.where(rec.t >= 2e-3, 20.5, 24.0) - rec.v_o_sample
    # first cycle where the error has finished reversing (collapsed to
    # within 100 uV or changed sign)
    post = np.nonzero(rec.t >= 2e-3)[0]
    rev = [k for k in post if err[k] > -1e-4]
    assert rev
    k0 = rev[0]
    off_bound = np.nonzero(~at_bound[k0:])[0]
    assert len(off_bound) > 0 and off_bound[0] <= 5
    # and the recovery carries no plateau: the loop is regulating at the
    # new reference shortly after
    settle = rec.t[-1]
    tail = rec.v_o_mean[rec.t >= settle - 2e-3]
    assert abs(float(np.mean(tail)) - 20.5) < 0.05


def test_zero_steady_state_error(vp_fast):
    # constant tail of at least 20 R*C_o: the integral action nulls the
    # error below 0.1% of the reference
    gains = design_gains(vp_fast, 24.0, 2.35, 1000.0)
    tail = 20 * vp_fast.r_load * vp_fast.c_o
    sc = Scenario(name="const", duration=2e-3 + tail,
                  r_load=vp_fast.r_load, i_ls_amp=vp_fast.i_ls_amp,
                  v_ref=24.0, i_ls_ff=2.35, v_o0=22.0,
                  initial_integrator=0.6)
    rec = closed_loop_run(sc, gains, vp_fast)
    n_tail = len(rec.v_o_mean) // 10
    assert abs(float(np.mean(rec.v_o_mean[-n_tail:])) - 24.0) < 0.001 * 24.0


def test_discretization_matches_continuous_design(vp):
    # small reference step against the continuous closed loop: with the
    # crossover 200x below the carrier the cycle-sampled loop tracks the
    # first-order response within 2% RMS of the step size
    f_c = 500.0
    gains = design_gains(vp, 24.0, 2.35, f_c)
    d0 = equilibrium_op(vp, 24.0, 2.35).duty
    t_step = 2e-3
    dv = 0.02  # small enough that the duty never saturates
    sc = Scenario(name="small_step", duration=6e-3,
                  r_load=vp.r_load, i_ls_amp=vp.i_ls_amp,
                  v_ref=step_profile(24.0, 24.0 + dv, t_step), i_ls_ff=2.35,
                  v_o0=24.0, initial_integrator=d0)
    rec = closed_loop_run(sc, gains, vp)
    # settle residue of the pre-step equilibrium
    pre = rec.t < t_step
    base = float(np.mean(rec.v_o_sample[pre][-40:]))
    post = rec.t >= t_step
    t_rel = rec.t[post] - t_step
    model = base + dv * (1.0 - np.exp(-2 * math.pi * f_c * t_rel))
    rms = math.sqrt(float(np.mean((rec.v_o_sample[post] - model) ** 2)))
    assert rms <= 0.02 * dv


def test_scenario_requires_minimum_duration(vp):
    # the message used to read "(>= 100 cycles) must be > 0, got 5e-05"
    sc = Scenario(name="tiny", duration=10 * vp.t_period,
                  r_load=38.09, i_ls_amp=2.35, v_ref=24.0, i_ls_ff=2.35,
                  v_o0=24.0, initial_integrator=0.6)
    with pytest.raises(NonPositiveParameter) as err:
        closed_loop_run(sc, GAINS, vp)
    assert err.value.field == "scenario duration"
    assert str(err.value) == ("scenario duration must be >= 100 periods "
                              "(0.0005 s), got 5e-05")


@pytest.mark.parametrize("field,bad", [
    ("r_load", math.nan), ("r_load", 0.0), ("i_ls_amp", math.nan),
    ("i_ls_amp", -1.0), ("r_load", math.inf), ("i_ls_amp", math.inf)],
    ids=["r_load_nan", "r_load_zero", "i_ls_amp_nan", "i_ls_amp_negative",
         "r_load_inf", "i_ls_amp_inf"])
def test_non_finite_profile_value_is_rejected(vp_fast, field, bad):
    # a load or source profile that yields a bad value stops the run where
    # the value enters instead of producing a bad trajectory
    profiles = {"r_load": 38.09, "i_ls_amp": 2.35}
    profiles[field] = step_profile(profiles[field], bad,
                                   100 * vp_fast.t_period)
    sc = Scenario(name="bad_profile", duration=200 * vp_fast.t_period,
                  v_ref=24.0, i_ls_ff=2.35, v_o0=24.0,
                  initial_integrator=0.6, **profiles)
    with pytest.raises(NonPositiveParameter) as err:
        closed_loop_run(sc, GAINS, vp_fast)
    assert err.value.field == field


def test_feedforward_recomputed_only_when_the_reference_moves(vp_fast,
                                                              monkeypatch):
    # one square root per reference value, not per cycle; a NaN reference
    # still differs from the last one and is rejected where it enters
    calls = []

    def counted(v_ref, i_ls_nominal, params):
        calls.append(v_ref)
        return feedforward_tf(v_ref, i_ls_nominal, params)

    monkeypatch.setattr(control, "feedforward_tf", counted)
    sc = Scenario(name="ref_step", duration=200 * vp_fast.t_period,
                  r_load=38.09, i_ls_amp=2.35,
                  v_ref=step_profile(24.0, 23.0, 100 * vp_fast.t_period),
                  i_ls_ff=2.35, v_o0=24.0, initial_integrator=0.6)
    closed_loop_run(sc, GAINS, vp_fast)
    assert calls == [24.0, 23.0]
    with pytest.raises(NonPositiveParameter) as err:
        closed_loop_run(dataclasses.replace(sc, v_ref=step_profile(
            24.0, math.nan, 100 * vp_fast.t_period)), GAINS, vp_fast)
    assert err.value.field == "v_ref"


def replay(scenario, gains, params):
    """closed_loop_run's record fields (t, v_o_sample, v_o_mean, duty),
    stepped through the public pi_step and one-cycle runs on a receiver
    copy at each cycle's live load and amplitude."""
    ts = params.t_period
    pi = (scenario.initial_integrator, scenario.initial_integrator, False)
    state = SwitchCycleState(scenario.v_o0)
    rows = []
    for n in range(int(round(scenario.duration / ts))):
        t_n = n * ts
        live = params.with_load(control._eval_profile(scenario.r_load, t_n))
        live = live.with_amplitude(
            control._eval_profile(scenario.i_ls_amp, t_n))
        v_ref = control._eval_profile(scenario.v_ref, t_n)
        pi = pi_at(state.v_o, v_ref, gains, ts, *pi)
        duty = pi[0]
        t_f = feedforward_tf(v_ref, scenario.i_ls_ff, params)
        one = run(live, ModulationCommand(duty, t_f), 1, state)
        rows.append((t_n, state.v_o, one.columns.v_o_mean[0], duty))
        state = one.final_state
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("case", ["load_step", "amplitude_ramp", "startup",
                                  "reference_step_down", "all_three_step"])
def test_closed_loop_run_replays_through_one_cycle_runs_and_pi_step(
        vp_fast, monkeypatch, case):
    # the loop keeps its cycle constants between load or amplitude changes
    # and runs the PI law on floats; its record must equal, bit for bit, a
    # replay through the public one-cycle calls.  The startup from 0 V holds
    # the duty at d_min and the reference step down at d_max, each with the
    # integrator frozen by the anti-windup until the duty comes off the
    # bound.  The cycle constants are built in two parts: the gate terms
    # (load and fed-forward delay) and the amplitude terms on top of them.
    # The load, the amplitude and the reference all stepping on one cycle
    # is one change, so one build of each.
    gains = design_gains(vp_fast, 24.0, 2.35, 1000.0)
    d0 = equilibrium_op(vp_fast, 24.0, 2.35).duty
    t_100 = 100 * vp_fast.t_period
    sc = {
        "load_step": scenarios.load_step_scenario(
            vp_fast, 24.0, 2.35, r_low=36.0, t_step=2e-3, duration=5e-3),
        "amplitude_ramp": scenarios.source_ramp_scenario(
            vp_fast, 24.0, 2.35, i_stop=2.6, t_ramp_start=1e-3,
            ramp_len=3e-3, duration=5e-3),
        "startup": scenarios.startup_scenario(vp_fast, 24.0, 2.35,
                                              duration=10e-3),
        "reference_step_down": Scenario(
            name="down_step", duration=5e-3, r_load=vp_fast.r_load,
            i_ls_amp=vp_fast.i_ls_amp, v_ref=step_profile(24.0, 20.5, 1e-3),
            i_ls_ff=2.35, v_o0=24.0, initial_integrator=d0),
        "all_three_step": Scenario(
            name="all_three_step", duration=200 * vp_fast.t_period,
            r_load=step_profile(vp_fast.r_load, 36.0, t_100),
            i_ls_amp=step_profile(vp_fast.i_ls_amp, 2.4, t_100),
            v_ref=step_profile(24.0, 23.0, t_100), i_ls_ff=2.35, v_o0=24.0,
            initial_integrator=d0),
    }[case]
    gate_built, amp_built = [], []
    gate_terms, amplitude_consts = control._gate_terms, \
        control._amplitude_consts

    def gate_counted(params, r_load, t_f):
        gate_built.append((r_load, t_f))
        return gate_terms(params, r_load, t_f)

    def amp_counted(gate, i_amp):
        amp_built.append((gate[17], i_amp, gate[9]))
        return amplitude_consts(gate, i_amp)

    monkeypatch.setattr(control, "_gate_terms", gate_counted)
    monkeypatch.setattr(control, "_amplitude_consts", amp_counted)
    rec = closed_loop_run(sc, gains, vp_fast)
    monkeypatch.undo()
    t, v_sample, v_mean, duty = replay(sc, gains, vp_fast)
    assert np.array_equal(rec.t, t)
    assert np.array_equal(rec.v_o_sample, v_sample)
    assert np.array_equal(rec.v_o_mean, v_mean)
    assert np.array_equal(rec.duty, duty)
    # the gate terms: one build at the start and one for each change of
    # the load or of the fed-forward gate delay; the amplitude terms: one
    # at the start and one for each change of any of the three, each on the
    # gate terms of its cycle (load and delay read back from them)
    live = [(control._eval_profile(sc.r_load, t_n),
             control._eval_profile(sc.i_ls_amp, t_n),
             feedforward_tf(control._eval_profile(sc.v_ref, t_n), sc.i_ls_ff,
                            vp_fast)) for t_n in t]
    gate_live = [(r, t_f) for r, _, t_f in live]
    assert amp_built == live[:1] + [b for a, b in zip(live, live[1:])
                                    if a != b]
    assert gate_built == gate_live[:1] + [
        b for a, b in zip(gate_live, gate_live[1:]) if a != b]
    changes, gate_changes = len(amp_built) - 1, len(gate_built) - 1
    assert {"load_step": (gate_changes, changes) == (1, 1),
            "amplitude_ramp": gate_changes == 0 and changes >= 500,
            "startup": changes == 0,
            "reference_step_down": (gate_changes, changes) == (1, 1),
            "all_three_step": (len(gate_built), len(amp_built)) == (2, 2)
            }[case]
    pinned = {"startup": gains.d_min,
              "reference_step_down": gains.d_max}.get(case)
    if pinned is not None:
        assert np.sum(duty == pinned) >= 50 and duty[-1] != pinned


@pytest.mark.parametrize("case,k_settle", [
    ("never", None), ("at_once", 0), ("late", 30)])
def test_settling_time_is_the_cycle_after_the_last_out_of_band(case,
                                                               k_settle):
    # +-1% band around the mean of the last 5 of 100 cycles
    v_mean = {"never": np.append(np.ones(99), 2.0),
              "at_once": np.ones(100),
              "late": np.append(np.full(30, 5.0), np.ones(70))}[case]
    t = np.arange(100) * 1e-3
    sc = Scenario(name=case, duration=0.1, r_load=38.09, i_ls_amp=2.35,
                  v_ref=1.0, i_ls_ff=2.35, v_o0=1.0, initial_integrator=0.6)
    rec = control._summarize(sc, t, v_mean, v_mean, np.full(100, 0.6))
    if k_settle is None:
        assert math.isnan(rec.settling_time)
    else:
        assert rec.settling_time == t[k_settle]


# ---------------------------------------------------------------------------
# closed-loop orbit, at fig17's load (10 W at 24 V) and feedforward amplitude
# ---------------------------------------------------------------------------

def _sweep_point(vp, i_amp, i_ff=1.40):
    p = vp.with_load(57.6).with_amplitude(i_amp)
    return p, design_gains(p, 24.0, i_ff, 1000.0)


# at 2 A with the gate delay fed forward from 2.2 A the gate fires before
# the switch voltage has fallen, so that orbit is hard-switched
@pytest.mark.parametrize("i_amp,i_ff", [(1.45, 1.40), (2.6, 1.40),
                                        (2.0, 2.2)])
def test_closed_loop_orbit_is_a_fixed_point(vp, i_amp, i_ff):
    # one PI update and one cycle from the orbit, with the integrator at
    # the orbit's duty, land back on it; the orbit's own one-cycle run is
    # that cycle
    p, gains = _sweep_point(vp, i_amp, i_ff)
    orbit = control.closed_loop_orbit(p, 24.0, i_ff, gains)
    assert not orbit.regulation_failed
    assert gains.d_min < orbit.duty < gains.d_max
    x = orbit.state
    assert abs(24.0 - x.v_o) <= V_ORBIT_TOL  # the sampled error
    duty, integrator, _ = pi_at(x.v_o, 24.0, gains, p.t_period,
                                orbit.duty, orbit.duty, False)
    one = run(p, ModulationCommand(duty, feedforward_tf(24.0, i_ff, p)), 1,
              x)
    nxt, replayed = one.final_state, one.columns
    assert abs(nxt.v_o - x.v_o) <= V_ORBIT_TOL
    assert abs(nxt.v_cd1 - x.v_cd1) <= V_ORBIT_TOL
    assert abs(integrator - orbit.duty) <= V_ORBIT_TOL
    assert orbit.residual <= V_ORBIT_TOL
    c = orbit.cycle.columns
    assert abs(orbit.cycle.final_state.v_o - x.v_o) <= V_ORBIT_TOL
    assert abs(orbit.cycle.final_state.v_cd1 - x.v_cd1) <= V_ORBIT_TOL
    assert replayed.v_o_mean[0] == c.v_o_mean[0]
    assert replayed.zvs_ok[0] == c.zvs_ok[0] == (i_amp > i_ff)
    if i_amp > i_ff:  # soft-switched: the cycle's ledger closes
        d = cycle_diagnostics(orbit.cycle)
        residual = (d.e_in + d.e_node_tracking - d.e_load - d.de_stored
                    - c.e_hard_switch)
        assert abs(residual[0]) <= 1e-9 * max(d.e_in[0], 1e-12)
    assert 0.0 < orbit.spectral_radius < 1.0
    assert orbit.cycles < 30  # 13 to 18 cycles measured


@pytest.mark.parametrize("i_amp", [1.45, 2.6])
def test_spectral_radius_is_the_measured_decay(vp, i_amp):
    # started 1e-3 off the orbit in the integrator, the sampled error
    # decays at the spectral radius once the crossover-rate modes have died
    # out; between cycles 1000 and 3000, 1 - rate matched 1 - rho to
    # 6.2e-8 (1.45 A) and 1.6e-9 (2.6 A) relative
    p, gains = _sweep_point(vp, i_amp)
    orbit = control.closed_loop_orbit(p, 24.0, 1.40, gains)
    sc = Scenario(name="off_orbit", duration=3001 * p.t_period,
                  r_load=p.r_load, i_ls_amp=i_amp, v_ref=24.0, i_ls_ff=1.40,
                  v_o0=orbit.state.v_o, initial_integrator=orbit.duty + 1e-3)
    e = closed_loop_run(sc, gains, p).v_o_sample - 24.0
    rate = (e[3000] / e[1000]) ** (1.0 / 2000)
    rho = orbit.spectral_radius
    assert abs(rate - rho) <= 1e-5 * (1.0 - rho)


@pytest.mark.parametrize("window,side", [
    ({"d_max": 0.6}, 1.0), ({"d_max": 0.633}, 1.0), ({"d_min": 0.65}, -1.0)])
def test_orbit_outside_the_duty_window_is_a_regulation_failure(vp, window,
                                                               side):
    # at 2.6 A the loop needs d* = 0.6331; a window without it gives the
    # open-loop orbit at the nearer bound, flagged, not an exception.  A
    # lower duty raises the output, so below the window v_o ends above v_ref.
    p, gains = _sweep_point(vp, 2.6)
    orbit = control.closed_loop_orbit(p, 24.0, 1.40,
                                      dataclasses.replace(gains, **window))
    assert orbit.regulation_failed
    assert orbit.duty == next(iter(window.values()))
    assert side * (orbit.state.v_o - 24.0) > 1e-4
    assert orbit.residual <= V_ORBIT_TOL
    assert 0.0 < orbit.spectral_radius < 1.0


# fig7.cfg at a light load: 10 kOhm and 0.5 A, fed forward from 1 A
def _light_load_point(vp_fig7):
    p = vp_fig7.with_load(10e3).with_amplitude(0.5)
    return p, design_gains(p, 24.0, 1.0, 1000.0)


def test_closed_loop_orbit_without_state_v(vp_fig7):
    # the orbit never reaches State V, so v_cd1 starts at its own fixed
    # point; the duty secant this solve replaced raised ZeroDivisionError
    # here (measured: duty 0.75181, rho = 0.999995)
    p, gains = _light_load_point(vp_fig7)
    orbit = control.closed_loop_orbit(p, 24.0, 1.0, gains)
    assert not orbit.regulation_failed
    x = orbit.state
    assert x.v_cd1 > 0.0
    assert not orbit.cycle.columns.reached_state_v[0]
    one = run(p, ModulationCommand(orbit.duty, feedforward_tf(24.0, 1.0, p)),
              1, x)
    assert abs(one.final_state.v_o - x.v_o) <= V_ORBIT_TOL
    assert abs(one.final_state.v_cd1 - x.v_cd1) <= V_ORBIT_TOL
    assert orbit.residual <= V_ORBIT_TOL
    assert 0.0 < orbit.spectral_radius < 1.0


def test_closed_loop_orbit_failure_names_amplitude_and_duty(vp_fig7,
                                                            monkeypatch):
    # v_cd1's start settles in 3 to 4 cycles here, where State V is not
    # reached; capped at 2 it stops at the window's upper bound, the first
    # such duty tried (the lower bound reaches State V)
    monkeypatch.setattr(simulator, "_MAX_ORBIT_ITER", 2)
    p, gains = _light_load_point(vp_fig7)
    with pytest.raises(NoConvergence, match=r"i_ls_amp = 0\.5 A") as exc:
        control.closed_loop_orbit(p, 24.0, 1.0, gains)
    assert str(exc.value).endswith(f" at duty {gains.d_max!r}")


def test_spectral_radius_matches_lapack():
    # the closed-form radius against np.linalg.eigvals on seeded 3x3
    # matrices over six decades of scale, a fifth with a zero column (a soft
    # orbit's v_cd1 column) and a fifth with a zero last row and column (a
    # failed orbit's); where the eigenvalues are apart by 1e-3 or more of
    # the radius, they agreed to 1.5e-14 relative
    rng = np.random.default_rng(7)
    for _ in range(2000):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.2:
            m[:, 1] = 0.0
        elif rng.random() < 0.25:
            m[2] = m[:, 2] = 0.0
        ev = np.linalg.eigvals(m)
        rho = max(abs(ev))
        if min(abs(ev[i] - ev[j]) for i in range(3)
               for j in range(i + 1, 3)) < 1e-3 * rho:
            continue
        assert abs(control._spectral_radius(m) - rho) <= 1e-12 * rho
    # row-stochastic, and its negative: the eigenvalue +-1 sits on the
    # row-sum bound, where the characteristic cubic rounds to either sign
    for _ in range(2000):
        m = rng.random((3, 3))
        m *= rng.choice((-1.0, 1.0)) / m.sum(axis=1, keepdims=True)
        assert abs(control._spectral_radius(m) - 1.0) <= 1e-12
