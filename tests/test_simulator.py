"""Switched five-interval simulator: timing parity, ledgers, invariants."""

import dataclasses
import math

import numpy as np
import pytest

from wptrx import cli, simulator
from wptrx.analytic import (OperatingPoint, duty_bounds, fall_time_exact,
                            rise_time, solve_operating_point)
from wptrx.averaged import averaged_rhs
from wptrx.errors import (GateOverrun, InvalidDuty, NoConvergence,
                          NonPeriodicWindow, NonPositiveParameter)
from wptrx.params import ReceiverParams, ripple_estimate, validate
from wptrx.simulator import (V_ORBIT_TOL, ModulationCommand,
                             SwitchCycleState, Waveform,
                             periodic_steady_state, run,
                             soft_switching_report, spectrum, step_cycle)

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
    return ModulationCommand.make(duty, fall_time_exact(vp, v_o) + margin,
                                  vp.f_s)


def steady_soft_run(vp, duty=0.532, n=300):
    op = solve_operating_point(vp, duty, exact=True)
    cmd = ModulationCommand.make(duty, fall_time_exact(vp, op.v_o), vp.f_s)
    return run(vp, cmd, n, v_o0=op.v_o), cmd, op


# ---------------------------------------------------------------------------
# step_cycle basics
# ---------------------------------------------------------------------------

def test_prototype_cycle_soft_switching(vp):
    # at the nominal 24 V output the natural commutation takes ~386 ns
    st = SwitchCycleState(24.0)
    st2, d24, _ = step_cycle(st, exact_cmd(vp, 0.532, 24.0, margin=1e-10),
                             vp)
    assert d24.zvs_ok and d24.zcs_ok and not d24.hard_switched
    assert d24.t_f_meas == pytest.approx(386e-9, abs=1e-9)
    # at the self-consistent operating point the measured fall time matches
    # the exact prediction for the entry voltage
    res, cmd, op = steady_soft_run(vp, n=50)
    d = res.diagnostics[-1]
    assert d.zvs_ok and d.zcs_ok and not d.hard_switched
    assert d.t_f_meas == pytest.approx(
        fall_time_exact(vp, d.v_o_start), abs=1e-10)


def test_zero_source_cycle(vp):
    p0 = vp.with_amplitude(0.0)
    st = SwitchCycleState(24.0)
    cmd = ModulationCommand.make(0.5, 382e-9, vp.f_s)
    st2, d, piece = step_cycle(st, cmd, p0)
    assert math.isnan(d.t_f_meas) and math.isnan(d.t_r_meas)
    assert not d.zcs_ok
    # no natural commutation events in the log
    names = {name for _, name in piece.events}
    assert "cs1_zero" not in names and "cd1_zero" not in names
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
    st2, d, piece = step_cycle(st, ModulationCommand.make(0.532, 0.0,
                                                          vp.f_s), vp)
    assert not d.zvs_ok and d.hard_switched
    assert d.e_hard_switch == pytest.approx(0.5 * vp.c_s1 * 24.0 ** 2,
                                            rel=1e-12)
    assert ("hard_switch" in {n for _, n in piece.events})
    assert math.isnan(d.t_f_meas)


def test_invalid_commands(vp):
    st = SwitchCycleState(24.0)
    with pytest.raises(InvalidDuty):
        step_cycle(st, ModulationCommand.make(1.2, 0.0, vp.f_s), vp)
    with pytest.raises(GateOverrun):
        step_cycle(st, ModulationCommand.make(0.95, 0.3e-6, vp.f_s), vp)
    # a NaN gate delay used to run through and return v_o = NaN
    for t_f in (math.nan, -1e-9):
        with pytest.raises(NonPositiveParameter):
            step_cycle(st, ModulationCommand.make(0.532, t_f, vp.f_s), vp)


def test_run_rejects_bad_start_voltage(vp):
    # a NaN start voltage used to run through and return a NaN trajectory
    cmd = ModulationCommand.make(0.532, 386e-9, vp.f_s)
    for v_o0 in (math.nan, -1.0):
        with pytest.raises(NonPositiveParameter):
            run(vp, cmd, 3, v_o0=v_o0)


def test_single_cycle_from_zero_monotone_conduction(vp):
    st = SwitchCycleState(0.0)
    cmd = ModulationCommand.make(0.532, 386e-9, vp.f_s)
    st2, d, piece = step_cycle(st, cmd, vp)
    res = run(vp, cmd, 1, v_o0=0.0, sample_rate=256 * vp.f_s)
    wf = res.waveform
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
    cmd = ModulationCommand.make(0.532, op.t_f, vp.f_s)
    res = run(vp, cmd, 4000, v_o0=op.v_o)
    assert res.diagnostics[-1].v_o_mean == pytest.approx(op.v_o, rel=0.01)


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
    d = res.diagnostics[-1]
    pp_oracle = ripple_oracle(vp, d.v_o_mean, vp.omega * d.t_f_meas)
    assert d.v_o_ripple_pp == pytest.approx(pp_oracle, rel=0.02)


@pytest.mark.xfail(strict=True, reason=(
    "the half-cycle charge bound ignores the load current drawn during the "
    "rise window; at the loaded prototype point the true peak-to-peak "
    "ripple is ~60% of |I|/(pi*f_s*C_o), so the +-10% parity claim cannot "
    "hold; the charge-balance oracle test above carries the real check"))
def test_ripple_within_10pct_of_estimate(vp):
    res, cmd, op = steady_soft_run(vp, n=400)
    d = res.diagnostics[-1]
    bound = ripple_estimate(vp.i_ls_amp, vp.f_s, vp.c_o)
    assert d.v_o_ripple_pp == pytest.approx(bound, rel=0.10)


def test_averaged_parity_during_slow_transient(vp):
    # the gate delay tracks the commutation need while the output climbs,
    # so the conduction window matches the averaged model's cycle by cycle
    p = dataclasses.replace(vp, c_o=100e-6)
    op = solve_operating_point(p, 0.55, exact=True)

    def tracking(n, state):
        return ModulationCommand.make(
            0.55, fall_time_exact(p, state.v_o) + 1e-12, p.f_s)

    res = run(p, tracking, 400, v_o0=0.9 * op.v_o)
    diags = res.diagnostics
    checked = 0
    for a, b in zip(diags[50:-1], diags[51:]):
        dv = b.v_o_mean - a.v_o_mean
        if abs(dv) > 1e-3 * a.v_o_mean or abs(dv) < 1e-7:
            continue
        rate_sim = dv / p.t_period
        rate_avg = averaged_rhs(a.v_o_mean, 0.55, p.f_s * a.t_f_meas, p)
        assert rate_sim == pytest.approx(rate_avg, rel=0.02)
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# invariants: sequence, charge, energy, stress, commutation parity
# ---------------------------------------------------------------------------

def test_state_sequence_legality(vp):
    res, cmd, op = steady_soft_run(vp, n=40)
    for d in res.diagnostics:
        assert d.states_visited == (1, 2, 3, 4, 5)
    # event order within a cycle
    for piece in res.pieces[1:]:
        order = [n for _, n in sorted(piece.events, key=lambda e: e[0])]
        assert order.index("cycle_start") < order.index("cs1_zero")
        assert order.index("cs1_zero") <= order.index("gate_on")
        assert order.index("gate_on") < order.index("ils_zero")
        assert order.index("ils_zero") < order.index("gate_off")
        assert order.index("gate_off") < order.index("cd1_zero")


def test_charge_balance(vp_stiff):
    v_o = 24.0
    st = SwitchCycleState(v_o)
    cmd = exact_cmd(vp_stiff, 0.532, v_o)
    st2, d, _ = step_cycle(st, cmd, vp_stiff)
    q_expect = vp_stiff.c_sum * v_o
    assert d.q_f == pytest.approx(q_expect, rel=1e-9)
    assert d.q_r == pytest.approx(q_expect, rel=1e-9)
    assert d.q_f == pytest.approx(d.q_r, rel=1e-9)


def test_energy_audit_closes(vp):
    # transient run: every soft cycle's ledger must close to 1e-9 relative
    op = solve_operating_point(vp, 0.532, exact=True)
    cmd = ModulationCommand.make(0.532, fall_time_exact(vp, op.v_o) + 5e-9,
                                 vp.f_s)
    res = run(vp, cmd, 200, v_o0=0.8 * op.v_o)
    for d in res.diagnostics:
        assert not d.hard_switched
        residual = (d.e_in + d.e_node_tracking - d.e_load - d.de_stored
                    - d.e_hard_switch)
        assert abs(residual) <= 1e-9 * max(d.e_in, 1e-12)
        # the clamp-convention artifact flow stays tiny
        assert abs(d.e_node_tracking) <= 1e-4 * max(d.e_in, 1e-12)


def test_steady_state_efficiency_is_unity(vp):
    res, cmd, op = steady_soft_run(vp, n=400)
    d = res.diagnostics[-1]
    assert d.e_load / d.e_in == pytest.approx(1.0, abs=1e-4)
    assert d.e_hard_switch == 0.0


def test_hard_cycle_residual_equals_merge_loss(vp):
    st = SwitchCycleState(24.0)
    st2, d, _ = step_cycle(st, ModulationCommand.make(0.532, 0.0, vp.f_s),
                           vp)
    residual = (d.e_in + d.e_node_tracking - d.e_load - d.de_stored
                - d.e_hard_switch)
    w = d.v_cs1_at_gate
    merge = 0.5 * (vp.c_d1 * vp.c_o / (vp.c_d1 + vp.c_o)) * w * w
    assert -residual == pytest.approx(merge, rel=1e-9)


def test_device_stress_bounded_by_output(vp):
    res, cmd, op = steady_soft_run(vp, n=100)
    for d in res.diagnostics:
        # exact bound: neither device ever sees more than the instantaneous
        # output voltage
        assert d.v_cs1_peak <= d.v_o_max + 1e-6
        assert d.v_cd1_peak <= d.v_o_max + 1e-6
        # mean + pp/2 summary: the ripple is slightly asymmetric about its
        # time-average (the decay phase dwells near the minimum), so the
        # cycle mean sits a percent-of-ripple below the midpoint
        cap = d.v_o_mean + 0.5 * d.v_o_ripple_pp + 0.02 * d.v_o_ripple_pp
        assert d.v_cs1_peak <= cap
        assert d.v_cd1_peak <= cap


def test_commutation_time_parity(vp_stiff):
    v_o = 24.0
    cmd = exact_cmd(vp_stiff, 0.532, v_o, margin=1e-12)
    st = SwitchCycleState(v_o)
    st2, d, _ = step_cycle(st, cmd, vp_stiff)
    t_f_pred = fall_time_exact(vp_stiff, v_o)
    assert abs(d.t_f_meas - t_f_pred) <= 1e-10
    op = OperatingPoint(duty=0.532, t_f=t_f_pred, v_o=v_o,
                        phase_delay_norm=vp_stiff.f_s * t_f_pred)
    assert abs(d.t_r_meas - rise_time(vp_stiff, op)) <= 1e-10


def test_diode_turns_off_on_the_zero_crossing(vp):
    res, cmd, op = steady_soft_run(vp, n=20)
    # the freewheel interval ends exactly at the cycle boundary, where the
    # coil current is zero by construction
    i_end = vp.i_ls_amp * math.sin(vp.omega * vp.t_period)
    assert abs(i_end) < 1e-9
    assert all(d.zcs_ok for d in res.diagnostics)


# ---------------------------------------------------------------------------
# waveform capture, channels, spectrum
# ---------------------------------------------------------------------------

def test_waveform_channel_invariants(vp):
    res, cmd, op = steady_soft_run(vp, n=8)
    cap = run(vp, cmd, 8, initial=res.final_state,
              sample_rate=512 * vp.f_s)
    wf = cap.waveform
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
    times = [t for t, _ in res.events]
    assert all(b > a for a, b in zip(times, times[1:]))
    allowed = {"gate_on", "gate_off", "cs1_zero", "cd1_zero", "ils_zero",
               "cycle_start", "hard_switch"}
    assert {n for _, n in res.events} <= allowed


def test_conduction_samples_satisfy_ode(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 2, initial=res.final_state,
              sample_rate=4096 * vp.f_s)
    wf = cap.waveform
    dt = 1.0 / wf.sample_rate
    mid = slice(1, -1)
    dv = (wf.v_o[2:] - wf.v_o[:-2]) / (2 * dt)
    cond = ((wf.state == 2) | (wf.state == 3))[mid]
    same_seg = (wf.state[2:] == wf.state[:-2])[...]
    ok = cond & same_seg
    rhs = (wf.i_ls[mid] - wf.v_o[mid] / vp.r_load) / vp.c_o
    err = np.abs(dv[ok] - rhs[ok])
    assert np.max(err) / np.max(np.abs(rhs[ok])) < 1e-3


def test_spectrum_of_ideal_square_wave(vp):
    # inject a synthetic square channel; the fundamental follows
    # (2A/pi) sin(pi d) and every sampled harmonic follows the discrete
    # Dirichlet coefficient exactly
    duty_high = 0.468
    amp = 24.0
    n_per = 32
    spc = 256
    n_on = round(duty_high * spc)  # 120 samples high per period
    t = np.arange(n_per * spc) / (spc * vp.f_s)
    y = amp * ((np.arange(n_per * spc) % spc) < n_on)
    wf = Waveform(t=t, i_ls=y, v_cs1=y, v_cd1=y, v_o=y,
                  gate=np.zeros_like(t, dtype=np.int8),
                  state=np.ones_like(t, dtype=np.int8), events=[],
                  sample_rate=spc * vp.f_s)
    res = spectrum(wf, "v_o", 12, vp.f_s)
    expect = 2 * amp / math.pi * math.sin(math.pi * duty_high)
    assert res.fundamental == pytest.approx(expect, abs=0.1)
    assert res.fundamental == pytest.approx(15.2, abs=0.1)
    for k, a, _ in res.harmonics:
        exact_k = (2 * amp / spc) * abs(math.sin(math.pi * k * n_on / spc)
                                        / math.sin(math.pi * k / spc))
        assert a == pytest.approx(exact_k, abs=1e-9)


def test_spectrum_source_current_is_pure(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 32, initial=res.final_state,
              sample_rate=256 * vp.f_s)
    sp = spectrum(cap.waveform, "i_ls", 10, vp.f_s)
    assert sp.thd < 1e-12
    assert sp.fundamental == pytest.approx(vp.i_ls_amp, rel=1e-12)


def test_spectrum_rejects_bad_windows(vp):
    res, cmd, op = steady_soft_run(vp, n=4)
    cap = run(vp, cmd, 8, initial=res.final_state,
              sample_rate=256 * vp.f_s)
    with pytest.raises(NonPeriodicWindow):
        spectrum(cap.waveform, "v_cd1", 10, vp.f_s)  # only 8 periods
    cap32 = run(vp, cmd, 32, initial=res.final_state,
                sample_rate=256 * vp.f_s)
    wf = cap32.waveform
    clipped = Waveform(t=wf.t[:-7], i_ls=wf.i_ls[:-7], v_cs1=wf.v_cs1[:-7],
                       v_cd1=wf.v_cd1[:-7], v_o=wf.v_o[:-7],
                       gate=wf.gate[:-7], state=wf.state[:-7], events=[],
                       sample_rate=wf.sample_rate)
    with pytest.raises(NonPeriodicWindow):
        spectrum(clipped, "v_cd1", 10, vp.f_s)


def test_waveform_export_format(tmp_path, vp):
    res, cmd, op = steady_soft_run(vp, n=2)
    cap = run(vp, cmd, 1, initial=res.final_state, sample_rate=16 * vp.f_s)
    path = tmp_path / "wave.csv"
    cap.waveform.save_table(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    first = lines[1].split(",")
    assert len(first) == 7
    # 12 significant digits, scientific notation
    assert "e" in first[0] and len(first[0].split("e")[0].replace("-", "")
                                   .replace(".", "")) == 12
    epath = tmp_path / "events.csv"
    cap.waveform.save_events(epath)
    elines = epath.read_text().splitlines()
    assert elines[0] == "t,event"


# ---------------------------------------------------------------------------
# soft-switching summary
# ---------------------------------------------------------------------------

def test_soft_switching_sweep_across_duty_window(vp):
    lo, hi = duty_bounds(0.078)
    all_diags = []
    for duty in np.linspace(lo + 0.01, hi - 0.01, 7):
        op = solve_operating_point(vp, float(duty), exact=True)
        cmd = ModulationCommand.make(float(duty),
                                     fall_time_exact(vp, op.v_o), vp.f_s)
        res = run(vp, cmd, 30, v_o0=op.v_o)
        all_diags.extend(res.diagnostics)
    rep = soft_switching_report(all_diags)
    assert rep.zvs_fraction == 1.0
    assert rep.zcs_fraction == 1.0
    assert rep.total_e_hard_switch == 0.0


def test_soft_switching_report_counts_hard_cycles(vp):
    cmd = ModulationCommand.make(0.532, 0.0, vp.f_s)
    res = run(vp, cmd, 20, v_o0=24.0)
    rep = soft_switching_report(res.diagnostics)
    assert rep.zvs_fraction == 0.0
    assert rep.worst_v_cs1_at_gate > 1.0
    assert rep.total_e_hard_switch > 0.0


def test_steady_state_detection_flag(vp):
    op = solve_operating_point(vp, 0.532, exact=True)
    cmd = ModulationCommand.make(0.532, fall_time_exact(vp, op.v_o), vp.f_s)
    warm = run(vp, cmd, 60, v_o0=op.v_o)
    assert warm.steady_detected and warm.steady_cycle is not None
    cold = run(vp, cmd, 5, v_o0=0.0)
    assert not cold.steady_detected and cold.steady_cycle is None


# ---------------------------------------------------------------------------
# periodic steady state (shooting on the one-cycle map)
# ---------------------------------------------------------------------------

def fig13_cmd(vp):
    """Duty and measured delay f_s*t_f of the shipped table2 config."""
    return ModulationCommand.make(0.532, 0.0672 / vp.f_s, vp.f_s)


def one_cycle_change(vp, cmd, state):
    nxt = step_cycle(state, cmd, vp)[0]
    return max(abs(nxt.v_o - state.v_o), abs(nxt.v_cd1 - state.v_cd1))


def test_periodic_steady_state_soft_and_hard(vp):
    hard = fig13_cmd(vp)
    soft = exact_cmd(vp, 0.532, 24.6, margin=20e-9)
    for cmd, is_hard in ((hard, True), (soft, False)):
        orbit = periodic_steady_state(vp, cmd, 24.0)
        assert orbit.residual <= V_ORBIT_TOL
        assert one_cycle_change(vp, cmd, orbit.state) == orbit.residual
        assert orbit.cycles <= 12
        d = step_cycle(orbit.state, cmd, vp)[1]
        assert d.hard_switched == is_hard and d.reached_state_v
    with pytest.raises(NonPositiveParameter):
        periodic_steady_state(vp, hard, math.nan)


def test_periodic_steady_state_at_the_soft_hard_kink(vp):
    # locate the gate delay at which the orbit's natural commutation meets
    # the gate edge: P has a kink there (w_resid -> 0 from the hard side)
    def orbit_at(t_f):
        cmd = ModulationCommand.make(0.532, t_f, vp.f_s)
        orbit = periodic_steady_state(vp, cmd, 24.0)
        assert orbit.residual <= V_ORBIT_TOL
        return orbit.state.v_o, step_cycle(orbit.state, cmd, vp)[1]

    t_gate = fall_time_exact(vp, 24.0)
    lo, hi = 0.98 * t_gate, 1.02 * t_gate
    assert orbit_at(lo)[1].hard_switched
    assert not orbit_at(hi)[1].hard_switched
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if orbit_at(mid)[1].hard_switched:
            lo = mid
        else:
            hi = mid
    # the orbit is continuous across the kink
    (v_lo, d_lo), (v_hi, _) = orbit_at(lo), orbit_at(hi)
    assert d_lo.v_cs1_at_gate < 1e-6
    assert v_hi == pytest.approx(v_lo, abs=1e-6)


def test_periodic_steady_state_from_cycles_without_state_v(vp):
    # D + f_s*t_f = 0.99: from 24 V the node never swings back to zero, so
    # v_cd1 carries over between cycles; the orbit itself sits near 0 V
    cmd = ModulationCommand.make(0.96, 0.03 / vp.f_s, vp.f_s)
    first = step_cycle(SwitchCycleState(24.0), cmd, vp)
    assert not first[1].reached_state_v and first[0].v_cd1 > 0.0
    orbit = periodic_steady_state(vp, cmd, 24.0)
    assert orbit.residual <= V_ORBIT_TOL
    assert 0.0 < orbit.state.v_o < 0.1
    # an orbit that never reaches State V: the load keeps v_o beyond the
    # node swing 2|I|/(omega*C_sum), so v_cd1 is a true second coordinate
    high = vp.with_load(3000.0)
    cmd_h = ModulationCommand.make(0.3, 0.02 / vp.f_s, vp.f_s)
    orbit_h = periodic_steady_state(high, cmd_h, 400.0)
    assert orbit_h.residual <= V_ORBIT_TOL
    d = step_cycle(orbit_h.state, cmd_h, high)[1]
    assert not d.reached_state_v and orbit_h.state.v_cd1 > 0.0


def test_long_run_approaches_the_solved_orbit(vp):
    # the fixed 8000-cycle settle that fig13 and fig14 used to run ended
    # at 24.144 V; continuing from there creeps monotonically toward the
    # solved orbit at the linearized rate
    cmd = fig13_cmd(vp)
    v_star = periodic_steady_state(vp, cmd, 24.0).state.v_o
    res = run(vp, cmd, 2000, v_o0=24.144)
    ends = np.array([24.144] + [d.v_o_end for d in res.diagnostics])
    steps = np.diff(ends)
    assert np.all(steps > 0.0) and ends[-1] < v_star
    # geometric decay: extrapolating the remaining steps lands on v_star
    rho = (steps[-1] / steps[0]) ** (1.0 / (len(steps) - 1))
    limit = ends[-1] + steps[-1] * rho / (1.0 - rho)
    assert limit == pytest.approx(v_star, abs=1e-6)


def test_fig13_capture_is_steady():
    vp13, cap = cli._steady_va_run(cli._builtin_config("table2"), 4)
    means = [d.v_o_mean for d in cap.diagnostics]
    assert max(means) - min(means) <= 1e-9
    assert cap.diagnostics[0].v_o_start == pytest.approx(24.352, abs=1e-3)


def test_failed_orbit_solve_names_its_command(vp, monkeypatch):
    monkeypatch.setattr(simulator, "_MAX_ORBIT_ITER", 0)
    cmd = ModulationCommand.make(0.532, 336e-9, vp.f_s)
    with pytest.raises(NoConvergence) as err:
        periodic_steady_state(vp, cmd, 24.0)
    msg = str(err.value)
    assert "duty=0.532" in msg and "t_f=3.36e-07" in msg
    assert "residual" in msg
