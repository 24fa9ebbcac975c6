"""Cycle-averaged model: exact segments against a Runge-Kutta oracle."""

import math

import numpy as np
import pytest

from wptrx import averaged
from wptrx.analytic import optimal_duty, solve_operating_point, steady_state_vo
from wptrx.averaged import (AveragedState, DutySchedule, averaged_rhs,
                            integrate_averaged, vo_vs_duty_curve)
from wptrx.errors import NonPositiveParameter
from wptrx.params import ReceiverParams, validate
from wptrx.simulator import ModulationCommand, run


@pytest.fixture(scope="module")
def vp():
    # lighter output capacitor than the prototype so time constants stay
    # test-friendly
    return validate(ReceiverParams(l_s=172e-6, c_s=3.6817e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=100e-6, r_load=30.0,
                                   f_s=200e3, i_ls_amp=1.0))


def rk4_oracle(schedule, v0, t_grid, vp):
    """Classic fixed-step RK4 run strictly inside constant-command spans."""
    knots = sorted(set(schedule.times) | set(t_grid))
    v = v0
    out = {t_grid[0]: v0} if t_grid[0] == knots[0] else {}
    for a, b in zip(knots, knots[1:]):
        duty, fst = schedule.eval(a)
        n = max(20, int((b - a) / 2e-7))
        h = (b - a) / n
        for _ in range(n):
            k1 = averaged_rhs(v, duty, fst, vp)
            k2 = averaged_rhs(v + h * k1 / 2, duty, fst, vp)
            k3 = averaged_rhs(v + h * k2 / 2, duty, fst, vp)
            k4 = averaged_rhs(v + h * k3, duty, fst, vp)
            v = v + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        out[b] = v
    return out


def test_rhs_zero_at_fixed_point(vp):
    v_ss = steady_state_vo(vp.i_ls_amp, vp.r_load, 0.55, 0.1)
    assert averaged_rhs(v_ss, 0.55, 0.1, vp) == pytest.approx(0.0, abs=1e-10)


def test_rhs_no_load_discharge_start(vp):
    assert averaged_rhs(0.0, 0.5, 0.0, vp) == pytest.approx(
        vp.i_ls_amp / (math.pi * vp.c_o), rel=1e-12)


def test_rhs_affine_in_vo():
    vp2 = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                  c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                  f_s=200e3, i_ls_amp=2.35))
    v_ss = steady_state_vo(2.35, 38.09, 0.532, 0.0672)
    rate = averaged_rhs(20.0, 0.532, 0.0672, vp2)
    assert rate == pytest.approx((v_ss - 20.0) / (38.09 * 1000e-6), rel=1e-9)
    assert rate > 0


def test_constant_duty_flat_at_fixed_point(vp):
    v_ss = steady_state_vo(vp.i_ls_amp, vp.r_load, 0.55, 0.1)
    traj = integrate_averaged(AveragedState(v_o=v_ss, t=0.0),
                              DutySchedule.constant(0.55, 0.1), 10e-3, vp,
                              sample_dt=1e-4)
    assert np.max(np.abs(traj.v_o - v_ss)) < 1e-9


def test_duty_step_time_constant(vp):
    sched = DutySchedule((0.0, 2e-3), (0.55, 0.65), (0.1, 0.1))
    traj = integrate_averaged(AveragedState(
        v_o=steady_state_vo(1.0, 30.0, 0.55, 0.1), t=0.0), sched, 20e-3, vp,
        sample_dt=2e-5)
    post = traj.t >= 2e-3
    v0 = traj.v_o[post][0]
    v_inf = steady_state_vo(1.0, 30.0, 0.65, 0.1)
    resid = (traj.v_o[post] - v_inf) / (v0 - v_inf)
    # exponential fit: log-residual slope equals -1/(R*C_o)
    t_rel = traj.t[post] - traj.t[post][0]
    keep = resid > 1e-6
    slope = np.polyfit(t_rel[keep], np.log(resid[keep]), 1)[0]
    assert -1 / slope == pytest.approx(vp.r_load * vp.c_o, rel=1e-3)


def test_zero_source_pure_rc_decay(vp):
    p0 = vp.with_amplitude(0.0)
    traj = integrate_averaged(AveragedState(v_o=24.0, t=0.0),
                              DutySchedule.constant(0.5, 0.0), 5e-3, p0,
                              sample_dt=1e-4)
    expect = 24.0 * np.exp(-traj.t / (p0.r_load * p0.c_o))
    assert np.max(np.abs(traj.v_o - expect)) < 1e-9


def test_exact_segments_match_rk4(vp):
    rng = np.random.default_rng(11)
    for _ in range(3):
        times = [0.0] + sorted(rng.uniform(1e-3, 9e-3, 3).tolist())
        duties = (0.45 + 0.3 * rng.random(4)).tolist()
        fsts = (0.03 + 0.1 * rng.random(4)).tolist()
        sched = DutySchedule(times, duties, fsts)
        t_grid = np.linspace(0.0, 10e-3, 21)
        traj = integrate_averaged(AveragedState(v_o=5.0, t=0.0), sched,
                                  10e-3, vp, sample_dt=0.5e-3)
        oracle = rk4_oracle(sched, 5.0, t_grid.tolist(), vp)
        for t in t_grid:
            k = int(round(t / 0.5e-3))
            assert traj.v_o[k] == pytest.approx(oracle[t], rel=1e-9)


def test_negative_sink_is_clamped(vp):
    # beyond the admissible window the averaged drive can go negative;
    # the output is floored at zero and flagged
    sched = DutySchedule.constant(0.97, 0.02)
    traj = integrate_averaged(AveragedState(v_o=0.5, t=0.0), sched, 50e-3,
                              vp, sample_dt=1e-3)
    assert traj.clamped
    assert np.min(traj.v_o) >= 0.0


def test_duty_curve_rows_consistent():
    vp2 = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                  c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                  f_s=200e3, i_ls_amp=2.35))
    rows = vo_vs_duty_curve(vp2, [20.0, 38.09], [0.5, 0.55, 0.6])
    for r in rows:
        assert r.v_o == pytest.approx(
            steady_state_vo(2.35, r.r_load, r.duty, vp2.f_s * r.t_f),
            abs=1e-5)


def test_duty_curve_rejects_out_of_range_duties():
    # an out-of-range duty used to come back as a NaN row with
    # error = "NonPositiveParameter"; it is now rejected before any point
    # is solved, and every row of a valid grid has an empty error
    vp2 = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                  c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                  f_s=200e3, i_ls_amp=2.35))
    for bad in (1.0, 1.5, math.nan, -0.1, 0.0):
        with pytest.raises(NonPositiveParameter) as err:
            vo_vs_duty_curve(vp2, [38.09], [0.5, bad, 0.55])
        assert err.value.field == "duty"
    rows = vo_vs_duty_curve(vp2, [38.09], [0.5, 0.55])
    assert [r.error for r in rows] == ["", ""]


def test_duty_curve_lets_programming_errors_through(vp, monkeypatch):
    def broken(params, duty):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(averaged, "solve_operating_point", broken)
    with pytest.raises(TypeError, match="not a solver failure"):
        vo_vs_duty_curve(vp, [30.0], [0.55])


def test_duty_curve_linear_in_load_when_delay_pinned():
    # with the phase delay held, the steady output is exactly linear in R;
    # the self-consistent coupling makes it sub-linear
    fst = 0.0765
    v1 = steady_state_vo(2.35, 20.0, 0.6, fst)
    v2 = steady_state_vo(2.35, 40.0, 0.6, fst)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)
    vp2 = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                  c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                  f_s=200e3, i_ls_amp=2.35))
    s1 = solve_operating_point(vp2.with_load(20.0), 0.6).v_o
    s2 = solve_operating_point(vp2.with_load(40.0), 0.6).v_o
    assert s2 < 2 * s1


def test_duty_curve_peak_sits_at_optimal_duty():
    vp2 = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                  c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                  f_s=200e3, i_ls_amp=2.35))
    grid = np.arange(0.3, 0.7, 0.002)
    rows = vo_vs_duty_curve(vp2, [38.09], [float(d) for d in grid])
    best = max(rows, key=lambda r: r.v_o)
    expect = optimal_duty(vp2.f_s * best.t_f)
    assert abs(best.duty - expect) <= 0.002  # grid resolution


def test_switched_mean_converges_to_averaged_steady(vp):
    # cross-model: the cycle-mean output of the switched simulator settles
    # onto the averaged fixed point within 1% after ten time constants
    duty = 0.55
    op = solve_operating_point(vp, duty)
    cmd = ModulationCommand(duty, op.t_f)
    n = int(10 * vp.r_load * vp.c_o / vp.t_period) + 50
    res = run(vp, cmd, n)
    mean_tail = res.columns.v_o_mean[-1]
    assert mean_tail == pytest.approx(op.v_o, rel=0.01)


def test_schedule_modes(vp):
    from wptrx.averaged import TfMode

    sched_p = DutySchedule.steps([0.0, 1e-3], [0.55, 0.6], vp,
                                 mode=TfMode.PINNED, pinned_fst=0.08)
    assert sched_p.eval(0.5e-3) == (0.55, 0.08)
    assert sched_p.eval(2e-3) == (0.6, 0.08)


@pytest.mark.parametrize("sample_dt,t_expect", [
    (0.03, [0.0, 0.03, 0.05]),
    (3e-5, None),
    (1e-3, [k * 1e-3 for k in range(51)]),
])
def test_samples_end_on_the_horizon(vp, sample_dt, t_expect):
    # no sample lies past the horizon and the last one sits on it, holding
    # the closed-form value there
    sched = DutySchedule((0.0, 0.02), (0.55, 0.65), (0.1, 0.1))
    v0 = 3.0
    traj = integrate_averaged(AveragedState(v_o=v0, t=0.0), sched, 0.05, vp,
                              sample_dt=sample_dt)
    assert traj.t[-1] == 0.05
    assert np.all(np.diff(traj.t) > 0.0)
    if t_expect is not None:
        assert traj.t == pytest.approx(t_expect, abs=1e-15)
    tau = vp.r_load * vp.c_o
    v1 = steady_state_vo(1.0, 30.0, 0.55, 0.1)
    v2 = steady_state_vo(1.0, 30.0, 0.65, 0.1)
    v_step = v1 + (v0 - v1) * math.exp(-0.02 / tau)
    v_end = v2 + (v_step - v2) * math.exp(-0.03 / tau)
    assert traj.v_o[-1] == pytest.approx(v_end, rel=1e-12)


def per_sample_reference(schedule, initial, t_samples, vp):
    """The averaged closed form evaluated one sample at a time with
    math.exp: v is carried from knot to knot (held at 0 from below), then
    to the sample.  Returns (v_o, (duty, phase delay) per sample, clamped)."""
    tau = vp.r_load * vp.c_o

    def advance(v, a, b):
        duty, fst = schedule.eval(a)
        v_inf = steady_state_vo(vp.i_ls_amp, vp.r_load, duty, fst)
        return v_inf + (v - v_inf) * math.exp(-(b - a) / tau)

    v_out, cmds, clamped = [], [], False
    for ts in t_samples:
        v, a = initial.v_o, initial.t
        for b in schedule.times:
            if a < b <= ts:
                v = advance(v, a, b)
                clamped |= v < -1e-6
                v, a = max(v, 0.0), b
        v = advance(v, a, ts)
        clamped |= v < -1e-6
        v_out.append(max(v, 0.0))
        cmds.append(schedule.eval(a))
    return v_out, cmds, clamped


def test_one_sample_path_matches_per_sample_reference(vp):
    rng = np.random.default_rng(2024)
    n_clamped = 0
    for _ in range(60):
        n_seg = int(rng.integers(1, 6))
        horizon = float(rng.uniform(2e-3, 20e-3))
        times = [0.0] + sorted(rng.uniform(0.0, 1.2 * horizon,
                                           n_seg - 1).tolist())
        duties = rng.uniform(0.3, 0.98, n_seg).tolist()
        fsts = rng.uniform(0.0, 0.2, n_seg).tolist()
        sched = DutySchedule(times, duties, fsts)
        initial = AveragedState(v_o=float(rng.uniform(0.0, 30.0)),
                                t=float(rng.choice([0.0, 0.3 * horizon])))
        sample_dt = horizon / float(rng.uniform(20.0, 300.0))
        traj = integrate_averaged(initial, sched, horizon, vp,
                                  sample_dt=sample_dt)
        v, cmds, clamped = per_sample_reference(sched, initial, traj.t, vp)
        assert traj.t[0] == initial.t
        assert traj.t[-1] == initial.t + horizon
        scale = np.maximum(np.abs(v), 1.0)
        assert np.all(np.abs(traj.v_o - v) <= 1e-12 * scale)
        assert list(zip(traj.duty, traj.phase_delay_norm)) == cmds
        assert traj.clamped == clamped
        n_clamped += clamped
    assert n_clamped > 0  # the draw reaches the clamp
