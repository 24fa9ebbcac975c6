"""Closed-form operations against independent numerical oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from wptrx.analytic import (V_FIXED_POINT_TOL, OperatingPoint, duty_bounds,
                            duty_for_target_vo, fall_time_approx,
                            fall_time_exact, input_current, optimal_duty,
                            phase_angle, resonant_cap_voltage_drop,
                            rise_time, solve_operating_point,
                            steady_state_vo)
from wptrx.config import parse_config
from wptrx.errors import (ArccosDomain, CommutationImpossible,
                          DutyOutOfBounds, EmptyDutyRange, NoConvergence,
                          NonPositiveParameter)
from wptrx.params import ReceiverParams, validate
from wptrx.rootfind import bisect_root
from wptrx.simulator import (T_EVENT_TOL, ModulationCommand,
                             periodic_steady_state)

TWO_PI = 2 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "src" / "wptrx" / "configs"


@pytest.fixture(scope="module")
def vp():
    return validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                   f_s=200e3, i_ls_amp=2.35, r_ls_esr=2.16))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fall_time_oracle(vp, v_o):
    """Root of the cosine charge equation found by brentq, independent of
    the closed form."""
    c = vp.omega * vp.c_sum * v_o / vp.i_ls_amp
    return brentq(lambda t: (1 - math.cos(vp.omega * t)) - c, 0.0,
                  math.pi / vp.omega, xtol=1e-16)


def rise_time_oracle(vp, duty, t_f, v_o):
    """Charge balance by quadrature: integrate |i| from the turn-off edge
    until the accumulated charge equals C_sum * v_o."""
    t2 = duty * vp.t_period + t_f

    def charge(t):
        q, _ = quad(lambda u: -vp.i_ls_amp * math.sin(vp.omega * u), t2, t,
                    limit=200)
        return q - vp.c_sum * v_o

    t_end = brentq(charge, t2, vp.t_period, xtol=1e-15)
    return t_end - t2


# ---------------------------------------------------------------------------
# input current
# ---------------------------------------------------------------------------

def test_input_current(vp):
    assert input_current(0.0, vp) == 0.0
    assert input_current(vp.t_period / 4, vp) == pytest.approx(2.35,
                                                               rel=1e-12)
    assert input_current(0.6 * vp.t_period, vp) == pytest.approx(
        2.35 * math.sin(1.2 * math.pi), rel=1e-12)
    assert input_current(0.6 * vp.t_period, vp) == pytest.approx(-1.38130,
                                                                 abs=1e-4)


# ---------------------------------------------------------------------------
# commutation times
# ---------------------------------------------------------------------------

def test_fall_time_approx_prototype(vp):
    # theoretical fall delay of the prototype
    assert fall_time_approx(vp, 24.0) == pytest.approx(382e-9, abs=1e-9)


def test_fall_time_approx_degenerate(vp):
    assert fall_time_approx(vp, 0.0) == 0.0


def test_fall_time_approx_sqrt_scaling(vp):
    import dataclasses
    quad_cap = dataclasses.replace(vp, c_s1=4 * vp.c_s1, c_d1=4 * vp.c_d1,
                                   c_sum=4 * vp.c_sum)
    assert fall_time_approx(quad_cap, 24.0) == pytest.approx(
        2 * fall_time_approx(vp, 24.0), rel=1e-12)


def test_fall_time_exact_prototype(vp):
    t = fall_time_exact(vp, 24.0)
    assert 384e-9 <= t <= 388e-9
    assert t == pytest.approx(fall_time_oracle(vp, 24.0), abs=2e-13)
    gap = (t - fall_time_approx(vp, 24.0)) / t
    assert 0 < gap <= 0.02


def test_fall_time_exact_degenerate_and_impossible(vp):
    assert fall_time_exact(vp, 0.0) == 0.0
    # omega*C_sum*v/I = 2.5 cannot be reached by 1 - cos
    v_bad = 2.5 * vp.i_ls_amp / (vp.omega * vp.c_sum)
    with pytest.raises(CommutationImpossible):
        fall_time_exact(vp, v_bad)


def test_fall_time_exact_matches_bisected_root(vp):
    # the closed form agrees with event-style bisection of the cosine
    # equation, up to the node swing limit c = 2 (root at half a period)
    w = vp.omega
    v_max = 2.0 * vp.i_ls_amp / (w * vp.c_sum)
    for v_o in np.linspace(0.0, v_max, 41)[1:]:
        c = w * vp.c_sum * v_o / vp.i_ls_amp
        root = bisect_root(lambda t: (1.0 - math.cos(w * t)) - c, 0.0,
                           math.pi / w, xtol=T_EVENT_TOL)
        assert abs(fall_time_exact(vp, v_o) - root) <= T_EVENT_TOL


@pytest.mark.parametrize("fall", [fall_time_approx, fall_time_exact])
def test_fall_times_check_v_o_at_entry(vp, fall):
    # the public fall times check v_o before their unchecked kernels run
    for bad in (-1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveParameter) as err:
            fall(vp, bad)
        assert err.value.field == "v_o"
    assert fall(vp, 0.0) == 0.0
    assert fall(vp.with_amplitude(0.0), 0.0) == 0.0


@pytest.mark.parametrize("duty", [0.545, 0.555, 0.73])
def test_exact_operating_point_converges(vp, duty):
    # the damped fixed-point iteration that preceded the bracketed root
    # once cycled on a quantized bisected fall time at these duties
    op = solve_operating_point(vp, duty, exact=True)
    assert op.t_f == fall_time_exact(vp, op.v_o)
    assert op.v_o == pytest.approx(
        steady_state_vo(vp.i_ls_amp, vp.r_load, duty, op.phase_delay_norm),
        abs=1e-6)


def test_fall_approx_within_2pct_of_exact_when_delay_small(vp):
    import dataclasses
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = dataclasses.replace(
            vp,
            c_sum=10 ** rng.uniform(-9.5, -7.5),
            i_ls_amp=10 ** rng.uniform(-0.5, 1.0),
            f_s=10 ** rng.uniform(4.5, 6.0))
        p = dataclasses.replace(p, omega=TWO_PI * p.f_s,
                                t_period=1 / p.f_s)
        v_o = 10 ** rng.uniform(0.5, 2.0)
        try:
            t_ex = fall_time_exact(p, v_o)
        except CommutationImpossible:
            continue
        if p.f_s * t_ex > 0.1:
            continue
        t_ap = fall_time_approx(p, v_o)
        assert abs(t_ap - t_ex) / t_ex <= 0.02


def test_rise_time_prototype_point(vp):
    # turn-off at D = 0.532 with the approximate fall delay
    t_f = 382e-9
    op = OperatingPoint(duty=0.532, t_f=t_f, v_o=24.0,
                        phase_delay_norm=vp.f_s * t_f)
    t_r = rise_time(vp, op)
    assert t_r == pytest.approx(rise_time_oracle(vp, 0.532, t_f, 24.0),
                                abs=1e-12)
    assert t_r == pytest.approx(131e-9, abs=3e-9)
    # the negative half-cycle carries more current, so the rise is shorter
    assert t_r < t_f


def test_rise_time_matches_charge_balance_over_regulable_range(vp):
    t_f = fall_time_exact(vp, 24.0)
    fst = vp.f_s * t_f
    lo, hi = duty_bounds(fst)
    for duty in np.linspace(lo + 0.01, hi - 0.01, 9):
        op = OperatingPoint(duty=float(duty), t_f=t_f, v_o=24.0,
                            phase_delay_norm=fst)
        assert rise_time(vp, op) == pytest.approx(
            rise_time_oracle(vp, float(duty), t_f, 24.0), abs=1e-10)


def test_rise_time_ideal_switch_limit(vp):
    # zero commutation capacitance collapses the arccos term exactly
    import dataclasses
    p0 = dataclasses.replace(vp, c_s1=0.0, c_d1=0.0, c_sum=0.0)
    op = OperatingPoint(duty=0.6, t_f=0.0, v_o=24.0, phase_delay_norm=0.0)
    assert rise_time(p0, op) == pytest.approx(0.0, abs=1e-15)


def test_rise_time_errors(vp):
    t_f = fall_time_exact(vp, 24.0)
    fst = vp.f_s * t_f
    lo, hi = duty_bounds(fst)
    with pytest.raises(DutyOutOfBounds):
        rise_time(vp, OperatingPoint(duty=lo - 0.05, t_f=t_f, v_o=24.0,
                                     phase_delay_norm=fst))
    # just above the upper bound the diode never conducts; the bounds check
    # fires first, so probe the arccos domain with a widened window
    op_bad = OperatingPoint(duty=hi, t_f=t_f * 1.05, v_o=24.0,
                            phase_delay_norm=fst * 1.05)
    with pytest.raises((ArccosDomain, DutyOutOfBounds)):
        rise_time(vp, op_bad)


def test_charge_symmetry_between_commutations(vp):
    # the charge that discharges the node equals the charge that recharges
    # it: integral of i over the fall equals C_sum*v_o equals the rise
    v_o = 24.0
    t_f = fall_time_exact(vp, v_o)
    q_f, _ = quad(lambda u: vp.i_ls_amp * math.sin(vp.omega * u), 0.0, t_f,
                  limit=200)
    assert q_f == pytest.approx(vp.c_sum * v_o, rel=1e-9)
    duty = 0.532
    t_r = rise_time(vp, OperatingPoint(duty=duty, t_f=t_f, v_o=v_o,
                                       phase_delay_norm=vp.f_s * t_f))
    t2 = duty * vp.t_period + t_f
    q_r, _ = quad(lambda u: -vp.i_ls_amp * math.sin(vp.omega * u), t2,
                  t2 + t_r, limit=200)
    assert q_r == pytest.approx(vp.c_sum * v_o, rel=1e-9)


# ---------------------------------------------------------------------------
# duty window and steady state
# ---------------------------------------------------------------------------

def test_duty_bounds_values():
    assert duty_bounds(0.0672) == pytest.approx((0.4328, 0.8656), rel=1e-12)
    assert duty_bounds(0.0) == (0.5, 1.0)
    assert duty_bounds(0.1) == pytest.approx((0.4, 0.8), rel=1e-12)
    with pytest.raises(EmptyDutyRange):
        duty_bounds(0.25)
    with pytest.raises(EmptyDutyRange):
        duty_bounds(-0.01)


def test_optimal_duty_values():
    assert optimal_duty(0.0672) == pytest.approx(0.4328, rel=1e-12)
    assert optimal_duty(0.0) == 0.5
    assert optimal_duty(0.1) == pytest.approx(0.4, rel=1e-12)


def test_steady_state_vo_prototype():
    # the sanity-check number of the prototype write-up
    assert steady_state_vo(2.35, 38.09, 0.532, 0.0672) == pytest.approx(
        24.56, abs=0.15)


def test_steady_state_vo_limits():
    fst = 0.08
    assert steady_state_vo(2.35, 38.09, 1 - 2 * fst, fst) == pytest.approx(
        0.0, abs=1e-12)
    assert steady_state_vo(2.35, 38.09, 0.5, 0.0) == pytest.approx(
        2.35 * 38.09 / math.pi, rel=1e-12)


def test_optimal_duty_is_argmax():
    fst = 0.0672
    res = minimize_scalar(lambda d: -steady_state_vo(2.35, 38.09, d, fst),
                          bounds=(0.01, 0.99), method="bounded",
                          options={"xatol": 1e-10})
    assert optimal_duty(fst) == pytest.approx(res.x, abs=1e-6)


def test_steady_state_monotone_decreasing_on_regulable_branch():
    fst = 0.0672
    lo, hi = duty_bounds(fst)
    grid = np.linspace(optimal_duty(fst), hi, 40)
    vals = [steady_state_vo(2.35, 38.09, d, fst) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_resonant_cap_voltage_drop():
    assert resonant_cap_voltage_drop(2.35, 38.09, 0.0) == 0.0
    # unit case: cos term 0.5 at |I| R = 2 pi
    fst = math.acos(0.5) / TWO_PI
    assert resonant_cap_voltage_drop(1.0, TWO_PI, fst) == pytest.approx(
        0.5, rel=1e-12)
    drop = resonant_cap_voltage_drop(2.35, 38.09, 0.0672)
    assert drop == pytest.approx(1.2511, abs=1e-3)
    # definitionally the gap between the two curve maxima
    peak_ideal = steady_state_vo(2.35, 38.09, optimal_duty(0.0), 0.0)
    peak_caps = steady_state_vo(2.35, 38.09, optimal_duty(0.0672), 0.0672)
    assert drop == pytest.approx(peak_ideal - peak_caps, rel=1e-12)


def test_phase_angle_values():
    assert phase_angle(0.5, 0.1) == pytest.approx(0.7 * math.pi, rel=1e-12)
    assert phase_angle(0.0, 0.0) == 0.0
    assert phase_angle(0.532, 0.0764) == pytest.approx(2.1514, abs=1e-3)


def test_phase_angle_affine_slopes():
    h = 1e-7
    d_slope = (phase_angle(0.5 + h, 0.1) - phase_angle(0.5 - h, 0.1)) / (2 * h)
    f_slope = (phase_angle(0.5, 0.1 + h) - phase_angle(0.5, 0.1 - h)) / (2 * h)
    assert d_slope == pytest.approx(math.pi, rel=1e-6)
    assert f_slope == pytest.approx(TWO_PI, rel=1e-6)


# ---------------------------------------------------------------------------
# self-consistent operating point
# ---------------------------------------------------------------------------

def fixed_point_oracle(vp, duty):
    """Plain damped iteration, independent of the implementation."""
    v = 10.0
    for _ in range(400):
        t_f = math.sqrt(vp.c_sum * v / (math.pi * vp.f_s * vp.i_ls_amp))
        v_new = steady_state_vo(vp.i_ls_amp, vp.r_load, duty, vp.f_s * t_f)
        v = 0.5 * v + 0.5 * max(v_new, 0.0)
    return v


def test_solve_operating_point_prototype(vp):
    op = solve_operating_point(vp, 0.532)
    # the self-consistent fall time brackets the measured/theoretical pair
    assert 336e-9 <= op.t_f <= 386e-9
    assert op.v_o == pytest.approx(fixed_point_oracle(vp, 0.532), abs=2e-5)
    assert op.regulable
    # exact-root variant converges a touch lower
    op_x = solve_operating_point(vp, 0.532, exact=True)
    assert op_x.t_f > op.t_f
    assert abs(op_x.v_o - op.v_o) < 0.2


def test_solve_operating_point_zero_source(vp):
    op = solve_operating_point(vp.with_amplitude(0.0), 0.532)
    assert op.v_o == 0.0 and op.t_f == 0.0


def reference_operating_point(vp, duty, exact):
    """The damped fixed-point loop v <- (v + G(v))/2 on the public, checked
    fall times and steady_state_vo, which solve_operating_point ran before
    it became a bracketed root.  It raises NoConvergence or
    CommutationImpossible at light load."""
    if vp.i_ls_amp == 0.0:
        return OperatingPoint(duty=duty, t_f=0.0, v_o=0.0,
                              phase_delay_norm=0.0, regulable=False)
    fall = fall_time_exact if exact else fall_time_approx
    v = max(steady_state_vo(vp.i_ls_amp, vp.r_load, duty, 0.0), 0.0)
    for _ in range(100):
        t_f = fall(vp, v)
        v_new = steady_state_vo(vp.i_ls_amp, vp.r_load, duty, vp.f_s * t_f)
        if abs(v_new - v) < V_FIXED_POINT_TOL:
            v = v_new
            break
        v = 0.5 * (v + v_new)
        if v < 0.0:
            v = 0.0
    else:
        raise NoConvergence(f"operating point at D={duty} did not settle "
                            "within 100 iterations")
    t_f = fall(vp, max(v, 0.0))
    fst = vp.f_s * t_f
    try:
        lo, hi = duty_bounds(fst)
        regulable = lo <= duty <= hi
    except EmptyDutyRange:
        regulable = False
    return OperatingPoint(duty=duty, t_f=t_f, v_o=v, phase_delay_norm=fst,
                          regulable=regulable)


def _outcome(solve, *args):
    """The operating point, or the type of what was raised."""
    try:
        return solve(*args)
    except (CommutationImpossible, NoConvergence) as exc:
        return type(exc)


def _fall_angle_cap(p, exact):
    """The v_o at which the fall time reaches half a period (V)."""
    if exact:
        return 2.0 * p.i_ls_amp / (p.omega * p.c_sum)
    return math.pi * p.i_ls_amp / (4.0 * p.f_s * p.c_sum)


def _assert_bracketed_root(p, duty, exact, op):
    """g(v) = steady_state_vo(f_s*t_f(v)) - v changes sign within
    V_FIXED_POINT_TOL of op.v_o, below the half-period cap."""
    fall = fall_time_exact if exact else fall_time_approx

    def g(v):
        return steady_state_vo(p.i_ls_amp, p.r_load, duty,
                               p.f_s * fall(p, v)) - v

    assert op.v_o + V_FIXED_POINT_TOL < _fall_angle_cap(p, exact)
    assert op.phase_delay_norm <= 0.5
    assert op.t_f == fall(p, op.v_o)
    assert g(max(op.v_o - V_FIXED_POINT_TOL, 0.0)) >= 0.0
    assert g(op.v_o + V_FIXED_POINT_TOL) <= 0.0


def test_solve_operating_point_brackets_a_root_up_to_light_load():
    # the damped loop this solver replaced raised NoConvergence or
    # CommutationImpossible on light loads, although a root exists at every
    # duty; where that loop converged below the cap, it agrees
    raised = set()
    for name in ("table2", "fig7"):
        base = validate(parse_config(CONFIGS / f"{name}.cfg").params)
        receivers = [base.with_load(k * base.r_load)
                     for k in (0.5, 1, 3, 7.3)]
        receivers += [base.with_load(r) for r in (762.0, 2e3, 10e3)]
        for p in receivers:
            for duty in [k / 40 for k in range(1, 40)]:
                for exact in (False, True):
                    op = solve_operating_point(p, duty, exact)
                    _assert_bracketed_root(p, duty, exact, op)
                    want = _outcome(reference_operating_point, p, duty, exact)
                    if not isinstance(want, OperatingPoint):
                        raised.add(want)
                    elif want.phase_delay_norm <= 0.5:
                        assert abs(op.v_o - want.v_o) <= \
                            2.0 * V_FIXED_POINT_TOL, (name, p.r_load, duty)
    assert raised == {CommutationImpossible, NoConvergence}


def test_solve_operating_point_does_not_stop_at_the_cap(vp):
    # at the cap the fall time's slope in v_o is infinite, so a Newton step
    # in v_o there is tiny however far the root is; a solver that stopped
    # on such a step returned the cap, 415.57 V, here
    p = vp.with_load(762.0)
    op = solve_operating_point(p, 0.326, exact=True)
    assert op.v_o == pytest.approx(222.66987, abs=1e-5)
    _assert_bracketed_root(p, 0.326, True, op)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c_s1=st.floats(3.8e-9, 5.2e-9), c_d1=st.floats(3.8e-9, 5.2e-9),
       r_load=st.floats(25.0, 10e3), i_amp=st.floats(0.85, 2.65),
       duty=st.floats(1e-3, 0.999), exact=st.booleans())
def test_solve_operating_point_brackets_a_root_over_the_receiver_box(
        c_s1, c_d1, r_load, i_amp, duty, exact):
    p = validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=c_s1,
                                c_d1=c_d1, c_o=1000e-6, r_load=r_load,
                                f_s=200e3, i_ls_amp=i_amp))
    _assert_bracketed_root(p, duty, exact,
                           solve_operating_point(p, duty, exact))


@pytest.mark.parametrize("duty", [0.66, 0.70, 0.75])
def test_light_load_operating_point_matches_the_switched_orbit(vp, duty):
    # at 20x table2's load the damped loop failed at these duties; the
    # switched orbit gated 1 % after the solved fall time lands within
    # 1.5 % of the solved v_o (about -1.3 %: each commutation takes its
    # charge from the output)
    p = vp.with_load(762.0)
    op = solve_operating_point(p, duty, exact=True)
    assert op.regulable
    orbit = periodic_steady_state(
        p, ModulationCommand(duty, 1.01 * op.t_f), op.v_o)
    assert orbit.state.v_o == pytest.approx(op.v_o, rel=0.015)


def test_solve_operating_point_definition_consistency(vp):
    op = solve_operating_point(vp, 0.6)
    direct = steady_state_vo(vp.i_ls_amp, vp.r_load, 0.6,
                             op.phase_delay_norm)
    assert op.v_o == pytest.approx(direct, abs=1e-6)


def test_duty_for_target_inverts_steady_state(vp):
    fst = 0.0765
    d = duty_for_target_vo(2.35, 38.09, 24.0, fst)
    assert steady_state_vo(2.35, 38.09, d, fst) == pytest.approx(24.0,
                                                                 rel=1e-12)
    lo, hi = duty_bounds(fst)
    assert lo <= d <= hi
    with pytest.raises(ArccosDomain):
        duty_for_target_vo(2.35, 38.09, 100.0, fst)
