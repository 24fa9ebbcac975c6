"""Plant linearization, PI design, margins, and the perturbation oracle."""

import cmath
import math

import numpy as np
import pytest

from wptrx.analytic import OperatingPoint, optimal_duty, steady_state_vo
from wptrx.averaged import averaged_rhs
from wptrx.errors import (NoCrossover, NonPositiveParameter,
                          ZeroGainOperatingPoint)
from wptrx.params import ReceiverParams, validate
from wptrx.simulator import (ModulationCommand, periodic_steady_state,
                             step_cycle)
from wptrx.smallsignal import (_ORACLE_PERIODS, _ORACLE_SEGMENTS, PiGains,
                               bode, bode_points, design_pi, loop_margins,
                               loop_response, perturb_bode_oracle, plant_tf,
                               switched_bode)

TWO_PI = 2 * math.pi
BODE_GRID = [10.0 * 10.0 ** (k / 30.0) for k in range(91)]


@pytest.fixture(scope="module")
def vp():
    # small-signal study point: D = 0.5, f_s*t_f = 0.1, 1 A source, 30 ohm,
    # 100 uF output capacitor
    return validate(ReceiverParams(l_s=172e-6, c_s=3.6817e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=100e-6, r_load=30.0,
                                   f_s=200e3, i_ls_amp=1.0))


@pytest.fixture(scope="module")
def op(vp):
    return OperatingPoint.pinned(0.5, 0.1, vp.f_s,
                                 v_o=steady_state_vo(1.0, 30.0, 0.5, 0.1))


def test_plant_tf_study_point(vp, op):
    tf = plant_tf(vp, op)
    assert tf.dc_gain == pytest.approx(-17.6336, abs=1e-3)
    assert 20 * math.log10(abs(tf.dc_gain)) == pytest.approx(24.93, abs=0.01)
    assert tf.pole_hz == pytest.approx(53.0516, abs=1e-3)


def test_plant_tf_zero_gain_at_voltage_peak(vp):
    op_pk = OperatingPoint.pinned(optimal_duty(0.1), 0.1, vp.f_s)
    with pytest.raises(ZeroGainOperatingPoint):
        plant_tf(vp, op_pk)


def test_plant_phase_span(vp, op):
    pts = bode(plant_tf(vp, op), [0.001, 1e7])
    assert pts[0].phase_deg == pytest.approx(-180.0, abs=0.01)
    assert pts[1].phase_deg == pytest.approx(-270.0, abs=0.01)


def test_plant_phase_formula(vp, op):
    tf = plant_tf(vp, op)
    for p in bode(tf, BODE_GRID):
        expect = -180.0 - math.degrees(math.atan(p.f_hz / tf.pole_hz))
        assert p.phase_deg == pytest.approx(expect, abs=1e-9)


def test_bode_single_pole_properties(vp, op):
    tf = plant_tf(vp, op)
    at_pole = bode(tf, [tf.pole_hz])[0]
    dc_db = 20 * math.log10(abs(tf.dc_gain))
    assert at_pole.mag_db == pytest.approx(dc_db - 3.0103, abs=1e-3)
    # unity-gain crossing of the plant magnitude
    f_unity = tf.pole_hz * math.sqrt(tf.dc_gain ** 2 - 1.0)
    assert f_unity == pytest.approx(934.0, abs=1.0)
    assert bode(tf, [f_unity])[0].mag_db == pytest.approx(0.0, abs=1e-9)


def test_design_pi_study_point(vp, op):
    g = design_pi(vp, op, 1000.0)
    assert g.k_p == pytest.approx(-1.07, abs=0.01)
    assert g.k_i == pytest.approx(-356.0, abs=3.0)
    assert (g.d_min, g.d_max) == pytest.approx((0.4, 0.8), rel=1e-12)
    # linear in the crossover frequency
    g2 = design_pi(vp, op, 2000.0)
    assert g2.k_p == pytest.approx(2 * g.k_p, rel=1e-12)
    assert g2.k_i == pytest.approx(2 * g.k_i, rel=1e-12)


def test_design_pi_positive_branch(vp):
    # below the voltage peak the plant gain is positive, and so are the
    # designed gains
    op_low = OperatingPoint.pinned(0.35, 0.1, vp.f_s)
    assert math.sin(TWO_PI * (0.35 + 0.1)) > 0
    g = design_pi(vp, op_low, 1000.0)
    assert g.k_p > 0 and g.k_i > 0


def test_sign_discipline_on_regulable_branch(vp):
    rng = np.random.default_rng(5)
    for _ in range(20):
        fst = rng.uniform(0.02, 0.15)
        lo, hi = 0.5 - fst, 1 - 2 * fst
        duty = rng.uniform(lo + 0.02, hi - 0.02)
        op_r = OperatingPoint.pinned(duty, fst, vp.f_s)
        tf = plant_tf(vp, op_r)
        g = design_pi(vp, op_r, 1000.0)
        assert tf.dc_gain < 0 and g.k_p < 0 and g.k_i < 0
        assert g.k_p * tf.dc_gain > 0  # negative feedback overall


def test_loop_margins_study_design(vp, op):
    plant = plant_tf(vp, op)
    gains = design_pi(vp, op, 1000.0)
    fc, pm, g10 = loop_margins(plant, gains)
    assert fc == pytest.approx(1000.0, rel=0.01)
    assert pm == pytest.approx(90.0, abs=1.0)
    assert g10 >= 40.0 - 1e-9


def test_loop_margins_no_crossover(vp, op):
    plant = plant_tf(vp, op)
    with pytest.raises(NoCrossover):
        loop_margins(plant, PiGains(k_p=0.0, k_i=0.0, d_min=0.4, d_max=0.8))


def test_pole_zero_cancellation_gives_exact_quarter_wave_margin(vp):
    # for any valid design point the PI zero sits on the plant pole and the
    # loop reduces to a pure integrator: the margin is exactly 90 degrees
    rng = np.random.default_rng(6)
    for _ in range(15):
        fst = rng.uniform(0.02, 0.15)
        duty = rng.uniform(0.5 - fst + 0.02, 1 - 2 * fst - 0.02)
        op_r = OperatingPoint.pinned(duty, fst, vp.f_s)
        plant = plant_tf(vp, op_r)
        gains = design_pi(vp, op_r, 10 ** rng.uniform(2, 3.5))
        assert gains.k_i * vp.r_load * vp.c_o == pytest.approx(gains.k_p,
                                                               rel=1e-12)
        _, pm, _ = loop_margins(plant, gains)
        assert pm == pytest.approx(90.0, abs=1e-9)


def test_finite_difference_matches_linearized_gain(vp):
    # derivative of the averaged drive with respect to duty equals the
    # linearized coefficient |I| sin(2 pi D + 2 pi f_s t_f) / C_o
    h = 1e-6
    for duty, fst in [(0.5, 0.1), (0.55, 0.08), (0.62, 0.12)]:
        v = steady_state_vo(vp.i_ls_amp, vp.r_load, duty, fst)
        fd = (averaged_rhs(v, duty + h, fst, vp)
              - averaged_rhs(v, duty - h, fst, vp)) / (2 * h)
        expect = vp.i_ls_amp * math.sin(TWO_PI * duty + TWO_PI * fst) / vp.c_o
        assert fd == pytest.approx(expect, rel=1e-6)


def test_perturbation_oracle_matches_plant(vp, op):
    analytic = bode(plant_tf(vp, op), BODE_GRID)
    oracle = perturb_bode_oracle(vp, op, BODE_GRID)
    for a, o in zip(analytic, oracle):
        assert abs(a.mag_db - o.mag_db) <= 0.5
        assert abs(a.phase_deg - o.phase_deg) <= 3.0


def test_perturbation_oracle_dc_limit(vp, op):
    tf = plant_tf(vp, op)
    pt = perturb_bode_oracle(vp, op, [1.0])[0]
    assert 10 ** (pt.mag_db / 20) == pytest.approx(abs(tf.dc_gain), rel=0.01)


def test_perturbation_oracle_linearity(vp, op):
    g1 = perturb_bode_oracle(vp, op, [100.0], rel_amp=1e-3)[0]
    g2 = perturb_bode_oracle(vp, op, [100.0], rel_amp=2e-3)[0]
    assert 10 ** (g1.mag_db / 20) == pytest.approx(10 ** (g2.mag_db / 20),
                                                   rel=1e-3)


def oracle_reference(params, op, f_grid, rel_amp=1e-3):
    """The oracle as a scalar loop over frequencies, periods and segments,
    in Python complex arithmetic."""
    d_bar, fst = op.duty, op.phase_delay_norm
    d_tilde = rel_amp * d_bar
    tau = params.r_load * params.c_o

    def one_period(v, w, t0, t_seg):
        c = 1.0 / tau + 1j * w
        u1 = y1 = 0.0 + 0.0j
        for k in range(_ORACLE_SEGMENTS):
            tk = t0 + k * t_seg
            duty = d_bar + d_tilde * math.sin(w * tk)
            v_inf = steady_state_vo(params.i_ls_amp, params.r_load, duty, fst)
            e0 = cmath.exp(-1j * w * tk)
            box = (e0 - cmath.exp(-1j * w * (tk + t_seg))) / (1j * w)
            u1 += duty * box
            y1 += v_inf * box + (v - v_inf) * e0 * (
                1.0 - cmath.exp(-t_seg * c)) / c
            v = v_inf + (v - v_inf) * math.exp(-t_seg / tau)
        return v, u1, y1

    h = []
    for f in f_grid:
        w, t_per = TWO_PI * f, 1.0 / f
        t_seg = t_per / _ORACLE_SEGMENTS
        b_per = one_period(0.0, w, 0.0, t_seg)[0]
        v = b_per / (1.0 - math.exp(-t_per / tau))
        u1 = y1 = 0.0 + 0.0j
        for p in range(_ORACLE_PERIODS):
            v, du, dy = one_period(v, w, p * t_per, t_seg)
            u1 += du
            y1 += dy
        h.append(y1 / u1)
    return bode_points(f_grid, np.array(h))


def _fig7_box_receiver(seed):
    rng = np.random.default_rng(seed)
    fst = rng.uniform(0.08, 0.12)
    vp_r = validate(ReceiverParams(
        l_s=172e-6, c_s=3.6817e-9, c_s1=rng.uniform(3.8e-9, 5.2e-9),
        c_d1=rng.uniform(3.8e-9, 5.2e-9), c_o=rng.uniform(80e-6, 120e-6),
        r_load=rng.uniform(25.0, 35.0), f_s=200e3,
        i_ls_amp=rng.uniform(0.85, 1.15)))
    duty = 0.5 - fst + rng.uniform(0.05, 0.15)
    return vp_r, OperatingPoint.pinned(duty, fst, vp_r.f_s)


@pytest.mark.parametrize("point,rel_amp", [
    ("fig7", 1e-3), ("table2", 1e-3), ("fig7_box", 1e-3), ("fig7", 0.3)])
def test_oracle_is_bit_identical_to_the_scalar_loop(point, rel_amp, vp, op,
                                                    vp_table2):
    # fig7's 1/tau = 333 s^-1 takes both branches of the complex quotient
    # by 1/tau + jw across the grid; table2's 26 s^-1 only the jw one.  At
    # rel_amp 1e-3 the quotient's term is too small beside v_inf*box for
    # the branch taken to reach the last bit of any point; at 0.3 it
    # reaches 8 of the 91.
    if point == "table2":
        vp = vp_table2
        op = OperatingPoint.pinned(0.532, 0.0672, vp.f_s)
    elif point == "fig7_box":
        vp, op = _fig7_box_receiver(11)
    fast = perturb_bode_oracle(vp, op, BODE_GRID, rel_amp)
    ref = oracle_reference(vp, op, BODE_GRID, rel_amp)
    assert [(p.f_hz, p.mag_db, p.phase_deg) for p in fast] == \
        [(p.f_hz, p.mag_db, p.phase_deg) for p in ref]


@pytest.mark.parametrize("grid", [
    [], [-10.0], [0.0], [float("nan")], [float("inf")], [10.0, float("nan")],
    [10.0, float("inf")], [10.0, 10.0], [100.0, 10.0], [[10.0, 100.0]]],
    ids=["empty", "negative", "zero", "nan", "inf", "tail_nan", "tail_inf",
         "repeated", "descending", "2d"])
@pytest.mark.parametrize("entry", ["bode", "oracle", "switched"])
def test_bode_entry_points_reject_bad_grids(entry, grid, vp, op):
    call = {"bode": lambda: bode(plant_tf(vp, op), grid),
            "oracle": lambda: perturb_bode_oracle(vp, op, grid),
            "switched": lambda: switched_bode(vp, op, grid)}[entry]
    with pytest.raises(NonPositiveParameter, match="f_grid"):
        call()


@pytest.mark.parametrize("rel_amp", [0.0, -1e-3, 1.0, float("nan"),
                                     float("inf")])
def test_oracle_rejects_bad_rel_amp(rel_amp, vp, op):
    with pytest.raises(NonPositiveParameter, match="rel_amp"):
        perturb_bode_oracle(vp, op, [100.0], rel_amp=rel_amp)


def test_switched_simulator_spot_check(vp, op):
    # heavier cross-check against the full switching model at three
    # frequencies; cycle-sampling artifacts keep this looser
    analytic = {p.f_hz: p for p in bode(plant_tf(vp, op), [50.0, 500.0,
                                                           5000.0])}
    for pt in switched_bode(vp, op, [50.0, 500.0, 5000.0]):
        ref = analytic[pt.f_hz]
        assert abs(pt.mag_db - ref.mag_db) <= 0.5
        assert abs(pt.phase_deg - ref.phase_deg) <= 6.0


@pytest.fixture(scope="module")
def vp_table2():
    return validate(ReceiverParams(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9,
                                   c_d1=4.5e-9, c_o=1000e-6, r_load=38.09,
                                   f_s=200e3, i_ls_amp=2.35, r_ls_esr=2.16))


@pytest.mark.parametrize("point", ["study", "table2"])
def test_switched_model_matches_plant_on_bode_grid(point, vp, op, vp_table2):
    # the switched sampled-data model against the averaged plant over the
    # whole 91-point grid, with the spot check's bounds
    if point == "table2":
        vp = vp_table2
        op = OperatingPoint.pinned(0.532, 0.0672, vp.f_s)
    analytic = bode(plant_tf(vp, op), BODE_GRID)
    switched = switched_bode(vp, op, BODE_GRID)
    assert [p.f_hz for p in switched] == BODE_GRID
    for a, s in zip(analytic, switched):
        assert abs(a.mag_db - s.mag_db) <= 0.5
        assert abs(a.phase_deg - s.phase_deg) <= 6.0


def test_switched_model_dc_limit_is_the_orbit_slope(vp, op):
    # at 0.1 Hz the model's gain is the orbit-to-orbit slope of the cycle
    # mean with respect to the duty
    v0 = steady_state_vo(vp.i_ls_amp, vp.r_load, op.duty,
                         op.phase_delay_norm)

    def orbit_mean(duty):
        cmd = ModulationCommand(duty, op.t_f)
        orbit = periodic_steady_state(vp, cmd, v0)
        return step_cycle(orbit.state, cmd, vp)[1].v_o_mean

    slope = (orbit_mean(op.duty + 1e-4) - orbit_mean(op.duty - 1e-4)) / 2e-4
    pt = switched_bode(vp, op, [0.1])[0]
    assert slope < 0 and pt.phase_deg == pytest.approx(-180.0, abs=0.5)
    assert 10 ** (pt.mag_db / 20) == pytest.approx(-slope, rel=1e-3)


def test_switched_model_zero_gain_orbit(vp_table2):
    # at 3000 ohm, D = 0.3 and f_s*t_f = 0.02 the orbit (v_o 1117.6 V,
    # v_cd1 702 V) is hard-switched, the gate turns off before the current
    # zero crossing and State V is never reached: the duty does not move
    # the cycle map at all
    vp = vp_table2.with_load(3000.0)
    op_z = OperatingPoint.pinned(0.3, 0.02, vp.f_s)
    with pytest.raises(ZeroGainOperatingPoint):
        switched_bode(vp, op_z, BODE_GRID)


def test_loop_response_shapes(vp, op):
    plant = plant_tf(vp, op)
    gains = design_pi(vp, op, 1000.0)
    ol, cl = loop_response(plant, gains, BODE_GRID)
    olp = bode_points(BODE_GRID, ol)
    clp = bode_points(BODE_GRID, cl)
    assert olp[0].mag_db == pytest.approx(40.0, abs=1e-6)   # 10 Hz
    assert olp[0].phase_deg == pytest.approx(-90.0, abs=1e-6)
    assert clp[0].mag_db == pytest.approx(0.0, abs=0.01)    # tracking band
    assert clp[-1].mag_db < -19.0                           # rolled off
