"""Parameter validation and sizing-rule tests."""

import math

import numpy as np
import pytest

from wptrx.analytic import (OperatingPoint, fall_time_approx,
                            fall_time_exact, resonant_cap_voltage_drop,
                            solve_operating_point)
from wptrx.averaged import (AveragedState, DutySchedule, integrate_averaged,
                            vo_vs_duty_curve)
from wptrx.config import parse_config_text
from wptrx.control import Scenario, feedforward_tf
from wptrx.errors import NonPositiveParameter
from wptrx.params import (ReceiverParams, min_output_cap, ripple_estimate,
                          size_inductor, size_series_cap, validate)
from wptrx.simulator import ModulationCommand, SwitchCycleState, run
from wptrx.smallsignal import design_pi


def table2_raw(**overrides) -> ReceiverParams:
    base = dict(l_s=172e-6, c_s=3.63e-9, c_s1=4.5e-9, c_d1=4.5e-9,
                c_o=1000e-6, r_load=38.09, f_s=200e3, i_ls_amp=2.35,
                r_ls_esr=2.16)
    base.update(overrides)
    return ReceiverParams(**base)


def test_validate_prototype_values():
    vp = validate(table2_raw())
    assert vp.omega == pytest.approx(2 * math.pi * 200e3, rel=1e-12)
    assert vp.c_sum == pytest.approx(9e-9, rel=1e-12)
    assert vp.t_period == pytest.approx(5e-6, rel=1e-12)
    # the off-the-shelf capacitor stack misses resonance by well under the
    # warning threshold
    assert vp.warnings == ()
    f_res = 1 / (2 * math.pi * math.sqrt(vp.l_s * vp.c_s))
    assert abs(f_res - vp.f_s) / vp.f_s < 0.02


@pytest.mark.parametrize("field", ["l_s", "c_s", "c_s1", "c_d1", "c_o",
                                   "r_load", "f_s", "i_ls_amp"])
def test_validate_rejects_nonpositive(field):
    with pytest.raises(NonPositiveParameter) as err:
        validate(table2_raw(**{field: 0.0}))
    assert err.value.field == field


def test_validate_rejects_negative_esr():
    with pytest.raises(NonPositiveParameter):
        validate(table2_raw(r_ls_esr=-1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_copies_reject_non_finite_values(value):
    vp = validate(table2_raw())
    with pytest.raises(NonPositiveParameter) as err:
        vp.with_load(value)
    assert err.value.field == "r_load"
    with pytest.raises(NonPositiveParameter) as err:
        vp.with_amplitude(value)
    assert err.value.field == "i_ls_amp"
    with pytest.raises(NonPositiveParameter):
        validate(table2_raw(r_ls_esr=value))
    # a zero amplitude (no coupling) stays representable
    assert vp.with_amplitude(0.0).i_ls_amp == 0.0


def table2_scenario(**overrides) -> Scenario:
    base = dict(name="bad", duration=0.1, r_load=38.09, i_ls_amp=2.35,
                v_ref=24.0, i_ls_ff=2.35, v_o0=24.0, initial_integrator=0.532)
    base.update(overrides)
    return Scenario(**base)


# (field named in the error, call with the bad value x on the table2 point)
ENTRY_POINTS = {
    "fall_time_approx": ("v_o", lambda vp, x: fall_time_approx(vp, x)),
    "fall_time_exact": ("v_o", lambda vp, x: fall_time_exact(vp, x)),
    "cap_drop_amplitude": ("i_ls_amp", lambda vp, x:
                           resonant_cap_voltage_drop(x, 38.09, 0.0672)),
    "cap_drop_load": ("r_load", lambda vp, x:
                      resonant_cap_voltage_drop(2.35, x, 0.0672)),
    "feedforward_v_ref": ("v_ref", lambda vp, x: feedforward_tf(x, 2.35, vp)),
    "feedforward_amplitude": ("i_ls_nominal", lambda vp, x:
                              feedforward_tf(24.0, x, vp)),
    "design_pi": ("f_c", lambda vp, x: design_pi(
        vp, OperatingPoint.pinned(0.532, 0.0672, vp.f_s, v_o=24.0), x)),
    "scenario": ("duration", lambda vp, x: Scenario(
        name="bad", duration=x, r_load=38.09, i_ls_amp=2.35, v_ref=24.0,
        i_ls_ff=2.35, v_o0=24.0, initial_integrator=0.532)),
    "scenario_start": ("v_o0", lambda vp, x: table2_scenario(v_o0=x)),
    "scenario_integrator": ("initial_integrator", lambda vp, x:
                            table2_scenario(initial_integrator=x)),
    "scenario_feedforward": ("i_ls_ff", lambda vp, x:
                             table2_scenario(i_ls_ff=x)),
    "integrate_averaged": ("horizon", lambda vp, x: integrate_averaged(
        AveragedState(v_o=0.0, t=0.0), DutySchedule.constant(0.532, 0.0672),
        x, vp)),
    "averaged_start": ("v_o", lambda vp, x: integrate_averaged(
        AveragedState(v_o=x, t=0.0), DutySchedule.constant(0.532, 0.0672),
        1e-3, vp)),
    "averaged_sample_dt": ("sample_dt", lambda vp, x: integrate_averaged(
        AveragedState(v_o=0.0, t=0.0), DutySchedule.constant(0.532, 0.0672),
        1e-3, vp, sample_dt=x)),
    "schedule_time": ("segment_length", lambda vp, x: DutySchedule(
        (0.0, 1e-3, x), (0.5, 0.55, 0.6), (0.0672,) * 3)),
    "schedule_phase_delay": ("phase_delay_norm", lambda vp, x:
                             DutySchedule((0.0, 1e-3), (0.5, 0.55),
                                          (0.0672, x))),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_values(entry, value):
    field, call = ENTRY_POINTS[entry]
    with pytest.raises(NonPositiveParameter) as err:
        call(validate(table2_raw()), value)
    assert err.value.field == field


# finite values out of range at an entry point of ENTRY_POINTS
@pytest.mark.parametrize("entry,value", [
    ("averaged_start", -1e-3), ("averaged_sample_dt", -1e-3),
    ("averaged_sample_dt", 0.0), ("schedule_time", 0.5e-3),
    ("schedule_time", 1e-3), ("schedule_phase_delay", -0.01),
    ("schedule_phase_delay", 0.25), ("scenario_start", -5.0),
    ("scenario_feedforward", 0.0), ("scenario_feedforward", -1.0)])
def test_entry_points_reject_out_of_range_values(entry, value):
    field, call = ENTRY_POINTS[entry]
    with pytest.raises(NonPositiveParameter) as err:
        call(validate(table2_raw()), value)
    assert err.value.field == field


_TABLE2_RECEIVER = ("l_s = 172u\nc_s = 3.63n\nc_s1 = 4.5n\nc_d1 = 4.5n\n"
                    "c_o = 1000u\nr_load = 38.09\nf_s = 200k\n"
                    "i_ls_amp = 2.35\n")

# every place a duty enters, a sweep's grid included: (field named in the
# error, call with duty d)
DUTY_ENTRY_POINTS = {
    # a config spells inf as an overflowing literal
    "config": ("duty", lambda vp, d: parse_config_text(
        _TABLE2_RECEIVER + f"duty = {'1e999' if d == math.inf else d}\n")),
    "schedule": ("duty", lambda vp, d: DutySchedule.constant(d, 0.0672)),
    # a one-cycle run; the id keeps the name of the one-cycle call it
    # replaced, so the test ids stay the same
    "step_cycle": ("duty", lambda vp, d: run(
        vp, ModulationCommand(d, 386e-9), 1, SwitchCycleState(24.0))),
    "solve_operating_point": ("duty", lambda vp, d:
                              solve_operating_point(vp, d)),
    "vo_vs_duty_curve": ("duty", lambda vp, d:
                         vo_vs_duty_curve(vp, [38.09], [0.5, d])),
}


# the config grammar has no NaN: "duty = nan" is a ConfigSyntax error
@pytest.mark.parametrize("entry,duty", [
    (entry, d) for entry in sorted(DUTY_ENTRY_POINTS)
    for d in (0.0, 1.0, -0.1, math.nan, math.inf)
    if not (entry == "config" and math.isnan(d))])
def test_every_duty_entry_point_rejects_the_same_range(entry, duty):
    field, call = DUTY_ENTRY_POINTS[entry]
    with pytest.raises(NonPositiveParameter) as err:
        call(validate(table2_raw()), duty)
    assert err.value.field == field


def test_validate_resonance_warning():
    # 2 nF against 172 uH resonates at ~271 kHz: 36% off a 200 kHz carrier
    vp = validate(table2_raw(c_s=2e-9))
    assert len(vp.warnings) == 1
    assert "resonance" in vp.warnings[0]


def test_size_inductor_prototype_point():
    # Q=100 with the prototype coil ESR reproduces the 172 uH coil
    assert size_inductor(100.0, 2.16, 200e3) == pytest.approx(171.887e-6,
                                                              rel=1e-4)


def test_size_inductor_unit_cancellation():
    assert size_inductor(2 * math.pi, 1.0, 1.0) == pytest.approx(1.0,
                                                                 rel=1e-12)


def test_size_inductor_rejects_zero_q():
    with pytest.raises(NonPositiveParameter):
        size_inductor(0.0, 2.16, 200e3)


def test_size_series_cap_values():
    assert size_series_cap(172e-6, 200e3) == pytest.approx(3.6817e-9,
                                                           rel=1e-4)
    assert size_series_cap(1.0, 1 / (2 * math.pi)) == pytest.approx(1.0,
                                                                    rel=1e-12)
    assert size_series_cap(172e-6, 400e3) == pytest.approx(0.92043e-9,
                                                           rel=1e-4)


def test_min_output_cap_values():
    # 1% ripple budget at the prototype point
    assert min_output_cap(2.35, 0.01, 24.0, 200e3) == pytest.approx(
        15.584e-6, rel=1e-4)
    # inverting the deployed 1000 uF capacitor back through the budget
    assert min_output_cap(2.35, 1.558e-4, 24.0, 200e3) == pytest.approx(
        1000e-6, rel=2e-3)
    with pytest.raises(NonPositiveParameter):
        min_output_cap(2.35, 1.5, 24.0, 200e3)


def test_ripple_estimate_values():
    assert ripple_estimate(2.35, 200e3, 1000e-6) == pytest.approx(3.7401e-3,
                                                                  rel=1e-4)
    assert ripple_estimate(math.pi, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    # inverse proportionality in c_o
    one = ripple_estimate(2.35, 200e3, 500e-6)
    two = ripple_estimate(2.35, 200e3, 1000e-6)
    assert one == pytest.approx(2 * two, rel=1e-12)


def test_resonance_roundtrip_property():
    rng = np.random.default_rng(42)
    for _ in range(50):
        l_s = 10 ** rng.uniform(-6, -2)
        f_s = 10 ** rng.uniform(3, 7)
        c_s = size_series_cap(l_s, f_s)
        f_res = 1 / (2 * math.pi * math.sqrt(l_s * c_s))
        assert f_res == pytest.approx(f_s, rel=1e-12)


def test_cap_and_ripple_are_mutual_inverses():
    rng = np.random.default_rng(43)
    for _ in range(50):
        i_amp = 10 ** rng.uniform(-1, 1)
        frac = rng.uniform(1e-4, 0.5)
        v_o = 10 ** rng.uniform(0, 2)
        f_s = 10 ** rng.uniform(4, 6)
        c_o = min_output_cap(i_amp, frac, v_o, f_s)
        assert ripple_estimate(i_amp, f_s, c_o) == pytest.approx(frac * v_o,
                                                                 rel=1e-12)


def test_sizing_monotonicity():
    qs = [10, 50, 100, 300]
    ls = [size_inductor(q, 2.16, 200e3) for q in qs]
    assert all(a < b for a, b in zip(ls, ls[1:]))
    fs = [100e3, 200e3, 400e3, 800e3]
    cs = [size_series_cap(172e-6, f) for f in fs]
    assert all(a > b for a, b in zip(cs, cs[1:]))
    fracs = [0.001, 0.01, 0.1]
    caps = [min_output_cap(2.35, x, 24.0, 200e3) for x in fracs]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    amps = [0.5, 1.0, 2.0, 4.0]
    rips = [ripple_estimate(a, 200e3, 1000e-6) for a in amps]
    assert all(a < b for a, b in zip(rips, rips[1:]))
