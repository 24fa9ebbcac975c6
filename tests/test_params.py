"""Parameter validation and sizing-rule tests."""

import math

import numpy as np
import pytest

from wptrx.errors import NonPositiveParameter
from wptrx.params import (ReceiverParams, min_output_cap, ripple_estimate,
                          size_inductor, size_series_cap, validate)


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
