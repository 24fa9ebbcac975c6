"""The bracketed root solver: its contract at the ends, its bisection
fallback and its convergence to adjacent floats."""

import math

import pytest

from wptrx.rootfind import bisect_root


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def test_exact_zero_ends_are_returned():
    assert bisect_root(lambda x: x - 1.0, 1.0, 2.0, 0.0) == 1.0
    assert bisect_root(lambda x: x - 2.0, 1.0, 2.0, 0.0) == 2.0


def test_infinite_end_bisects():
    # f(hi) = inf makes the false-position step NaN
    root = bisect_root(lambda x: x * x - 2.0 if x < 2.0 else math.inf, 0.0,
                       3.0, 0.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(root)


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: 1e-200],
                         ids=["positive", "tiny"])
def test_no_sign_change_raises(f):
    # 1e-200 * 1e-200 underflows to 0, so a product test misses the tiny case
    with pytest.raises(ValueError, match="not bracketed"):
        bisect_root(f, -1.0, 1.0, 0.0)


@pytest.mark.parametrize("step_at", [1e-7, 0.1234567, 0.3, 0.999])
@pytest.mark.parametrize("xtol", [1e-9, 0.0])
def test_step_function_lands_within_xtol(step_at, xtol):
    # f is -1 or +1 on either side: false position has no slope to follow
    root = bisect_root(lambda x: -1.0 if x < step_at else 1.0, 0.0, 1.0,
                       xtol)
    assert abs(root - step_at) <= max(xtol, math.ulp(step_at))


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 3.0, 0.0, 4.0),
], ids=["cubic", "cos", "exp"])
def test_smooth_monotone_root_reaches_adjacent_floats(f, lo, hi):
    # bisection alone takes 53 to 56 evaluations to adjacent floats
    g, calls = _counted(f)
    root = bisect_root(g, lo, hi, 0.0)
    assert len(calls) <= 20
    below, above = math.nextafter(root, -math.inf), math.nextafter(root,
                                                                   math.inf)
    assert f(root) == 0.0 or (f(below) < 0.0) != (f(above) < 0.0)
