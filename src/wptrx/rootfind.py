"""Bracketed bisection for the output-ripple extremes.

Its one caller is ``simulator._conduction_extremes``, which brackets the
stationary points of v_o of all conduction segments at once, as array
expressions in closed form, then hands each bracket here, one call per
root, to be checked and, where it is still wider than the tolerance,
bisected.  The commutation events no longer use it: the simulator locates
them in closed form and by safeguarded Newton.
"""

from typing import Callable


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                xtol: float) -> float:
    """Smallest root of ``f`` in ``[lo, hi]`` given ``f(lo)`` and ``f(hi)``
    bracket a sign change.  Absolute tolerance on the abscissa.

    ``f(lo)`` may be exactly zero (returns ``lo``); likewise for ``hi``.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"root not bracketed on [{lo}, {hi}]: f={flo}, {fhi}")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket collapsed to adjacent floats
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
