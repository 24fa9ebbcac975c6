"""The package's bracketed root solver, ``bisect_root``.

Callers: ``simulator._conduction_extremes`` (the output-ripple extremes,
one call per bracket it builds in closed form), the orbit solves
``simulator.periodic_steady_state`` (v_o) and ``control.closed_loop_orbit``
(the duty on the PI duty window), and ``control._spectral_radius`` (the
real root of a characteristic cubic).  The name is from when it only
bisected; perfbench labels its per-layer metrics by it.
"""

import math
from typing import Callable


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                xtol: float) -> float:
    """A root of ``f`` in ``[lo, hi]``, within ``xtol`` on the abscissa
    (0: to adjacent floats), given ``f`` changes sign between the ends; an
    end where ``f`` is exactly zero is returned, and ends of one sign raise
    ValueError.  Illinois steps (Dowell & Jarratt, BIT 11, 1971): false
    position, halving the value at an end that two steps running left in
    place.  A step onto an end moves one float inside, so the far end
    closes in; a NaN step (an infinite f at an end) bisects.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    lo_neg = flo < 0.0  # f has this sign at lo, the other at hi
    if (fhi < 0.0) == lo_neg:  # not flo * fhi, which can underflow to 0
        raise ValueError(f"root not bracketed on [{lo}, {hi}]: f={flo}, {fhi}")
    kept = 0  # the end the last step left in place: -1 lo, +1 hi
    while hi - lo > xtol:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if x != x:
            x = 0.5 * (lo + hi)
        x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < x < hi:  # bracket collapsed to adjacent floats
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) != lo_neg:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        else:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
    return 0.5 * (lo + hi)
