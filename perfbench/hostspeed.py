"""Host-speed calibration: fixed work of the benchmark's own, timed beside
the program's work.

On a shared host the same op can take 1.5-2x longer for minutes at a time
(see README, "Noise that sizes the runs").  The benchmark therefore reports
times scaled to a reference host:

* op and layer times by a pure-Python chunk run before every op, which takes
  ``REF_CHUNK_S`` on the reference host:
  ``reference time = measured time * REF_CHUNK_S / chunk time``.  An op's
  latency is scaled by the chunk run just before it, which shares the host's
  state with it; throughput and layer times by the mean chunk of the run;
* set-up times by ``import_calibration.py``, a fresh interpreter importing a
  fixed set of standard-library packages right after each set-up probe,
  which takes ``REF_IMPORT_S`` on the reference host.

The chunk resembles the program's hot path (closed-form exponential and
sinusoid evaluations inside a bisection loop).  Neither calibration calls
the program, so a change to the program moves the scaled figures exactly as
it moves the measured ones.  The measured figures are printed beside them.
"""

import math
import statistics
import time

REF_CHUNK_S = 5.0e-3   # chunk time on the reference host (s)
REF_IMPORT_S = 0.07    # import_calibration.py time on the reference host (s)
_CHUNK_ITERS = 2000


def chunk() -> float:
    """Run one calibration chunk; returns its wall time (s)."""
    t0 = time.perf_counter()
    tau = 0.038
    w = 2.0 * math.pi * 2e5

    def v(th, h, p_s, p_c):
        return (h * math.exp(-th / tau) + p_s * math.sin(w * th)
                + p_c * math.cos(w * th))

    for _ in range(_CHUNK_ITERS):
        lo, hi = 0.0, 2.5e-6
        for _ in range(10):
            mid = 0.5 * (lo + hi)
            if v(mid, 1.0, 0.3, -0.2) > 1.0:
                hi = mid
            else:
                lo = mid
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns a run's measured times into reference-host times."""
    return REF_CHUNK_S / statistics.mean(samples)
