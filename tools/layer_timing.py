"""Print the wall time of the toolkit's layers, one line per layer.

    python3 tools/layer_timing.py

Imports the ``src`` tree next to this script and times, on the built-in
table2 receiver:

* ``solve_operating_point``, approximate and exact fall time, over the 24
  cell midpoints of the regulable duty window at the config's f_s*t_f
  (``duty_bounds``), in us per call;
* ``vo_vs_duty_curve`` on fig4a's grid (4 loads x 499 duties), the
  heaviest caller of ``solve_operating_point``, in ms per call;
* ``step_cycle`` on the periodic orbit of the config's command (duty 0.532,
  f_s*t_f = 0.0672, the fig13 operating point), in us per cycle;
* ``closed_loop_run`` on fig19's load step (6000 cycles), in us per cycle;
* ``closed_loop_run`` on fig20's source ramp (6000 cycles, the amplitude
  changing on 2000 of them), in us per cycle;
* ``periodic_steady_state`` of that command from the averaged output, in ms
  per solve;
* ``cycle_diagnostics`` (ledger, ripple extremes, device peaks) of 32
  orbit cycles, in us per cycle;
* ``CyclePiece.segments`` of 400 orbit cycles (the size of ``wptrx
  simulate``), in us per cycle;
* ``sample_waveform`` of those 32 cycles, and of the 400, at 256 samples
  per cycle, in us per sample;
* ``spectrum`` of one orbit cycle, 40 harmonics of v_cd1 and i_ls in one
  call (fig14's), in ms per call;

and, on the built-in fig7 receiver at its operating point (duty 0.5,
f_s*t_f = 0.1):

* ``perturb_bode_oracle`` on the 91-point fig7 grid, in ms per call;
* ``integrate_averaged`` over 0.1 s at 10 us samples, with the duty
  stepped up by 0.02 at 10 ms, in ms per call.

Each figure is the median of several repeats, after one warm-up call, so
a slow repeat on a shared host moves it little; the lowest and highest
repeat are printed beside it.  A piece builds its segments on every read,
so the ``cycle_diagnostics`` and ``sample_waveform`` rows include building
them on every repeat.  Before pieces stopped caching their segments, those
rows read the cache after the warm-up call and left that cost out, so they
do not compare like for like across that change.  Compare two commits by
running the script in a checkout of each, on the same machine, one right
after the other.
Needs numpy; about 3 s on a 2-core x86-64 VM.
"""

import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from wptrx import averaged, cli, scenarios  # noqa: E402
from wptrx.analytic import (  # noqa: E402
    duty_bounds, solve_operating_point, steady_state_vo)
from wptrx.averaged import (  # noqa: E402
    AveragedState, DutySchedule, integrate_averaged)
from wptrx.config import parse_config  # noqa: E402
from wptrx.control import closed_loop_run  # noqa: E402
from wptrx.params import validate  # noqa: E402
from wptrx.simulator import (  # noqa: E402
    ModulationCommand, cycle_diagnostics, periodic_steady_state, run,
    sample_waveform, spectrum, step_cycle)
from wptrx.smallsignal import perturb_bode_oracle  # noqa: E402

OP_DUTIES = 24
OP_REPEATS = 51
CURVE_REPEATS = 11
STEP_CYCLES = 2000
STEP_REPEATS = 15
LOOP_REPEATS = 7
ORBIT_REPEATS = 51
SAMPLE_CYCLES = 32
SIMULATE_CYCLES = 400
DIAG_REPEATS = 51
SEGMENT_REPEATS = 21
SAMPLES_PER_CYCLE = 256
SAMPLE_REPEATS = 21
SPECTRUM_HARMONICS = 40
SPECTRUM_REPEATS = 21
ORACLE_REPEATS = 21
AVG_HORIZON = 0.1
AVG_STEP_AT = 0.01
AVG_STEP = 0.02
AVG_REPEATS = 21


def _timed(fn, repeats: int, per: float) -> tuple:
    """(median, min, max) of ``repeats`` timed calls of ``fn``, each
    divided by ``per``, after one untimed call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / per)
    return statistics.median(times), min(times), max(times)


def main() -> int:
    rc = parse_config(SRC / "wptrx" / "configs" / "table2.cfg")
    vp = validate(rc.params)
    cmd = ModulationCommand(rc.duty, rc.phase_delay_norm / vp.f_s)
    v_guess = steady_state_vo(vp.i_ls_amp, vp.r_load, rc.duty,
                              rc.phase_delay_norm)
    orbit = periodic_steady_state(vp, cmd, v_guess)
    lo, hi = duty_bounds(rc.phase_delay_norm)
    op_duties = [lo + (hi - lo) * (k + 0.5) / OP_DUTIES
                 for k in range(OP_DUTIES)]

    curve_duties = cli._duty_grid()

    def operating_points(exact):
        for d in op_duties:
            solve_operating_point(vp, d, exact)

    def cycles():
        state = orbit.state
        for _ in range(STEP_CYCLES):
            state = step_cycle(state, cmd, vp)[0]

    sc = scenarios.load_step_scenario(vp, rc.v_ref, rc.feedforward_amp,
                                      r_low=36.0)
    gains = scenarios.design_gains(vp, rc.v_ref, sc.i_ls_ff, rc.f_c)
    n_loop = len(closed_loop_run(sc, gains, vp).t)
    sc_ramp, p_ramp = cli._source_ramp(vp, rc)
    gains_ramp = scenarios.design_gains(p_ramp, rc.v_ref, sc_ramp.i_ls_ff,
                                        rc.f_c)
    n_ramp = len(closed_loop_run(sc_ramp, gains_ramp, p_ramp).t)
    pieces = run(vp, cmd, SAMPLE_CYCLES, initial=orbit.state).pieces
    rate = SAMPLES_PER_CYCLE * vp.f_s
    wave = sample_waveform(pieces, rate)
    long_pieces = run(vp, cmd, SIMULATE_CYCLES, initial=orbit.state).pieces
    n_long = len(sample_waveform(long_pieces, rate).t)

    rc7 = parse_config(SRC / "wptrx" / "configs" / "fig7.cfg")
    vp7 = validate(rc7.params)
    op7 = cli._nominal_op(vp7, rc7)
    sched = DutySchedule((0.0, AVG_STEP_AT), (op7.duty, op7.duty + AVG_STEP),
                         (op7.phase_delay_norm,) * 2)
    start = AveragedState(v_o=op7.v_o, t=0.0)

    rows = (
        (f"solve_operating_point approx, table2 ({OP_DUTIES} duties)",
         "us/call",
         _timed(lambda: operating_points(False), OP_REPEATS, OP_DUTIES / 1e6)),
        (f"solve_operating_point exact, table2 ({OP_DUTIES} duties)",
         "us/call",
         _timed(lambda: operating_points(True), OP_REPEATS, OP_DUTIES / 1e6)),
        (f"vo_vs_duty_curve, fig4a ({len(cli._FIG4A_LOADS)} loads x "
         f"{len(curve_duties)} duties)", "ms/call",
         _timed(lambda: averaged.vo_vs_duty_curve(vp, cli._FIG4A_LOADS,
                                                  curve_duties),
                CURVE_REPEATS, 1e-3)),
        ("step_cycle, table2 orbit", "us/cycle",
         _timed(cycles, STEP_REPEATS, STEP_CYCLES / 1e6)),
        (f"closed_loop_run, fig19 load step ({n_loop} cycles)", "us/cycle",
         _timed(lambda: closed_loop_run(sc, gains, vp), LOOP_REPEATS,
                n_loop / 1e6)),
        (f"closed_loop_run, fig20 source ramp ({n_ramp} cycles)", "us/cycle",
         _timed(lambda: closed_loop_run(sc_ramp, gains_ramp, p_ramp),
                LOOP_REPEATS, n_ramp / 1e6)),
        (f"periodic_steady_state, table2 ({orbit.cycles} cycles)",
         "ms/solve",
         _timed(lambda: periodic_steady_state(vp, cmd, v_guess),
                ORBIT_REPEATS, 1e-3)),
        (f"cycle_diagnostics, {SAMPLE_CYCLES} orbit cycles", "us/cycle",
         _timed(lambda: [cycle_diagnostics(p) for p in pieces], DIAG_REPEATS,
                SAMPLE_CYCLES / 1e6)),
        (f"CyclePiece.segments, {SIMULATE_CYCLES} orbit cycles", "us/cycle",
         _timed(lambda: [p.segments for p in long_pieces], SEGMENT_REPEATS,
                SIMULATE_CYCLES / 1e6)),
        (f"sample_waveform, {SAMPLE_CYCLES} cycles", "us/sample",
         _timed(lambda: sample_waveform(pieces, rate), SAMPLE_REPEATS,
                len(wave.t) / 1e6)),
        (f"sample_waveform, {SIMULATE_CYCLES} cycles", "us/sample",
         _timed(lambda: sample_waveform(long_pieces, rate), SAMPLE_REPEATS,
                n_long / 1e6)),
        (f"spectrum, 1 orbit cycle, v_cd1 and i_ls "
         f"({SPECTRUM_HARMONICS} harmonics)", "ms/call",
         _timed(lambda: spectrum(pieces[:1], ("v_cd1", "i_ls"),
                                 SPECTRUM_HARMONICS),
                SPECTRUM_REPEATS, 1e-3)),
        (f"perturb_bode_oracle, fig7 ({len(cli._BODE_GRID)} frequencies)",
         "ms/call",
         _timed(lambda: perturb_bode_oracle(vp7, op7, cli._BODE_GRID),
                ORACLE_REPEATS, 1e-3)),
        (f"integrate_averaged, fig7 ({AVG_HORIZON:g} s at 10 us)", "ms/call",
         _timed(lambda: integrate_averaged(start, sched, AVG_HORIZON, vp7),
                AVG_REPEATS, 1e-3)),
    )
    for name, unit, (med, lo, hi) in rows:
        print(f"{name}: {med:.3g} {unit} (min {lo:.3g}, max {hi:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
