"""Print the wall time of the toolkit's layers, one line per layer.

    python3 tools/layer_timing.py

Imports the ``src`` tree next to this script and times, on the built-in
table2 receiver:

* ``step_cycle`` on the periodic orbit of the config's command (duty 0.532,
  f_s*t_f = 0.0672, the fig13 operating point), in us per cycle;
* ``closed_loop_run`` on fig19's load step (6000 cycles), in us per cycle;
* ``closed_loop_run`` on fig20's source ramp (6000 cycles, the amplitude
  changing on 2000 of them), in us per cycle;
* ``periodic_steady_state`` of that command from the averaged output, in ms
  per solve;
* ``sample_waveform`` of 32 orbit cycles at 256 samples per cycle, in us
  per sample;

and, on the built-in fig7 receiver at its operating point (duty 0.5,
f_s*t_f = 0.1):

* ``perturb_bode_oracle`` on the 91-point fig7 grid, in ms per call;
* ``integrate_averaged`` over 0.1 s at 10 us samples, with the duty
  stepped up by 0.02 at 10 ms, in ms per call.

Each figure is the median of several repeats, after one warm-up call, so
a slow repeat on a shared host moves it little; the lowest and highest
repeat are printed beside it.  Compare two commits by running the script
in a checkout of each, on the same machine, one right after the other.
Needs numpy; about 3 s on a 2-core x86-64 VM.
"""

import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from wptrx import cli, scenarios  # noqa: E402
from wptrx.analytic import steady_state_vo  # noqa: E402
from wptrx.averaged import (  # noqa: E402
    AveragedState, DutySchedule, integrate_averaged)
from wptrx.config import parse_config  # noqa: E402
from wptrx.control import closed_loop_run  # noqa: E402
from wptrx.params import validate  # noqa: E402
from wptrx.simulator import (  # noqa: E402
    ModulationCommand, periodic_steady_state, run, sample_waveform,
    step_cycle)
from wptrx.smallsignal import perturb_bode_oracle  # noqa: E402

STEP_CYCLES = 2000
STEP_REPEATS = 15
LOOP_REPEATS = 7
ORBIT_REPEATS = 51
SAMPLE_CYCLES = 32
SAMPLES_PER_CYCLE = 256
SAMPLE_REPEATS = 21
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
    n_samples = len(sample_waveform(pieces, vp, rate).t)

    rc7 = parse_config(SRC / "wptrx" / "configs" / "fig7.cfg")
    vp7 = validate(rc7.params)
    op7 = cli._nominal_op(vp7, rc7)
    sched = DutySchedule((0.0, AVG_STEP_AT), (op7.duty, op7.duty + AVG_STEP),
                         (op7.phase_delay_norm,) * 2)
    start = AveragedState(v_o=op7.v_o, t=0.0)

    rows = (
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
        (f"sample_waveform, {SAMPLE_CYCLES} cycles", "us/sample",
         _timed(lambda: sample_waveform(pieces, vp, rate), SAMPLE_REPEATS,
                n_samples / 1e6)),
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
