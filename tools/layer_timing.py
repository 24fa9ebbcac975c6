"""Print the wall time of the toolkit's layers, one line per layer.

    python3 tools/layer_timing.py

Imports the ``src`` tree next to this script and times, on the built-in
table2 receiver:

* ``solve_operating_point``, approximate and exact fall time, over the 24
  cell midpoints of the regulable duty window at the config's f_s*t_f
  (``duty_bounds``), in us per call;
* ``vo_vs_duty_curve`` on fig4a's grid (4 loads x 499 duties), the
  heaviest caller of ``solve_operating_point``, in ms per call;
* ``run`` of 2000 cycles on the periodic orbit of the config's command
  (duty 0.532, f_s*t_f = 0.0672, the fig13 operating point), its columns
  and segment table included, in us per cycle;
* ``closed_loop_run`` on fig19's load step (6000 cycles), in us per cycle;
  every one of its cycles is hard-switched, so State I ends at the gate
  edge and reads its terms from the cycle constants;
* ``closed_loop_run`` on fig20's source ramp (6000 cycles, the amplitude
  changing on 2000 of them), in us per cycle; its first ~1100 cycles are
  hard-switched and the rest soft, where State I's end is located by
  Newton steps, so the two rows time the two State-I branches;
* ``periodic_steady_state`` of that command from the averaged output, in ms
  per solve;
* ``cycle_diagnostics`` (ledger, ripple extremes, device peaks) of a run
  of 32 orbit cycles, in us per cycle;
* the segment table build (``simulator._segment_table``) of a run of 400
  orbit cycles (the size of ``wptrx simulate``), in us per cycle;
* the ripple extremes (``simulator._conduction_extremes``) of every
  conduction segment of those 400 cycles, in us per segment.  With the
  ``run`` row (event location, columns and segment table) and the
  ``cycle_diagnostics`` row (ledger integrals and ripple extremes), this
  splits a switched cycle's cost into its parts;
* ``sample_waveform`` of those 32 cycles, and of the 400, at 256 samples
  per cycle, in us per sample;
* ``spectrum`` of one orbit cycle, 40 harmonics of v_cd1 and i_ls in one
  call (fig14's), in ms per call;
* ``cli._write_table`` of the 400 cycles' waveform (the ``waveform.csv``
  of ``wptrx simulate --cycles 400``, 102,400 rows) into a temporary
  directory, in ms per call;
* ``wptrx simulate --config table2 --cycles 400`` in process
  (``cli.main``), writing its three tables into a temporary directory, in
  ms per call: the end-to-end time of the rows above with the orbit solve
  and the small tables;

and, on the built-in fig7 receiver at its operating point (duty 0.5,
f_s*t_f = 0.1):

* ``perturb_bode_oracle`` on the 91-point fig7 grid, in ms per call;
* ``integrate_averaged`` over 0.1 s at 10 us samples, with the duty
  stepped up by 0.02 at 10 ms, in ms per call;

and, in fresh interpreters run on a copy of the package without its
``__pycache__`` and under ``PYTHONDONTWRITEBYTECODE=1``, so every process
compiles ``wptrx`` from source as one in a fresh checkout does:

* ``import wptrx, wptrx.cli``, timed inside the process, in ms;
* the wall time of ``python -m wptrx validate --config table2``,
  ``python -m wptrx reproduce fig7`` (on its built-in fig7 config) and
  ``python -m wptrx simulate --config table2 --cycles 400``, interpreter
  start-up included, in ms per process.  ``validate`` loads no layer past
  config validation, fig7 only the small-signal layer and ``simulate``
  only the simulator, so these rows show what each command's imports
  cost.

Each figure is the median of several repeats, after one warm-up call, so
a slow repeat on a shared host moves it little; the lowest and highest
repeat are printed beside it.  A run builds its segment table once, in
``run``, so the ``cycle_diagnostics`` and ``sample_waveform`` rows read it
and leave its build out; when a run kept one record per cycle and built
its segments on every read, those rows included that build, so they do
not compare like for like across that change.  Compare two commits by
running the script in a checkout of each, on the same machine, back to
back and several times in alternating order: rows taken in separate
processes drift with the host's load (on a shared 2-core VM, the same
commit's per-cycle stepping row has read 8.9 and 15.7 us per cycle minutes
apart), so one run of each side can show a change that is not there.
Needs numpy; about 5 s on a 2-core x86-64 VM, 3 of them in the
fresh-interpreter rows.
"""

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
TABLE2 = SRC / "wptrx" / "configs" / "table2.cfg"

from wptrx import averaged, cli, scenarios  # noqa: E402
from wptrx.analytic import (  # noqa: E402
    duty_bounds, solve_operating_point, steady_state_vo)
from wptrx.averaged import (  # noqa: E402
    AveragedState, DutySchedule, integrate_averaged)
from wptrx.config import parse_config  # noqa: E402
from wptrx.control import closed_loop_run  # noqa: E402
from wptrx.params import validate  # noqa: E402
from wptrx.simulator import (  # noqa: E402
    _CLAMPED, ModulationCommand, _conduction_extremes, _cycle_consts,
    _seg_rows, _segment_table, cycle_diagnostics, periodic_steady_state, run,
    sample_waveform, spectrum)
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
EXTREME_REPEATS = 21
SAMPLES_PER_CYCLE = 256
SAMPLE_REPEATS = 21
SPECTRUM_HARMONICS = 40
SPECTRUM_REPEATS = 21
TABLE_REPEATS = 11
SIMULATE_REPEATS = 11
ORACLE_REPEATS = 21
AVG_HORIZON = 0.1
AVG_STEP_AT = 0.01
AVG_STEP = 0.02
AVG_REPEATS = 21
FRESH_REPEATS = 7
IMPORT_CODE = ("import time; t0 = time.perf_counter(); "
               "import wptrx, wptrx.cli; print(time.perf_counter() - t0)")


def _spread(values: list) -> tuple:
    return statistics.median(values), min(values), max(values)


def _timed(fn, repeats: int, per: float) -> tuple:
    """(median, min, max) of ``repeats`` timed calls of ``fn``, each
    divided by ``per``, after one untimed call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / per)
    return _spread(times)


def _fresh_rows() -> tuple:
    """The fresh-interpreter rows: ``FRESH_REPEATS`` processes each, after
    one untimed process, on a copy of ``src/wptrx`` without bytecode."""
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(SRC / "wptrx", Path(root) / "wptrx",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=root)

        def python(*args) -> str:
            return subprocess.run([sys.executable, *args], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout

        python("-c", IMPORT_CODE)
        rows = [("import wptrx, wptrx.cli (fresh interpreter)", "ms",
                 _spread([float(python("-c", IMPORT_CODE)) * 1e3
                          for _ in range(FRESH_REPEATS)]))]
        out = str(Path(root) / "out")
        for label, argv in (
                ("validate --config table2", ("validate", "--config",
                                              str(TABLE2))),
                ("reproduce fig7", ("reproduce", "fig7", "--out", out)),
                (f"simulate --config table2 --cycles {SIMULATE_CYCLES}",
                 ("simulate", "--config", str(TABLE2), "--cycles",
                  str(SIMULATE_CYCLES), "--out", out))):
            rows.append((f"python -m wptrx {label} (fresh interpreter)",
                         "ms/process",
                         _timed(lambda: python("-m", "wptrx", *argv),
                                FRESH_REPEATS, 1e-3)))
    return tuple(rows)


def main() -> int:
    rc = parse_config(TABLE2)
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

    sc = scenarios.load_step_scenario(vp, rc.v_ref, rc.feedforward_amp,
                                      r_low=36.0)
    gains = scenarios.design_gains(vp, rc.v_ref, sc.i_ls_ff, rc.f_c)
    n_loop = len(closed_loop_run(sc, gains, vp).t)
    sc_ramp, p_ramp = cli._source_ramp(vp, rc)
    gains_ramp = scenarios.design_gains(p_ramp, rc.v_ref, sc_ramp.i_ls_ff,
                                        rc.f_c)
    n_ramp = len(closed_loop_run(sc_ramp, gains_ramp, p_ramp).t)
    short = run(vp, cmd, SAMPLE_CYCLES, initial=orbit.state)
    rate = SAMPLES_PER_CYCLE * vp.f_s
    wave = sample_waveform(short, rate)
    long = run(vp, cmd, SIMULATE_CYCLES, initial=orbit.state)
    long_wave = sample_waveform(long, rate)
    consts = _cycle_consts(vp, vp.r_load, vp.i_ls_amp, cmd.t_f)
    conducting = [seg for seg in _seg_rows(long.segments)
                  if seg.state in _CLAMPED]
    one = run(vp, cmd, 1, initial=orbit.state)
    tau = vp.r_load * vp.c_o
    n_long = len(long_wave.t)
    wave_header = "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    wave_columns = [getattr(long_wave, f) for f in wave_header.split(",")]
    with tempfile.TemporaryDirectory() as table_dir:
        table_time = _timed(lambda: cli._write_table(
            table_dir, "waveform.csv", wave_header, wave_columns),
            TABLE_REPEATS, 1e-3)
        simulate_argv = ["simulate", "--config", str(TABLE2), "--cycles",
                         str(SIMULATE_CYCLES), "--out", table_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            simulate_time = _timed(lambda: cli.main(simulate_argv),
                                   SIMULATE_REPEATS, 1e-3)

    rc7 = parse_config(SRC / "wptrx" / "configs" / "fig7.cfg")
    vp7 = validate(rc7.params)
    op7 = cli._nominal_op(vp7, rc7)
    sched = DutySchedule((0.0, AVG_STEP_AT), (op7.duty, op7.duty + AVG_STEP),
                         (op7.phase_delay_norm,) * 2)
    start = AveragedState(v_o=steady_state_vo(
        vp7.i_ls_amp, vp7.r_load, op7.duty, op7.phase_delay_norm), t=0.0)

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
        (f"run, table2 orbit ({STEP_CYCLES} cycles)", "us/cycle",
         _timed(lambda: run(vp, cmd, STEP_CYCLES, initial=orbit.state),
                STEP_REPEATS, STEP_CYCLES / 1e6)),
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
         _timed(lambda: cycle_diagnostics(short), DIAG_REPEATS,
                SAMPLE_CYCLES / 1e6)),
        (f"_segment_table, {SIMULATE_CYCLES} orbit cycles", "us/cycle",
         _timed(lambda: _segment_table(long.columns, consts),
                SEGMENT_REPEATS, SIMULATE_CYCLES / 1e6)),
        (f"ripple extremes, {len(conducting)} conduction segments of "
         f"{SIMULATE_CYCLES} orbit cycles", "us/segment",
         _timed(lambda: [_conduction_extremes(seg, tau, vp.omega,
                                              vp.i_ls_amp, vp.r_load)
                         for seg in conducting],
                EXTREME_REPEATS, len(conducting) / 1e6)),
        (f"sample_waveform, {SAMPLE_CYCLES} cycles", "us/sample",
         _timed(lambda: sample_waveform(short, rate), SAMPLE_REPEATS,
                len(wave.t) / 1e6)),
        (f"sample_waveform, {SIMULATE_CYCLES} cycles", "us/sample",
         _timed(lambda: sample_waveform(long, rate), SAMPLE_REPEATS,
                n_long / 1e6)),
        (f"spectrum, 1 orbit cycle, v_cd1 and i_ls "
         f"({SPECTRUM_HARMONICS} harmonics)", "ms/call",
         _timed(lambda: spectrum(one, ("v_cd1", "i_ls"),
                                 SPECTRUM_HARMONICS),
                SPECTRUM_REPEATS, 1e-3)),
        (f"_write_table, {SIMULATE_CYCLES}-cycle waveform ({n_long} rows)",
         "ms/call", table_time),
        (f"wptrx simulate, table2, {SIMULATE_CYCLES} cycles (in process)",
         "ms/call", simulate_time),
        (f"perturb_bode_oracle, fig7 ({len(cli._BODE_GRID)} frequencies)",
         "ms/call",
         _timed(lambda: perturb_bode_oracle(vp7, op7, cli._BODE_GRID),
                ORACLE_REPEATS, 1e-3)),
        (f"integrate_averaged, fig7 ({AVG_HORIZON:g} s at 10 us)", "ms/call",
         _timed(lambda: integrate_averaged(start, sched, AVG_HORIZON, vp7),
                AVG_REPEATS, 1e-3)),
    ) + _fresh_rows()
    for name, unit, (med, lo, hi) in rows:
        print(f"{name}: {med:.3g} {unit} (min {lo:.3g}, max {hi:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
