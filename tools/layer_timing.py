"""Print the wall time of the toolkit's layers, one line per layer.

    python3 tools/layer_timing.py [--json PATH]

``--json PATH`` also writes every row (label, unit, median, min, max, and
the fields some rows carry besides, named below) to ``PATH``, with the
commit of the checkout (``+dirty`` when ``src`` or ``tools`` has
uncommitted changes) and the Python and numpy versions.  A row's label is
the same on every commit; what a run finds (a solve's cycle count, a
share) goes into its fields, which the printed line shows after a ``;``.

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
  hard-switched and the rest soft, where State I's end is located from
  the lossless root, so the two rows time the two State-I branches;
* the State I turn-on (``simulator._turn_on_time``) of the soft orbit of
  ``wptrx simulate --config table2`` (duty 0.532, gated at the exact fall
  time of its operating point), and of every soft cycle of that source
  ramp, in us per call; field ``accepted``: the share of those calls
  returned by the one Newton step its bound accepts (the step evaluates
  no cos, a safeguarded Newton step one each, so the calls are counted
  through a stand-in for ``math`` in the simulator's namespace, outside
  the timing), and, on the ramp, ``calls``: their number;
* ``coupling_sweep`` on fig17's grid (12 amplitudes at its 57.6 Ohm load,
  each point a PI design and a closed-loop orbit solve closed by one
  ``run`` cycle), in ms per point;
* ``periodic_steady_state`` of that command, in ms per solve; field
  ``cycles``: the cycles one solve stepped;
* ``cycle_diagnostics`` (ledger, ripple extremes, device peaks) of a run
  of 32 orbit cycles, in us per cycle, and of a run of 400 (the size of
  ``wptrx simulate``), in ms per call;
* the segment table build (``simulator._segment_table``) of those 400
  orbit cycles, in us per cycle;
* the ripple extremes (``simulator._conduction_extremes``, one call over
  the columns of every conduction segment of those 400 cycles, given
  sin(w th) and v_o at the segments' ends), in us per segment.  With the
  ``run`` row (event location, columns and segment table) and the
  ``cycle_diagnostics`` rows (ledger integrals and ripple extremes), this
  splits a switched cycle's cost into its parts;
* ``sample_waveform`` of those 32 cycles, and of the 400, at 256 samples
  per cycle, in us per sample;
* ``spectrum`` of one orbit cycle, 40 harmonics of v_cd1 and i_ls in one
  call (fig14's), in ms per call;
* ``table.write_table``, the one table writer, of the 400 cycles'
  waveform (the ``waveform.csv`` of ``wptrx simulate --cycles 400``,
  102,400 rows), in ms per call; the module is imported before the
  timing, so its kernel tables are built once, outside the row;
* the event table of those 400 cycles, ``RunResult.events`` built on a
  copy of the run that has not cached it and written by ``write_table``
  (``events.csv``, 2,400 rows), in ms per call;
* the capture stage of ``wptrx simulate`` on those 400 cycles
  (``cli._write_capture``, which fig13 runs too): the events built on a
  copy of the run that has not cached them, the waveform sampled and
  written (``waveform.csv``; the sampler's blocks streamed into the
  writer) and the event table written, in ms per call.  It is what a
  capture pays for the work of the 400-cycle ``sample_waveform``, waveform
  and event rows above;
* fig14's three small tables (two 40-harmonic spectra and the two-row
  summary) written by ``write_table`` from a precomputed spectrum, in ms
  per call: the writer's fixed cost per table;
* ``wptrx simulate --config table2 --cycles 400`` in process
  (``cli.main``), writing its three tables, in ms per call: the end-to-end
  time of the rows above with the orbit solve and the diagnostics table;

and, on the built-in fig7 receiver at its operating point (duty 0.5,
f_s*t_f = 0.1):

* ``perturb_bode_oracle`` on the 91-point fig7 grid, in ms per call;
* ``integrate_averaged`` over 0.1 s at 10 us samples, with the duty
  stepped up by 0.02 at 10 ms, in ms per call;

and, in fresh interpreters run on a copy of the package without its
``__pycache__`` and under ``PYTHONDONTWRITEBYTECODE=1``, so every process
compiles ``wptrx`` from source as one in a fresh checkout does:

* ``import wptrx, wptrx.cli``, timed inside the process, in ms;
* the wall time of ``python -m wptrx validate --config table2``, of
  ``python -m wptrx reproduce`` of every figure (``cli.FIGURES``, each on
  its built-in config) and of
  ``python -m wptrx simulate --config table2 --cycles 400``, interpreter
  start-up included, in ms per process.  ``validate`` loads no layer past
  config validation, fig7 only the small-signal layer and ``simulate``
  only the simulator, so these rows show what each command's imports
  cost, and the figure rows what a whole ``reproduce`` costs figure by
  figure.  ``import wptrx, wptrx.cli`` and ``validate`` load no numpy;
  every command that writes or prints a table loads it, with
  ``wptrx.table``, at its first table.

The rows that write tables, the fresh-interpreter ones included, write
each repeat into a new, empty directory, as a benchmark op does; making
and removing it is not timed.  Writing over the previous repeat's files
instead costs what no op pays: on a 2-core x86-64 VM's ext4 volume mounted
with ``discard``, the waveform row read 34.7-38.3 ms that way against
29.4-30.0 ms into new directories (medians of 11, two runs each).

Two reference rows time fixed work that calls nothing of the toolkit, in
the same run as the rows above, so two runs (two commits, or two
sessions on one host) can be scaled to the same host speed: the
pure-Python chunk of the benchmark's host-speed calibration
(``perfbench/hostspeed.py``'s ``chunk()``, loaded read-only from its
file), and a fixed loop of numpy array arithmetic on 4096 elements.

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
Needs numpy; about 20 s on a 2-core x86-64 VM, 15 of them in the
fresh-interpreter rows.
"""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import platform
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
TABLE2 = SRC / "wptrx" / "configs" / "table2.cfg"
HOSTSPEED = SRC.parent / "perfbench" / "hostspeed.py"

from wptrx import averaged, cli, scenarios, simulator, table  # noqa: E402
from wptrx.analytic import (  # noqa: E402
    duty_bounds, fall_time_exact, solve_operating_point, steady_state_vo)
from wptrx.averaged import (  # noqa: E402
    AveragedState, DutySchedule, integrate_averaged)
from wptrx.config import parse_config  # noqa: E402
from wptrx.control import closed_loop_run  # noqa: E402
from wptrx.params import validate  # noqa: E402
from wptrx.simulator import (  # noqa: E402
    _CLAMPED, ModulationCommand, _conduction_extremes, _cycle_consts,
    _segment_table, _terms_at, cycle_diagnostics, periodic_steady_state, run,
    sample_waveform, spectrum)
from wptrx.smallsignal import perturb_bode_oracle  # noqa: E402

OP_DUTIES = 24
OP_REPEATS = 51
CURVE_REPEATS = 11
STEP_CYCLES = 2000
STEP_REPEATS = 15
LOOP_REPEATS = 7
SWEEP_REPEATS = 21
ORBIT_REPEATS = 51
TURN_ON_CALLS = 1000
TURN_ON_REPEATS = 21
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
EVENTS_REPEATS = 21
SMALL_TABLE_REPEATS = 51
SIMULATE_REPEATS = 11
HOST_REPEATS = 21
NUMPY_LOOP_ITERS = 200
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


def _timed_into(write, repeats: int, per: float) -> tuple:
    """``_timed`` of ``write(out)``, each call (the warm-up included) into
    a new, empty directory ``out``, made and removed outside the timing."""
    times = []
    with tempfile.TemporaryDirectory() as root:
        for k in range(repeats + 1):
            out = os.path.join(root, str(k))
            os.makedirs(out)
            t0 = time.perf_counter()
            write(out)
            dt = time.perf_counter() - t0
            shutil.rmtree(out)
            if k:
                times.append(dt / per)
    return _spread(times)


def _turn_ons(fn) -> list:
    """The arguments of every State I turn-on ``fn()`` locates, in order:
    ``simulator._turn_on_time`` is swapped for a recorder while it runs."""
    calls = []
    turn_on = simulator._turn_on_time

    def recorder(*args):
        calls.append(args)
        return turn_on(*args)
    simulator._turn_on_time = recorder
    try:
        fn()
    finally:
        simulator._turn_on_time = turn_on
    return calls


def _accepted(calls: list) -> float:
    """The share of the turn-ons ``calls`` that ``_turn_on_time`` returns
    from its one Newton step, with no cos call: each safeguarded Newton
    step calls cos once, counted on a stand-in for the simulator's
    ``math``."""
    cos_calls = [0]

    def cos(x):
        cos_calls[0] += 1
        return math.cos(x)
    real = simulator.math
    simulator.math = types.SimpleNamespace(**{**vars(math), "cos": cos})
    try:
        one_step = 0
        for args in calls:
            before = cos_calls[0]
            simulator._turn_on_time(*args)
            one_step += cos_calls[0] == before
    finally:
        simulator.math = real
    return one_step / len(calls)


def _turn_on_time_row(label: str, turn_ons: list, repeats: int,
                      **fields) -> tuple:
    """A row timing ``_turn_on_time`` over ``turn_ons`` ``repeats`` times
    each (loop included), in us per call, with its ``accepted`` share and
    ``fields``."""
    turn_on = simulator._turn_on_time

    def locate():
        for args in turn_ons:
            turn_on(*args)
    return (label, "us/call",
            _timed(locate, repeats, len(turn_ons) * 1e-6),
            {"accepted": _accepted(turn_ons), **fields})


def _numpy_loop() -> None:
    """Fixed numpy work: ``NUMPY_LOOP_ITERS`` rounds of elementwise
    arithmetic, a transcendental, a gather and a reduction on 4096
    elements."""
    x = np.linspace(0.0, 1.0, 4096)
    index = np.arange(4096)[::-1].copy()
    for _ in range(NUMPY_LOOP_ITERS):
        x = np.sin(x * 3.0 + 0.5)[index]
        x -= x.mean()


def _host_rows() -> tuple:
    """The reference rows: fixed work that calls nothing of the toolkit."""
    spec = importlib.util.spec_from_file_location("hostspeed", HOSTSPEED)
    hostspeed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hostspeed)
    return (("host reference: perfbench hostspeed.chunk() (pure Python)",
             "ms/call", _timed(hostspeed.chunk, HOST_REPEATS, 1e-3)),
            (f"host reference: numpy loop ({NUMPY_LOOP_ITERS} x 4096 "
             f"elements)", "ms/call",
             _timed(_numpy_loop, HOST_REPEATS, 1e-3)))


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
        rows.append(("python -m wptrx validate --config table2 (fresh "
                     "interpreter)", "ms/process",
                     _timed(lambda: python("-m", "wptrx", "validate",
                                           "--config", str(TABLE2)),
                            FRESH_REPEATS, 1e-3)))
        for label, argv in (
                *((f"reproduce {fig}", ("reproduce", fig))
                  for fig in cli.FIGURES),
                (f"simulate --config table2 --cycles {SIMULATE_CYCLES}",
                 ("simulate", "--config", str(TABLE2), "--cycles",
                  str(SIMULATE_CYCLES)))):
            rows.append((f"python -m wptrx {label} (fresh interpreter)",
                         "ms/process",
                         _timed_into(lambda out: python(
                             "-m", "wptrx", *argv, "--out", out),
                             FRESH_REPEATS, 1e-3)))
    return tuple(rows)


def _commit() -> str:
    """HEAD of the checkout this script sits in, ``+dirty`` when ``src`` or
    ``tools`` differ from it; ``unknown`` outside a git checkout."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=SRC.parent, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "tools")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the toolkit's layers.")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the rows and the versions to PATH")
    args = parser.parse_args(argv)
    rc = parse_config(TABLE2)
    vp = validate(rc.params)
    cmd = ModulationCommand(rc.duty, rc.phase_delay_norm / vp.f_s)
    orbit = periodic_steady_state(vp, cmd)
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
    ramp_turn_ons = _turn_ons(
        lambda: closed_loop_run(sc_ramp, gains_ramp, p_ramp))
    # the soft orbit of wptrx simulate --config table2
    soft = ModulationCommand(rc.duty, fall_time_exact(
        vp, solve_operating_point(vp, rc.duty, exact=True).v_o))
    soft_orbit = periodic_steady_state(vp, soft)
    orbit_turn_on = _turn_ons(lambda: run(vp, soft, 1, soft_orbit.state))
    p_sweep = vp.with_load(cli._FIG17_LOAD)

    def sweep():
        return scenarios.coupling_sweep(p_sweep, rc.v_ref, cli._FIG17_FF_AMP,
                                        cli._FIG17_AMPS, f_c=rc.f_c)
    short = run(vp, cmd, SAMPLE_CYCLES, initial=orbit.state)
    rate = SAMPLES_PER_CYCLE * vp.f_s
    wave = sample_waveform(short, rate)
    long = run(vp, cmd, SIMULATE_CYCLES, initial=orbit.state)
    long_wave = sample_waveform(long, rate)
    consts = _cycle_consts(vp, vp.r_load, vp.i_ls_amp, cmd.t_f)
    seg = long.segments
    conducting = np.flatnonzero(np.isin(seg.state, _CLAMPED))
    ends = []
    for th in (seg.t0[conducting], seg.t1[conducting]):
        s, c, e = _terms_at(th, seg.h[conducting], seg.t_ref[conducting],
                            vp.r_load * vp.c_o, vp.omega)
        ends += [s, e + seg.p_s[conducting] * s + seg.p_c[conducting] * c]
    one = run(vp, cmd, 1, initial=orbit.state)
    n_long = len(long_wave.t)
    wave_header = "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    wave_columns = [getattr(long_wave, f) for f in wave_header.split(",")]
    n_events = len(long.events.t)

    def events_table(out):
        # a copy of the run, without its cached events
        table.write_table(out, "events.csv", "t,event",
                          dataclasses.replace(long).events)

    def capture(out):
        # a copy of the run, without its cached events
        cli._write_capture(out, "waveform.csv", "events.csv",
                           dataclasses.replace(long), rate)
    spectra = spectrum(one, ("v_cd1", "i_ls"), SPECTRUM_HARMONICS)

    def fig14_tables(out):
        # the three tables cli's fig14 writes, from the same columns
        for channel, spec in zip(("v_cd1", "i_ls"), spectra):
            ks, amps, phases = zip(*spec.harmonics)
            table.write_table(out, f"fig14_{channel}.csv",
                              "harmonic,f_hz,amplitude,phase_rad",
                              (ks, [k * vp.f_s for k in ks], amps, phases))
        table.write_table(out, "fig14_summary.csv", "channel,fundamental,thd",
                          (("v_cd1", "i_ls"),
                           [s.fundamental for s in spectra],
                           [s.thd for s in spectra]))
    table_time = _timed_into(lambda out: table.write_table(
        out, "waveform.csv", wave_header, wave_columns), TABLE_REPEATS, 1e-3)
    events_time = _timed_into(events_table, EVENTS_REPEATS, 1e-3)
    capture_time = _timed_into(capture, TABLE_REPEATS, 1e-3)
    fig14_time = _timed_into(fig14_tables, SMALL_TABLE_REPEATS, 1e-3)
    simulate_argv = ["simulate", "--config", str(TABLE2), "--cycles",
                     str(SIMULATE_CYCLES), "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        simulate_time = _timed_into(
            lambda out: cli.main(simulate_argv + [out]), SIMULATE_REPEATS,
            1e-3)

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
        _turn_on_time_row("State I turn-on (_turn_on_time), table2 "
                          "simulate orbit", orbit_turn_on * TURN_ON_CALLS,
                          TURN_ON_REPEATS),
        _turn_on_time_row("State I turn-on (_turn_on_time), fig20 source "
                          "ramp's soft cycles", ramp_turn_ons,
                          TURN_ON_REPEATS, calls=len(ramp_turn_ons)),
        (f"coupling_sweep, fig17 ({len(cli._FIG17_AMPS)} amplitudes)",
         "ms/point",
         _timed(sweep, SWEEP_REPEATS, len(cli._FIG17_AMPS) / 1e3)),
        ("periodic_steady_state, table2", "ms/solve",
         _timed(lambda: periodic_steady_state(vp, cmd), ORBIT_REPEATS, 1e-3),
         {"cycles": orbit.cycles}),
        (f"cycle_diagnostics, {SAMPLE_CYCLES} orbit cycles", "us/cycle",
         _timed(lambda: cycle_diagnostics(short), DIAG_REPEATS,
                SAMPLE_CYCLES / 1e6)),
        (f"cycle_diagnostics, {SIMULATE_CYCLES} orbit cycles", "ms/call",
         _timed(lambda: cycle_diagnostics(long), DIAG_REPEATS, 1e-3)),
        (f"_segment_table, {SIMULATE_CYCLES} orbit cycles", "us/cycle",
         _timed(lambda: _segment_table(long.columns, consts),
                SEGMENT_REPEATS, SIMULATE_CYCLES / 1e6)),
        (f"ripple extremes, {len(conducting)} conduction segments of "
         f"{SIMULATE_CYCLES} orbit cycles (columns)", "us/segment",
         _timed(lambda: _conduction_extremes(seg, conducting, ends, consts,
                                             vp.r_load),
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
        (f"write_table, {SIMULATE_CYCLES}-cycle waveform ({n_long} rows)",
         "ms/call", table_time),
        (f"events build + write_table, {SIMULATE_CYCLES} cycles "
         f"({n_events} rows)", "ms/call", events_time),
        (f"capture (cli._write_capture): events, sampling and writing, "
         f"{SIMULATE_CYCLES} cycles ({n_long} + {n_events} rows)", "ms/call",
         capture_time),
        ("write_table, fig14's three tables (40, 40 and 2 rows)", "ms/call",
         fig14_time),
        (f"wptrx simulate, table2, {SIMULATE_CYCLES} cycles (in process)",
         "ms/call", simulate_time),
        (f"perturb_bode_oracle, fig7 ({len(cli._BODE_GRID)} frequencies)",
         "ms/call",
         _timed(lambda: perturb_bode_oracle(vp7, op7, cli._BODE_GRID),
                ORACLE_REPEATS, 1e-3)),
        (f"integrate_averaged, fig7 ({AVG_HORIZON:g} s at 10 us)", "ms/call",
         _timed(lambda: integrate_averaged(start, sched, AVG_HORIZON, vp7),
                AVG_REPEATS, 1e-3)),
    ) + _fresh_rows() + _host_rows()
    # a row's fields besides its timing, a dict after its third item
    rows = [(name, unit, spread, *(extra or [{}]))
            for name, unit, spread, *extra in rows]
    for name, unit, (med, lo, hi), fields in rows:
        shown = "".join(f"; {k} {v:.4g}" for k, v in fields.items())
        print(f"{name}: {med:.3g} {unit} (min {lo:.3g}, max {hi:.3g})"
              f"{shown}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"commit": _commit(),
                       "python": platform.python_version(),
                       "numpy": np.__version__,
                       "rows": [{"label": name, "unit": unit, "median": med,
                                 "min": lo, "max": hi, **fields}
                                for name, unit, (med, lo, hi), fields
                                in rows]},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
