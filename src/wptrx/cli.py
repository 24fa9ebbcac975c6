"""Command-line interface: validation, design, sweeps, simulation runs,
transient scenarios, and the figure-reproduction harness.

All outputs are comma-separated tables with a header row and LF line
endings, written by the one table writer, ``table.write_table`` (strings
as is, booleans and integers as ``%d``, every other number as ``%.11e``).
Identical config + command always produces byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unknown command or figure id.

A command imports the layers it runs, when it runs.  At module level this
file imports only what ``main`` needs to parse arguments, read and validate
a config and map errors to exit codes (``argparse``, ``config``,
``params``, ``analytic``, ``errors``), and no numpy.  Each function that
writes a table imports ``table.write_table`` where it writes, so
``wptrx.table`` and numpy load with the first table; ``validate`` loads
neither.  Each handler imports ``simulator``, ``control``, ``scenarios``,
``smallsignal`` and ``averaged`` in the function that calls them, so
``validate``, ``steady`` and fig5 load none of them, ``design``, ``bode``,
fig7 and fig9 only ``smallsignal`` (and ``control``, and with it
``simulator``, for the feedforward delay where the config gives no
``phase_delay_norm``), and ``simulate``, fig13 and fig14 only
``simulator``.
"""
import argparse
import functools
import math
import os
import sys

from . import analytic
from .analytic import (OperatingPoint, duty_for_target_vo, fall_time_exact,
                       solve_operating_point, steady_state_vo)
from .config import RunConfig, parse_config, parse_config_text
from .errors import (ArccosDomain, CommutationImpossible, ConfigError,
                     EmptyDutyRange, GateOverrun, NoConvergence, NoCrossover,
                     NonPositiveParameter, UnknownFigure,
                     ZeroGainOperatingPoint)
from .params import (min_output_cap, ripple_estimate, size_inductor,
                     size_series_cap, validate)

_NUMERIC_ERRORS = (NoConvergence, CommutationImpossible, ArccosDomain,
                   EmptyDutyRange, NoCrossover, ZeroGainOperatingPoint,
                   GateOverrun)

# Figure-table grids are frozen so outputs stay byte-stable.
_BODE_GRID = tuple(10.0 * 10.0 ** (k / 30.0) for k in range(91))
_DUTY_STEP = 0.002
_FIG4A_LOADS = (10.0, 20.0, 30.0, 38.09)
# np.linspace(1.45, 2.6, 12), bit for bit
_FIG17_AMPS = tuple(1.45 + k * ((2.6 - 1.45) / 11)
                    for k in range(11)) + (2.6,)
_FIG17_LOAD = 57.6          # 10 W at 24 V
_FIG17_FF_AMP = 1.40        # margin below the weakest coupling amplitude
_FIG20_LOAD = 120.0
_FIG20_AMPS = (1.0, 1.85)   # peak amplitudes of the 2 -> 3.7 A pk-pk ramp
_WAVE_RATE_PER_CYCLE = 256
_PROTOTYPE_DUTY = 0.532    # where neither argv nor the config gives a duty
# the prototype's measured switch-voltage fall delay f_s*t_f: fig13 and
# fig14 capture at it where the config gives no phase_delay_norm
_MEASURED_FST = 0.0672
# fig5_summary solves the operating point at optimal_duty(_FIG5_FST) =
# 0.4239, near the peak of table2's with-caps curve (D ~ 0.4195), and
# reports the capacitor voltage drop at that point's own delay
_FIG5_FST = 0.0761


def _fields(records, names: str) -> list:
    """The columns ``names`` (comma-separated attribute names) of
    ``records``."""
    return [[getattr(r, f) for r in records] for f in names.split(",")]


def _builtin_config(name: str) -> RunConfig:
    from importlib import resources
    text = resources.files("wptrx").joinpath(f"configs/{name}.cfg").read_text()
    return parse_config_text(text)


def _duty_grid():
    n = int(round(1.0 / _DUTY_STEP)) - 1
    return [(k + 1) * _DUTY_STEP for k in range(n)]


def _nominal_op(vp, rc: RunConfig) -> OperatingPoint:
    """Operating point implied by a config: pinned delay from feedforward
    (or an explicit phase_delay_norm), duty from the config or from the
    reference voltage.  Its v_o stays NaN: the plant, the PI design and the
    oracle read only the duty and the delay."""
    if rc.phase_delay_norm is not None:
        fst = rc.phase_delay_norm
    else:
        from .control import feedforward_tf
        fst = vp.f_s * feedforward_tf(rc.v_ref, rc.feedforward_amp, vp)
    duty = rc.duty if rc.duty is not None else \
        duty_for_target_vo(vp.i_ls_amp, vp.r_load, rc.v_ref, fst)
    return OperatingPoint.pinned(duty, fst, vp.f_s)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, rc, vp) -> int:
    for name, unit in (("l_s", "H"), ("c_s", "F"), ("c_s1", "F"),
                       ("c_d1", "F"), ("c_o", "F"), ("r_load", "ohm"),
                       ("f_s", "Hz"), ("i_ls_amp", "A"), ("omega", "rad/s"),
                       ("c_sum", "F"), ("t_period", "s")):
        print(f"{name:8s} = {getattr(vp, name):.6g} {unit}")
    for wmsg in vp.warnings:
        print(f"warning: {wmsg}")
    return 0


def cmd_design(args, rc, vp) -> int:
    from .smallsignal import design_pi, loop_margins, plant_tf
    from .table import write_table
    rows = []
    if vp.r_ls_esr > 0:
        ls_min = size_inductor(args.q, vp.r_ls_esr, vp.f_s)
        rows.append(("l_s_min", ls_min))
    rows.append(("c_s_resonant", size_series_cap(vp.l_s, vp.f_s)))
    rows.append(("c_o_min", min_output_cap(vp.i_ls_amp, args.ripple_frac,
                                           rc.v_ref, vp.f_s)))
    rows.append(("ripple_pp_bound", ripple_estimate(vp.i_ls_amp, vp.f_s,
                                                    vp.c_o)))
    op = _nominal_op(vp, rc)
    gains = design_pi(vp, op, rc.f_c)
    plant = plant_tf(vp, op)
    fc, pm, g10 = loop_margins(plant, gains)
    rows += [("duty", op.duty), ("phase_delay_norm", op.phase_delay_norm),
             ("plant_dc_gain", plant.dc_gain), ("plant_pole_hz", plant.pole_hz),
             ("k_p", gains.k_p), ("k_i", gains.k_i),
             ("d_min", gains.d_min), ("d_max", gains.d_max),
             ("crossover_hz", fc), ("phase_margin_deg", pm),
             ("loop_gain_10hz_db", g10)]
    for name, value in rows:
        print(f"{name:18s} = {value:.6g}")
    if args.out:
        write_table(args.out, "design.csv", "name,value", zip(*rows))
    return 0


def cmd_steady(args, rc, vp) -> int:
    from .table import write_table
    if args.sweep:
        duties = args.sweep
    elif args.duty is not None:
        duties = [args.duty]
    elif rc.duty is not None:
        duties = [rc.duty]
    else:
        raise ConfigError("no duty given: use --duty or --sweep, or set "
                          "the config key 'duty'")
    ops = [solve_operating_point(vp, d, exact=args.exact) for d in duties]
    write_table(args.out or None, "steady.csv",
                "duty,t_f,phase_delay_norm,v_o,regulable",
                [duties] + _fields(ops, "t_f,phase_delay_norm,v_o,regulable"))
    return 0


def cmd_bode(args, rc, vp) -> int:
    from .smallsignal import bode, plant_tf
    _write_bode(args.out or None, "bode.csv",
                bode(plant_tf(vp, _nominal_op(vp, rc)), _BODE_GRID))
    return 0


def _write_bode(out, name: str, pts) -> None:
    from .table import write_table
    header = "f_hz,mag_db,phase_deg"
    write_table(out, name, header, _fields(pts, header))


def cmd_simulate(args, rc, vp) -> int:
    import numpy as np
    from .simulator import ModulationCommand, cycle_diagnostics
    from .table import write_table
    duty = args.duty if args.duty is not None else \
        (rc.duty if rc.duty is not None else _PROTOTYPE_DUTY)
    op = solve_operating_point(vp, duty, exact=True)
    cmd = ModulationCommand(duty, fall_time_exact(vp, op.v_o))
    rate = args.sample_rate if args.sample_rate else \
        _WAVE_RATE_PER_CYCLE * vp.f_s
    orbit, result = _orbit_run(vp, cmd, args.cycles)
    _write_capture(args.out, "waveform.csv", "events.csv", result, rate)
    c, d = result.columns, cycle_diagnostics(result)
    write_table(args.out, "diagnostics.csv",
                "cycle,t_f_meas,t_r_meas,zvs_ok,zcs_ok,q_f,q_r,e_in,e_load,"
                "e_hard_switch,v_o_mean,v_o_ripple_pp",
                (np.arange(args.cycles), c.t_f_meas, c.t_r_meas, c.zvs_ok,
                 c.reached_state_v, d.q_f, d.q_r, d.e_in, d.e_load,
                 c.e_hard_switch, c.v_o_mean, d.v_o_ripple_pp))
    print(f"cycles = {args.cycles}, orbit residual = "
          f"{orbit.residual:.3g} V, "
          f"zvs = {np.count_nonzero(c.zvs_ok) / args.cycles:.3f}, "
          f"zcs = {np.count_nonzero(c.reached_state_v) / args.cycles:.3f}")
    return 0


def _orbit_run(vp, cmd, n_cycles: int):
    """(PeriodicOrbit, RunResult of ``n_cycles`` run on it) of ``cmd``."""
    from .simulator import periodic_steady_state, run
    orbit = periodic_steady_state(vp, cmd)
    return orbit, run(vp, cmd, n_cycles, initial=orbit.state)


def _write_capture(out, wave_name: str, events_name: str, result,
                   rate: float) -> None:
    """The waveform of the run ``result`` sampled at ``rate`` and its
    events.  The waveform goes from the sampler to the table writer one
    block of whole cycles at a time, so no channel of the whole run is
    held.  The run keeps its event columns: made before the waveform, they
    do not sit in the heap above the waveform's blocks, which would then
    stay resident after they are freed."""
    from .simulator import _waveform_blocks
    from .table import write_table, write_table_blocks
    events = result.events
    header = "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    names = header.split(",")
    blocks = _waveform_blocks(result, rate)[1]
    write_table_blocks(out, wave_name, header,
                       ([getattr(w, f) for f in names] for w in blocks))
    write_table(out, events_name, "t,event", events)


def _source_ramp(vp, rc: RunConfig):
    from . import scenarios
    p = vp.with_load(_FIG20_LOAD).with_amplitude(_FIG20_AMPS[0])
    return scenarios.source_ramp_scenario(
        p, rc.v_ref, _FIG20_AMPS[0], _FIG20_AMPS[1]), p


def _startup(vp, rc: RunConfig):
    from . import scenarios
    return scenarios.startup_scenario(vp, rc.v_ref, rc.feedforward_amp), vp


def _load_step(vp, rc: RunConfig):
    from . import scenarios
    return scenarios.load_step_scenario(vp, rc.v_ref, rc.feedforward_amp,
                                        r_low=vp.r_load), vp


# transient --scenario: name -> (vp, rc) -> (Scenario, receiver it runs on)
_SCENARIOS = {"startup": _startup, "load_step": _load_step,
              "source_ramp": _source_ramp}


def _closed_loop_table(out, name: str, sc, p, rc: RunConfig):
    """Design the PI gains for scenario ``sc`` on receiver ``p``, run it
    closed-loop and write the transient table ``out/name``."""
    from . import scenarios
    from .control import closed_loop_run
    from .table import write_table
    gains = scenarios.design_gains(p, rc.v_ref, sc.i_ls_ff, rc.f_c)
    rec = closed_loop_run(sc, gains, p)
    write_table(out, name, "t,v_o_sample,v_o_mean,duty",
                (rec.t, rec.v_o_sample, rec.v_o_mean, rec.duty))
    return rec


def cmd_transient(args, rc, vp) -> int:
    sc, p = _SCENARIOS[args.scenario](vp, rc)
    rec = _closed_loop_table(args.out, f"{sc.name}.csv", sc, p, rc)
    print(f"final = {rec.final_value:.4f} V, settle = {rec.settling_time:.6g} s, "
          f"overshoot = {rec.overshoot:.4f} V, error = "
          f"{rec.steady_state_error:.2e} V")
    return 0


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def _fig4a(out, rc, vp):
    from .averaged import vo_vs_duty_curve
    from .table import write_table
    header = "r_load,duty,v_o,regulable"
    write_table(out, "fig4a.csv", header, _fields(
       vo_vs_duty_curve(vp, _FIG4A_LOADS, _duty_grid()), header))
    return ["fig4a.csv"]


def _fig5(out, rc, vp):
    from .table import write_table
    duties = _duty_grid()
    write_table(out, "fig5.csv", "duty,v_o_ideal,v_o_with_caps",
                (duties,
                 [steady_state_vo(vp.i_ls_amp, vp.r_load, d, 0.0)
                  for d in duties],
                 [solve_operating_point(vp, d).v_o for d in duties]))
    op_pk = solve_operating_point(vp, analytic.optimal_duty(_FIG5_FST))
    drop = analytic.resonant_cap_voltage_drop(vp.i_ls_amp, vp.r_load,
                                              op_pk.phase_delay_norm)
    write_table(out, "fig5_summary.csv",
                "phase_delay_norm,peak_reduction_v",
                ([op_pk.phase_delay_norm], [drop]))
    return ["fig5.csv", "fig5_summary.csv"]


def _fig7(out, rc, vp):
    from .smallsignal import bode, perturb_bode_oracle, plant_tf
    op = _nominal_op(vp, rc)
    _write_bode(out, "fig7_analytic.csv", bode(plant_tf(vp, op), _BODE_GRID))
    _write_bode(out, "fig7_oracle.csv",
                perturb_bode_oracle(vp, op, _BODE_GRID))
    return ["fig7_analytic.csv", "fig7_oracle.csv"]


def _fig9(out, rc, vp):
    from .smallsignal import bode_points, design_pi, loop_response, plant_tf
    from .table import write_table
    op = _nominal_op(vp, rc)
    plant = plant_tf(vp, op)
    gains = design_pi(vp, op, rc.f_c)
    ol, cl = loop_response(plant, gains, _BODE_GRID)
    ol_pts = bode_points(_BODE_GRID, ol)
    cl_pts = bode_points(_BODE_GRID, cl)
    write_table(out, "fig9.csv",
                "f_hz,ol_mag_db,ol_phase_deg,cl_mag_db,cl_phase_deg",
                _fields(ol_pts, "f_hz,mag_db,phase_deg")
                + _fields(cl_pts, "mag_db,phase_deg"))
    return ["fig9.csv"]


def _steady_va_run(rc, vp, n_capture: int):
    """Run on the periodic steady state at the prototype operating point
    (measured delay): the RunResult of its ``n_capture`` cycles."""
    from .simulator import ModulationCommand
    duty = rc.duty if rc.duty is not None else _PROTOTYPE_DUTY
    fst = _MEASURED_FST if rc.phase_delay_norm is None else rc.phase_delay_norm
    return _orbit_run(vp, ModulationCommand(duty, fst / vp.f_s),
                      n_capture)[1]


def _fig13(out, rc, vp):
    _write_capture(out, "fig13.csv", "fig13_events.csv",
                   _steady_va_run(rc, vp, 4), _WAVE_RATE_PER_CYCLE * vp.f_s)
    return ["fig13.csv", "fig13_events.csv"]


def _fig14(out, rc, vp):
    from .simulator import spectrum
    from .table import write_table
    # every orbit cycle is the same, so one cycle's closed forms give the
    # exact harmonics
    result = _steady_va_run(rc, vp, 1)
    files = []
    summary = []
    channels = ("v_cd1", "i_ls")
    for channel, spec_res in zip(channels, spectrum(result, channels, 40)):
        name = f"fig14_{channel}.csv"
        ks, amps, phases = zip(*spec_res.harmonics)
        write_table(out, name, "harmonic,f_hz,amplitude,phase_rad",
                    (ks, [k * vp.f_s for k in ks], amps, phases))
        summary.append((channel, spec_res.fundamental, spec_res.thd))
        files.append(name)
    write_table(out, "fig14_summary.csv",
                "channel,fundamental,thd", zip(*summary))
    return files + ["fig14_summary.csv"]


def _fig17(out, rc, vp):
    from . import scenarios
    from .table import write_table
    rows = scenarios.coupling_sweep(vp.with_load(_FIG17_LOAD), rc.v_ref,
                                    _FIG17_FF_AMP, _FIG17_AMPS, f_c=rc.f_c)
    header = ("i_ls_amp,v_o_steady,reg_error,duty,zvs_fraction,"
              "zcs_fraction,spectral_radius")
    write_table(out, "fig17.csv", header, _fields(rows, header))
    print(f"max regulation error = {max(r.reg_error for r in rows):.4g} V")
    return ["fig17.csv"]


def _fig19(out, rc, vp):
    from . import scenarios
    sc = scenarios.load_step_scenario(vp, rc.v_ref, rc.feedforward_amp,
                                      r_low=36.0)
    _closed_loop_table(out, "fig19.csv", sc, vp, rc)
    return ["fig19.csv"]


def _fig20(out, rc, vp):
    sc, p = _source_ramp(vp, rc)
    _closed_loop_table(out, "fig20.csv", sc, p, rc)
    return ["fig20.csv"]


_FIG_BUILDERS = {"fig4a": (_fig4a, "table2"), "fig5": (_fig5, "table2"),
                 "fig7": (_fig7, "fig7"), "fig9": (_fig9, "fig7"),
                 "fig13": (_fig13, "table2"), "fig14": (_fig14, "table2"),
                 "fig17": (_fig17, "table2"), "fig19": (_fig19, "table2"),
                 "fig20": (_fig20, "table2")}
FIGURES = tuple(_FIG_BUILDERS)

_PLOT_HELPER = '''\
"""Convenience plotting for the reproduction tables (no acceptance weight)."""
import sys
import matplotlib.pyplot as plt
import numpy as np

for path in sys.argv[1:]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names
    fig, ax = plt.subplots()
    for col in names[1:]:
        ax.plot(data[names[0]], data[col], label=col)
    ax.set_xlabel(names[0])
    ax.legend()
    ax.set_title(path)
plt.show()
'''


def cmd_reproduce(args, rc, vp) -> int:
    os.makedirs(args.out, exist_ok=True)
    files = _FIG_BUILDERS[args.figure][0](args.out, rc, vp)
    with open(os.path.join(args.out, "plot_tables.py"), "w",
              newline="\n") as fh:
        fh.write(_PLOT_HELPER)
    print("wrote " + ", ".join(files))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _sweep_duties(text: str) -> list:
    """``--sweep start:stop:step`` as its duty grid: three finite numbers,
    step > 0 and start <= stop."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        lo = hi = step = math.nan  # rejected below
    if not (step > 0.0 and lo <= hi and
            all(map(math.isfinite, (lo, hi, step, (hi - lo) / step)))):
        raise argparse.ArgumentTypeError(
            f"need finite start:stop:step, start <= stop and step > 0, "
            f"got {text!r}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


@functools.cache
def _build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of ``command``, built on its first call and kept: a
    parse reads it and leaves it as it was, and each parse makes a new
    namespace."""
    p = argparse.ArgumentParser(prog=f"wptrx {command}")
    if command != "reproduce":
        p.add_argument("--config", required=True)
    if command == "design":
        p.add_argument("--q", type=float, default=100.0)
        p.add_argument("--ripple-frac", type=float, default=0.01)
    if command == "steady":
        p.add_argument("--duty", type=float)
        p.add_argument("--sweep", type=_sweep_duties, help="start:stop:step")
        p.add_argument("--exact", action="store_true")
    if command == "simulate":
        p.add_argument("--cycles", type=int, required=True)
        p.add_argument("--duty", type=float)
        p.add_argument("--sample-rate", type=float, default=0.0)
    if command == "transient":
        p.add_argument("--scenario", required=True,
                       choices=tuple(_SCENARIOS))
    if command == "reproduce":
        p.add_argument("figure")
        p.add_argument("--config", default="")
    if command in ("design", "steady", "bode"):  # no --out: print the table
        p.add_argument("--out", default="")
    elif command != "validate":
        p.add_argument("--out", default="out")
    return p


_HANDLERS = {"validate": cmd_validate, "design": cmd_design,
             "steady": cmd_steady, "bode": cmd_bode,
             "simulate": cmd_simulate, "transient": cmd_transient,
             "reproduce": cmd_reproduce}
COMMANDS = tuple(_HANDLERS)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: wptrx {" + ",".join(COMMANDS) + "} [options]")
        return 0 if argv else 4
    command = argv[0]
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 4
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2
    try:
        if command == "reproduce" and args.figure not in FIGURES:
            raise UnknownFigure(f"unknown figure {args.figure!r}; supported: "
                                + ", ".join(FIGURES))
        if command == "reproduce" and not args.config:
            rc = _builtin_config(_FIG_BUILDERS[args.figure][1])
        else:
            rc = parse_config(args.config)
        return _HANDLERS[command](args, rc, validate(rc.params))
    except (ConfigError, NonPositiveParameter, FileNotFoundError,
            FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownFigure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _NUMERIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
