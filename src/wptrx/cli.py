"""Command-line interface: validation, design, sweeps, simulation runs,
transient scenarios, and the figure-reproduction harness.

All outputs are comma-separated tables with a header row and LF line
endings, written by ``_write_table`` column by column, by a rule taken from
each column's element type: strings as is, booleans and integers as
``%d``, every other number as ``%.11e`` (12 significant digits).  Only
``%.11e`` has a numpy kernel, which reproduces ``%`` exactly; a float cell
whose rounding it cannot settle (see ``_float_cells``) is formatted by
``%`` itself.  Identical config + command always produces byte-identical
files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unknown command or figure id.

A command imports the layers it runs, when it runs.  At module level this
file imports only what ``main`` needs to parse arguments, read and validate
a config and map errors to exit codes (``argparse``, ``config``,
``params``, ``analytic``, ``errors``), and numpy for the table writer's
kernel tables.  Each handler imports ``simulator``, ``control``,
``scenarios``, ``smallsignal`` and ``averaged`` in the function that calls
them, so ``validate``, ``steady`` and fig5 load none of them, ``design``,
``bode``, fig7 and fig9 only ``smallsignal`` (and ``control``, and with it
``simulator``, for the feedforward delay where the config gives no
``phase_delay_norm``), and ``simulate``, fig13 and fig14 only
``simulator``.
"""

import argparse
import math
import os
import sys

import numpy as np

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
_FIG17_AMPS = tuple(np.linspace(1.45, 2.6, 12))
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


# Rows formatted per pass of _write_table.  Writing the waveform table
# peaks at about 0.78 MB of working memory, 0.1 MB of it the records kept
# across blocks; larger blocks take more memory and save little time.
_TABLE_BLOCK_ROWS = 1024


def _words(cells, dtype) -> np.ndarray:
    """Byte strings ``cells``, NUL-padded to the size of ``dtype``, viewed
    as that unsigned integer type, so lookups copy machine words."""
    return np.array(cells, dtype=f"S{np.dtype(dtype).itemsize}").view(dtype)


# Tables of the %.11e kernel.  A cell is the sign, the first digit, the
# point and the second digit; two words of four digits and one pair of
# digits; the exponent; one NUL pad byte.  A positive cell's sign byte is
# NUL.  The scale 10**k and the exponent e = 11 - k are indexed by k + 22,
# k in [-22, 22]; 10**|k| is exact in float64, and each cell multiplies by
# one table and divides by the other, one of them 1.0.
_SCALE_UP = np.array([1.0] * 22 + [float(10 ** k) for k in range(23)])
_SCALE_DOWN = np.array([float(10 ** -k) for k in range(-22, 0)] + [1.0] * 23)
_EXPONENTS = _words([b"e%+03d" % (11 - k) for k in range(-22, 23)], "u4")
_LEADS = _words([sign + b"%d.%d" % divmod(i, 10)
                 for sign in (b"", b"-") for i in range(100)], "u4")
_PAIRS = _words([b"%02d" % i for i in range(100)], "u2")
# the word of i in [0, 10**4) is the pair of i // 100 then the pair of
# i % 100, side by side in memory
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                  axis=-1).reshape(-1).view("u4")
_FLOAT_CELL = np.dtype([("lead", "u4"), ("quad1", "u4"), ("quad2", "u4"),
                        ("pair", "u2"), ("exp", "u4"), ("pad", "u1")])


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``"%.11e" % v`` of each float64 ``v`` of ``x``, as NUL-padded S19.

    With e = floor(log10|v|) and k = 11 - e, s = |v| * 10**k is the exact
    product correctly rounded, for 10**|k| is exact when |k| <= 22.  The
    12 digits are floor(s + 1/2) unless s is exactly a half-integer: a
    half-integer below 2**40 is a float64, so s and the exact product lie
    on the same side of every rounding tie.  Those cells, cells with
    |k| > 22, cells whose digits fall outside [1e11, 1e12) (log10 off by
    one, or rounding up to the next power of ten) and non-finite cells are
    formatted by ``%`` itself."""
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(a))
        k[zero] = 11.0  # e = 0, so a zero prints as 0.00000000000e+00
        ok = np.abs(k) <= 22.0
        k[~ok] = 0.0
        i = k.astype(np.intp) + 22
        s = a * _SCALE_UP[i] / _SCALE_DOWN[i]
        m = np.floor(s + 0.5)
        guard = ~(ok & (m - s != 0.5)
                  & ((m >= 1e11) & (m < 1e12) | zero))
    m[guard] = 0.0
    m = m.astype(np.int64)
    cells = np.zeros(len(x), _FLOAT_CELL)
    # the first 2, 6 and 10 of the 12 digits
    head, first6, first10 = m // 10 ** 10, m // 10 ** 6, m // 100
    cells["lead"] = _LEADS[head + 100 * np.signbit(x)]
    cells["quad1"] = _QUADS[first6 - 10 ** 4 * head]
    cells["quad2"] = _QUADS[first10 - 10 ** 4 * first6]
    cells["pair"] = _PAIRS[m - 100 * first10]
    cells["exp"] = _EXPONENTS[i]
    text = cells.view("S19")
    where = np.flatnonzero(guard)
    if where.size:
        text[where] = [b"%.11e" % v for v in x[where].tolist()]
    return text


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``b"%d" % i`` of each boolean or integer ``i`` of ``v``, from the
    table of least..greatest at ``v - least``, read as unsigned of ``v``'s
    width so no value is cast; value by value if the span exceeds len(v)."""
    v = v.view(np.uint8) if v.dtype.kind == "b" else v
    least, most = int(v.min()), int(v.max())
    if most - least >= len(v):
        return np.array([b"%d" % i for i in v.tolist()], "S")
    values = np.array([b"%d" % i for i in range(least, most + 1)], "S")
    return values[(v - least).view(f"u{v.itemsize}")]


def _table_cells(columns: list) -> list:
    """NUL-padded bytes cells of equal-length ``columns``: ASCII strings as
    is, booleans and integers as ``%d``, anything else as ``%.11e``, the
    float columns in one ``_float_cells`` call."""
    floats = [c for c in columns if c.dtype.kind not in "USbiu"]
    float_cells = iter(_float_cells(np.array(floats, np.float64).ravel())
                       .reshape(len(floats), len(columns[0])))
    return [c.astype("S") if c.dtype.kind in "US"
            else _int_cells(c) if c.dtype.kind in "biu"
            else next(float_cells) for c in columns]


def _table_bytes(header: str, columns: list, n_rows: int):
    """The CSV text of a table, as bytes, block by block: rows are records
    of NUL-padded cells, each followed by its separator byte, made again
    only when a block's row count or cell widths change."""
    yield header.encode() + b"\n"
    rows, widths = None, None
    for lo in range(0, n_rows, _TABLE_BLOCK_ROWS):
        cells = _table_cells([c[lo:lo + _TABLE_BLOCK_ROWS] for c in columns])
        shape = (len(cells[0]), *(c.itemsize for c in cells))
        if shape != widths:
            widths = shape
            rows = np.empty(len(cells[0]), [
                field for i, c in enumerate(cells)
                for field in ((f"c{i}", c.dtype), (f"s{i}", "S1"))])
            for i in range(len(cells)):
                rows[f"s{i}"] = b"," if i < len(cells) - 1 else b"\n"
        for i, c in enumerate(cells):
            rows[f"c{i}"] = c
        del cells  # freed before the next block's are made
        yield rows.tobytes().translate(None, b"\0")


def _write_table(out, name: str, header: str, columns) -> None:
    """The one table writer: ``header`` and the equal-length ``columns``
    as CSV into ``out/name`` (creating ``out``), or to stdout when ``out``
    is None.  Each column keeps one cell type (see ``_table_cells``)."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table {name}: columns differ in length: "
                         f"{lengths}")
    blocks = _table_bytes(header, columns, lengths[0] if lengths else 0)
    if out is None:
        for block in blocks:
            sys.stdout.write(block.decode())
    else:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "wb") as fh:
            fh.writelines(blocks)


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
        _write_table(args.out, "design.csv", "name,value", zip(*rows))
    return 0


def cmd_steady(args, rc, vp) -> int:
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
    _write_table(args.out or None, "steady.csv",
                 "duty,t_f,phase_delay_norm,v_o,regulable",
                 [duties] + _fields(ops, "t_f,phase_delay_norm,v_o,regulable"))
    return 0


def cmd_bode(args, rc, vp) -> int:
    from .smallsignal import bode, plant_tf
    _write_bode(args.out or None, "bode.csv",
                bode(plant_tf(vp, _nominal_op(vp, rc)), _BODE_GRID))
    return 0


def _write_bode(out, name: str, pts) -> None:
    header = "f_hz,mag_db,phase_deg"
    _write_table(out, name, header, _fields(pts, header))


def cmd_simulate(args, rc, vp) -> int:
    from .simulator import ModulationCommand, cycle_diagnostics
    duty = args.duty if args.duty is not None else \
        (rc.duty if rc.duty is not None else _PROTOTYPE_DUTY)
    op = solve_operating_point(vp, duty, exact=True)
    cmd = ModulationCommand(duty, fall_time_exact(vp, op.v_o))
    rate = args.sample_rate if args.sample_rate else \
        _WAVE_RATE_PER_CYCLE * vp.f_s
    orbit, result = _orbit_run(vp, cmd, op.v_o, args.cycles)
    _write_capture(args.out, "waveform.csv", "events.csv", result, rate)
    c, d = result.columns, cycle_diagnostics(result)
    _write_table(args.out, "diagnostics.csv",
                 "cycle,t_f_meas,t_r_meas,zvs_ok,zcs_ok,q_f,q_r,e_in,e_load,"
                 "e_hard_switch,v_o_mean,v_o_ripple_pp",
                 (np.arange(args.cycles), c.t_f_meas, c.t_r_meas, c.zvs_ok,
                  c.zcs_ok, d.q_f, d.q_r, d.e_in, d.e_load, c.e_hard_switch,
                  c.v_o_mean, d.v_o_ripple_pp))
    print(f"cycles = {args.cycles}, orbit residual = "
          f"{orbit.residual:.3g} V, "
          f"zvs = {np.count_nonzero(c.zvs_ok) / args.cycles:.3f}, "
          f"zcs = {np.count_nonzero(c.zcs_ok) / args.cycles:.3f}")
    return 0


def _orbit_run(vp, cmd, v_o_guess: float, n_cycles: int):
    """(PeriodicOrbit, RunResult of ``n_cycles`` run on it) of ``cmd``,
    the orbit solved from ``v_o_guess``."""
    from .simulator import periodic_steady_state, run
    orbit = periodic_steady_state(vp, cmd, v_o_guess)
    return orbit, run(vp, cmd, n_cycles, initial=orbit.state)


def _write_capture(out, wave_name: str, events_name: str, result,
                   rate: float) -> None:
    """The waveform of the run ``result`` sampled at ``rate`` and its
    events."""
    from .simulator import sample_waveform
    w = sample_waveform(result, rate)
    header = "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    _write_table(out, wave_name, header,
                 [getattr(w, f) for f in header.split(",")])
    _write_table(out, events_name, "t,event", zip(*result.events))


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
    gains = scenarios.design_gains(p, rc.v_ref, sc.i_ls_ff, rc.f_c)
    rec = closed_loop_run(sc, gains, p)
    _write_table(out, name, "t,v_o_sample,v_o_mean,duty",
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
    header = "r_load,duty,v_o,regulable"
    _write_table(out, "fig4a.csv", header, _fields(
        vo_vs_duty_curve(vp, _FIG4A_LOADS, _duty_grid()), header))
    return ["fig4a.csv"]


def _fig5(out, rc, vp):
    duties = _duty_grid()
    _write_table(out, "fig5.csv", "duty,v_o_ideal,v_o_with_caps",
                 (duties,
                  [steady_state_vo(vp.i_ls_amp, vp.r_load, d, 0.0)
                   for d in duties],
                  [solve_operating_point(vp, d).v_o for d in duties]))
    op_pk = solve_operating_point(vp, analytic.optimal_duty(_FIG5_FST))
    drop = analytic.resonant_cap_voltage_drop(vp.i_ls_amp, vp.r_load,
                                              op_pk.phase_delay_norm)
    _write_table(out, "fig5_summary.csv",
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
    op = _nominal_op(vp, rc)
    plant = plant_tf(vp, op)
    gains = design_pi(vp, op, rc.f_c)
    ol, cl = loop_response(plant, gains, _BODE_GRID)
    ol_pts = bode_points(_BODE_GRID, ol)
    cl_pts = bode_points(_BODE_GRID, cl)
    _write_table(out, "fig9.csv",
                 "f_hz,ol_mag_db,ol_phase_deg,cl_mag_db,cl_phase_deg",
                 _fields(ol_pts, "f_hz,mag_db,phase_deg")
                 + _fields(cl_pts, "mag_db,phase_deg"))
    return ["fig9.csv"]


def _steady_va_run(rc, vp, n_capture: int):
    """Run on the periodic steady state at the prototype operating point
    (measured delay), seeded at the averaged output at the commanded delay:
    the RunResult of its ``n_capture`` cycles."""
    from .simulator import ModulationCommand
    duty = rc.duty if rc.duty is not None else _PROTOTYPE_DUTY
    fst = _MEASURED_FST if rc.phase_delay_norm is None else rc.phase_delay_norm
    return _orbit_run(vp, ModulationCommand(duty, fst / vp.f_s),
                      steady_state_vo(vp.i_ls_amp, vp.r_load, duty, fst),
                      n_capture)[1]


def _fig13(out, rc, vp):
    _write_capture(out, "fig13.csv", "fig13_events.csv",
                   _steady_va_run(rc, vp, 4), _WAVE_RATE_PER_CYCLE * vp.f_s)
    return ["fig13.csv", "fig13_events.csv"]


def _fig14(out, rc, vp):
    from .simulator import spectrum
    # every orbit cycle is the same, so one cycle's closed forms give the
    # exact harmonics
    result = _steady_va_run(rc, vp, 1)
    files = []
    summary = []
    channels = ("v_cd1", "i_ls")
    for channel, spec_res in zip(channels, spectrum(result, channels, 40)):
        name = f"fig14_{channel}.csv"
        ks, amps, phases = zip(*spec_res.harmonics)
        _write_table(out, name, "harmonic,f_hz,amplitude,phase_rad",
                     (ks, [k * vp.f_s for k in ks], amps, phases))
        summary.append((channel, spec_res.fundamental, spec_res.thd))
        files.append(name)
    _write_table(out, "fig14_summary.csv",
                 "channel,fundamental,thd", zip(*summary))
    return files + ["fig14_summary.csv"]


def _fig17(out, rc, vp):
    from . import scenarios
    rows = scenarios.coupling_sweep(vp.with_load(_FIG17_LOAD), rc.v_ref,
                                    _FIG17_FF_AMP, _FIG17_AMPS, f_c=rc.f_c)
    header = ("i_ls_amp,v_o_steady,reg_error,duty,zvs_fraction,"
              "zcs_fraction,spectral_radius")
    _write_table(out, "fig17.csv", header, _fields(rows, header))
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


def _build_parser(command: str) -> argparse.ArgumentParser:
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
            IsADirectoryError, PermissionError) as exc:
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
