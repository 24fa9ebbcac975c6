"""The three workloads as rounds of ops, and the output check of each op.

A workload is a closed loop with one caller: the next op starts only when
the previous one has finished.  An op is the timed call into the program;
its check runs afterwards, untimed, and tests physics invariants the seed
meets rather than frozen tables, so a later behaviour fix (such as a true
periodic steady state) is not scored as a failure.  A failed check fails the
op; it never aborts the run.

Every round pairs a ``soft`` and a ``hard`` receiver (see ``inputs``) and
gives each op kind to both, so a run made of whole rounds has the same
branch mix whatever its length.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
import io
import math
import os
from typing import Callable, Optional

import wptrx
from wptrx import cli, scenarios
from wptrx.errors import NoConvergence

# The 91-point fig7 frequency grid (10 Hz .. 10 kHz, 30 points per decade).
BODE_GRID = tuple(10.0 * 10.0 ** (k / 30.0) for k in range(91))

# Stated input sizes.
DESIGN_DUTIES = 24           # duties per approx/exact operating-point sweep
CURVE_LOADS = (0.8, 1.0, 1.25)  # vo_vs_duty_curve loads, times r_load
AVG_HORIZON = 0.1            # averaged duty-step run (s), 10 us samples
AVG_STEP_AT = 0.01           # duty step instant (s)
AVG_STEP = 0.02              # duty step size
SIMULATE_CYCLES = 400        # `wptrx simulate --cycles`; 256 samples/cycle

# Check tolerances.
MARGIN_REL_TOL = 1e-6        # crossover frequency against f_c
PM_TOL_DEG = 1e-6            # phase margin against 90 degrees
AVG_REL_TOL = 1e-9           # averaged endpoint against the closed form
ORACLE_DB_TOL = 0.5          # perturbation oracle against analytic Bode
ORACLE_DEG_TOL = 3.0
REG_FAIL_FRAC = 0.05         # control's regulation_failed: |tail - v_ref|
#                              above 5 % of max(v_ref, 1 V)
KVL_TOL = 1e-8               # |v_cs1 + v_cd1 - v_o| in a waveform row (V)
LEDGER_REL_TOL = 1e-4        # soft-cycle energy residual / e_in; covers the
#                              unlogged rail-clamp flow, O(C_sum/C_o)
FUNDAMENTAL_REL_TOL = 1e-6   # i_ls fundamental against i_ls_amp


@dataclass
class Op:
    kind: str
    receiver: int
    run: Callable[[], object]
    check: Callable[[object], tuple]  # -> (problems, observations)
    outdir: Optional[str] = None      # emptied before the op runs


@dataclass
class OpRecord:
    kind: str
    receiver: int
    round: int
    seconds: float
    problems: list
    observations: dict = field(default_factory=dict)
    chunk_s: float = 0.0   # host-speed chunk timed just before the op


# ---------------------------------------------------------------------------
# design: library calls only; step_cycle never runs
# ---------------------------------------------------------------------------

def design_pass(rcv) -> dict:
    """Full design pass on one receiver, made of public library calls."""
    rc, vp = rcv["run_config"], rcv["params"]
    duty, fst = rc.duty, rc.phase_delay_norm
    lo, hi = wptrx.duty_bounds(fst)
    duties = [lo + (hi - lo) * (k + 0.5) / DESIGN_DUTIES
              for k in range(DESIGN_DUTIES)]
    approx = [wptrx.solve_operating_point(vp, d) for d in duties]
    exact = []
    no_convergence = 0
    for d in duties:
        try:
            exact.append(wptrx.solve_operating_point(vp, d, exact=True))
        except NoConvergence:
            no_convergence += 1
    curve = wptrx.vo_vs_duty_curve(
        vp, [k * vp.r_load for k in CURVE_LOADS], duties)
    v_o = wptrx.steady_state_vo(vp.i_ls_amp, vp.r_load, duty, fst)
    op = wptrx.OperatingPoint.pinned(duty, fst, vp.f_s, v_o=v_o)
    gains = wptrx.design_pi(vp, op, rc.f_c)
    plant = wptrx.plant_tf(vp, op)
    margins = wptrx.loop_margins(plant, gains)
    analytic_bode = wptrx.bode(plant, BODE_GRID)
    sched = wptrx.DutySchedule.steps(
        (0.0, AVG_STEP_AT), (duty, duty + AVG_STEP), vp,
        mode=wptrx.TfMode.PINNED, pinned_fst=fst)
    traj = wptrx.integrate_averaged(wptrx.AveragedState(v_o=v_o, t=0.0),
                                    sched, AVG_HORIZON, vp)
    oracle = wptrx.perturb_bode_oracle(vp, op, BODE_GRID)
    return {"rcv": rcv, "approx": approx, "exact": exact,
            "no_convergence": no_convergence, "curve": curve, "v_o": v_o,
            "margins": margins, "bode": analytic_bode, "traj": traj,
            "oracle": oracle}


def check_design(out) -> tuple:
    rc, vp = out["rcv"]["run_config"], out["rcv"]["params"]
    problems = []
    f_cross, pm, _ = out["margins"]
    if abs(f_cross - rc.f_c) > MARGIN_REL_TOL * rc.f_c:
        problems.append(f"crossover {f_cross!r} Hz, designed for {rc.f_c!r}")
    if abs(pm - 90.0) > PM_TOL_DEG:
        problems.append(f"phase margin {pm!r} deg, expected 90")
    # the averaged model is affine per command: exact exponential approach
    duty, fst = rc.duty, rc.phase_delay_norm
    v_inf = wptrx.steady_state_vo(vp.i_ls_amp, vp.r_load, duty + AVG_STEP,
                                  fst)
    tau = vp.r_load * vp.c_o
    expect = v_inf + (out["v_o"] - v_inf) * math.exp(
        -(AVG_HORIZON - AVG_STEP_AT) / tau)
    end = float(out["traj"].v_o[-1])
    if abs(end - expect) > AVG_REL_TOL * abs(v_inf):
        problems.append(f"averaged endpoint {end!r} V, closed form {expect!r}")
    worst_db = max(abs(a.mag_db - o.mag_db)
                   for a, o in zip(out["bode"], out["oracle"]))
    worst_deg = max(abs(a.phase_deg - o.phase_deg)
                    for a, o in zip(out["bode"], out["oracle"]))
    if worst_db > ORACLE_DB_TOL or worst_deg > ORACLE_DEG_TOL:
        problems.append(f"oracle Bode off by {worst_db:.3g} dB / "
                        f"{worst_deg:.3g} deg")
    if any(not p.v_o >= 0.0 for p in out["approx"] + out["exact"]):
        problems.append("operating point with v_o < 0")
    bad_rows = [r.error for r in out["curve"] if r.error]
    if bad_rows:
        problems.append(f"vo_vs_duty_curve row errors: {sorted(set(bad_rows))}")
    return problems, {"no_convergence": out["no_convergence"]}


def design_round(receivers, j, workdir) -> list:
    ops = []
    for i in (2 * j % len(receivers), (2 * j + 1) % len(receivers)):
        rcv = receivers[i]
        ops.append(Op("design", i, lambda r=rcv: design_pass(r), check_design))
    return ops


# ---------------------------------------------------------------------------
# CLI ops and table readers
# ---------------------------------------------------------------------------

def _cli_op(argv: list) -> Callable[[], tuple]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()
    return call


def _rows(path):
    """Data rows of a CSV table as lists of strings (header skipped)."""
    with open(path) as fh:
        next(fh)
        for line in fh:
            yield line.rstrip("\n").split(",")


def _out_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n))
               for n in os.listdir(outdir))


def _exit_problems(result) -> list:
    code, err = result
    return [] if code == 0 else [f"exit code {code}: {err}"]


def _events_problems(path) -> list:
    last = -math.inf
    for k, (t, name) in enumerate(_rows(path)):
        t = float(t)
        if t < last:
            return [f"{os.path.basename(path)}: event {k} ({name}) at {t!r} "
                    f"before the previous one at {last!r}"]
        last = t
    return []


def _waveform(path) -> tuple:
    """(v_o column, problems): v_o >= 0 and v_cs1 + v_cd1 = v_o per row."""
    v_o = []
    problems = []
    for k, row in enumerate(_rows(path)):
        v_cs1, v_cd1, v = float(row[2]), float(row[3]), float(row[4])
        v_o.append(v)
        if not problems:
            if not v >= 0.0:
                problems.append(f"{os.path.basename(path)}: v_o = {v!r} < 0 "
                                f"at row {k}")
            elif abs(v_cs1 + v_cd1 - v) > KVL_TOL * max(1.0, abs(v)):
                problems.append(f"{os.path.basename(path)}: v_cs1 + v_cd1 - "
                                f"v_o = {v_cs1 + v_cd1 - v:.3g} V at row {k}")
    return v_o, problems


# ---------------------------------------------------------------------------
# regulation: closed-loop runs where only v_o_mean and the flags are read
# ---------------------------------------------------------------------------

def check_transient(outdir: str, scenario: str, v_ref: float):
    def check(result) -> tuple:
        problems = _exit_problems(result)
        if problems:
            return problems, {}
        v_mean = []
        for t, v_sample, v_m, duty in _rows(os.path.join(outdir,
                                                         f"{scenario}.csv")):
            v_mean.append(float(v_m))
            if not (float(v_sample) >= 0.0 and float(v_m) >= 0.0):
                problems.append(f"v_o < 0 at t = {t}")
                break
        tail = v_mean[-max(1, len(v_mean) // 20):]
        final = sum(tail) / len(tail)
        if abs(final - v_ref) > REG_FAIL_FRAC * max(abs(v_ref), 1.0):
            problems.append(f"regulation failed: tail mean {final:.6g} V "
                            f"against v_ref {v_ref:.6g} V")
        return problems, {"out_bytes": _out_bytes(outdir)}
    return check


def sweep_op(rcv) -> Callable[[], list]:
    rc, vp = rcv["run_config"], rcv["params"]
    return lambda: scenarios.coupling_sweep(
        vp, rc.v_ref, rc.feedforward_amp, rcv["sweep_amps"], f_c=rc.f_c)


def check_sweep(v_ref: float):
    def check(rows) -> tuple:
        problems = []
        for r in rows:
            if not r.v_o_steady >= 0.0:
                problems.append(f"sweep point {r.i_ls_amp:.6g} A: v_o < 0")
            if r.reg_error > REG_FAIL_FRAC * max(abs(v_ref), 1.0):
                problems.append(f"sweep point {r.i_ls_amp:.6g} A: regulation "
                                f"error {r.reg_error:.6g} V")
        return problems, {}
    return check


def regulation_round(receivers, j, workdir) -> list:
    a = (2 * j) % len(receivers)        # soft
    b = (2 * j + 1) % len(receivers)    # hard
    ops = []
    for scenario, i in (("load_step", a), ("source_ramp", b), ("sweep", a),
                        ("load_step", b), ("source_ramp", a), ("sweep", b)):
        rcv = receivers[i]
        v_ref = rcv["run_config"].v_ref
        if scenario == "sweep":
            ops.append(Op("coupling_sweep", i, sweep_op(rcv),
                          check_sweep(v_ref)))
            continue
        outdir = os.path.join(workdir, scenario)
        ops.append(Op(f"transient.{scenario}", i, _cli_op(
            ["transient", "--config", rcv["path"], "--scenario", scenario,
             "--out", outdir]), check_transient(outdir, scenario, v_ref),
            outdir))
    return ops


# ---------------------------------------------------------------------------
# capture: long open-loop settle, then every diagnostic is consumed
# ---------------------------------------------------------------------------

def check_fig13(outdir: str):
    def check(result) -> tuple:
        problems = _exit_problems(result)
        if problems:
            return problems, {}
        problems += _events_problems(os.path.join(outdir, "fig13_events.csv"))
        v_o, wave_problems = _waveform(os.path.join(outdir, "fig13.csv"))
        problems += wave_problems
        # cycle-mean v_o per captured cycle: the drift left after the settle
        per_cycle = 256  # the CLI's samples per carrier cycle
        means = [sum(v_o[k:k + per_cycle]) / per_cycle
                 for k in range(0, len(v_o), per_cycle)]
        drift_uv = (means[-1] - means[0]) / (len(means) - 1) * 1e6
        return problems, {"out_bytes": _out_bytes(outdir),
                          "end_drift_uv_per_cycle": drift_uv}
    return check


def check_fig14(outdir: str, i_ls_amp: float):
    def check(result) -> tuple:
        problems = _exit_problems(result)
        if problems:
            return problems, {}
        fundamentals = {ch: float(a) for ch, a, _ in
                        _rows(os.path.join(outdir, "fig14_summary.csv"))}
        got = fundamentals.get("i_ls", math.nan)
        if not abs(got - i_ls_amp) <= FUNDAMENTAL_REL_TOL * i_ls_amp:
            problems.append(f"i_ls fundamental {got!r} A, amplitude "
                            f"{i_ls_amp!r} A")
        return problems, {"out_bytes": _out_bytes(outdir)}
    return check


def check_simulate(outdir: str, c_o: float):
    def check(result) -> tuple:
        problems = _exit_problems(result)
        if problems:
            return problems, {}
        problems += _events_problems(os.path.join(outdir, "events.csv"))
        v_o, wave_problems = _waveform(os.path.join(outdir, "waveform.csv"))
        problems += wave_problems
        diags = list(_rows(os.path.join(outdir, "diagnostics.csv")))
        per_cycle = len(v_o) // len(diags)
        # energy ledger on soft cycles (ZVS and ZCS, so the node is empty at
        # both boundaries): e_in = e_load + e_hard + C_o (v1^2 - v0^2) / 2
        for k in range(len(diags) - 1):
            row = diags[k]
            if row[3] != "1" or row[4] != "1":
                continue
            e_in, e_load, e_hard = float(row[7]), float(row[8]), float(row[9])
            v0, v1 = v_o[k * per_cycle], v_o[(k + 1) * per_cycle]
            residual = e_in - e_load - e_hard - 0.5 * c_o * (v1 * v1 - v0 * v0)
            if abs(residual) > LEDGER_REL_TOL * abs(e_in):
                problems.append(f"ledger residual {residual:.3g} J on soft "
                                f"cycle {k} (e_in {e_in:.3g} J)")
                break
        return problems, {"out_bytes": _out_bytes(outdir)}
    return check


def capture_round(receivers, j, workdir) -> list:
    a = (2 * j) % len(receivers)        # soft
    b = (2 * j + 1) % len(receivers)    # hard
    ops = []
    for kind, i in (("fig13", a), ("fig14", b), ("simulate", a),
                    ("fig13", b), ("fig14", a), ("simulate", b)):
        rcv = receivers[i]
        vp = rcv["params"]
        outdir = os.path.join(workdir, kind)
        if kind == "simulate":
            argv = ["simulate", "--config", rcv["path"], "--cycles",
                    str(SIMULATE_CYCLES), "--out", outdir]
            check = check_simulate(outdir, vp.c_o)
        else:
            argv = ["reproduce", kind, "--config", rcv["path"], "--out",
                    outdir]
            check = (check_fig13(outdir) if kind == "fig13"
                     else check_fig14(outdir, vp.i_ls_amp))
        ops.append(Op(kind, i, _cli_op(argv), check, outdir))
    return ops


ROUNDS = {"design": design_round, "regulation": regulation_round,
          "capture": capture_round}

# One sentence per workload: why it is in the benchmark.
WHY = {
    "design": "analytic, averaged and small-signal layers do all the work and "
              "step_cycle never runs, so a simulator speed-up must read as no "
              "change here",
    "regulation": "closed-loop runs step the simulator under PI control and "
                  "read only v_o_mean and the soft-switching flags",
    "capture": "long open-loop settles whose every diagnostic, waveform "
               "sample, spectrum and CSV row is consumed",
}
