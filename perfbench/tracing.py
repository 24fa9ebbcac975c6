"""Span tracing of the program's layers, installed from outside the program.

Every public function of each layer module is replaced by a wrapper that
records a span (function, start, end, parent span, op id).  ``cli``,
``control`` and ``simulator`` import functions by name (``from .simulator
import run, step_cycle``), so wrapping the defining module alone would miss
most calls: :meth:`Tracer.install` rebinds *every* ``wptrx.*`` module
attribute that is the original function object, and :meth:`uninstall` puts
the originals back.

Calls made through containers built at import time are not seen: the CLI
dispatches its ``cmd_*`` handlers from a dict, so a ``cli.main`` span's self
time holds the handler bodies, i.e. table formatting and writing.

Spans are kept in flat arrays in memory and written out when the run ends.
Self time is a span's duration minus the durations of its direct children.
"""

from array import array
import functools
import gzip
import importlib
import inspect
import sys
import time

LAYERS = ("config", "cli", "params", "analytic", "averaged", "smallsignal",
          "rootfind", "simulator", "control", "scenarios")

# bisect_root's calling function -> the layer whose events it locates
BISECT_CALLERS = {"step_cycle": "event", "_conduction_extremes": "ripple",
                  "fall_time_exact": "fall_time_exact"}
BISECT_LABELS = ("event", "ripple", "fall_time_exact", "other")

RAISED = -1  # ``extra`` of a span whose call raised

# A traced run stops adding rounds once this many spans are held (~40 MB).
MAX_SPANS = 1_000_000


def _step_cycle_extra(args, kwargs, result) -> int:
    _, diags, piece = result
    return (int(diags.hard_switched) | int(not diags.reached_state_v) << 1
            | int(diags.zvs_ok) << 2 | len(piece.events) << 3)


def _length_of(attr):
    def extract(args, kwargs, result) -> int:
        return len(getattr(result, attr) if attr else result)
    return extract


def _exact_flag(args, kwargs, result) -> int:
    return int(bool(kwargs.get("exact", args[2] if len(args) > 2 else False)))


# Per-call counts worth keeping, packed into one integer per span.
EXTRACT = {
    "analytic.solve_operating_point": _exact_flag,
    "simulator.step_cycle": _step_cycle_extra,
    "simulator.sample_waveform": _length_of("t"),
    "control.closed_loop_run": _length_of("t"),
    "scenarios.coupling_sweep": _length_of(None),
}


class Tracer:
    """Records spans of every public ``wptrx`` layer function."""

    def __init__(self):
        self.names = []          # function id -> "module.function"
        self.fn = array("i")     # per span: function id
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.extra = array("q")  # packed counts, RAISED, or 0
        self.child = array("d")  # summed duration of direct children
        self.errors = {}         # span index -> exception class name
        self.current_op = -1
        self._stack = []
        self._wrappers = {}      # id(original) -> (original, wrapper)
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"wptrx.{layer}")
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        self._wrappers[id(obj)] = (
                            obj, self._wrap(f"{layer}.{attr}", obj))
        wrappers = self._wrappers
        for name, mod in list(sys.modules.items()):
            if name != "wptrx" and not name.startswith("wptrx."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        extract = EXTRACT.get(name)
        fn_a, t0_a, t1_a = self.fn, self.t0, self.t1
        parent_a, op_a, extra_a, child_a = (self.parent, self.op, self.extra,
                                            self.child)
        stack, clock, errors = self._stack, time.perf_counter, self.errors
        tracer = self
        bisect = name == "rootfind.bisect_root"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fn_a)
            parent = stack[-1] if stack else -1
            fn_a.append(fid)
            parent_a.append(parent)
            op_a.append(tracer.current_op)
            t0_a.append(0.0)
            t1_a.append(0.0)
            extra_a.append(0)
            child_a.append(0.0)
            stack.append(idx)
            if bisect:
                caller = sys._getframe(1).f_code.co_name
                label = BISECT_LABELS.index(BISECT_CALLERS.get(caller,
                                                               "other"))
                f = args[0]
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)
                args = (counted,) + args[1:]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                errors[idx] = type(exc).__name__
                extra = RAISED
                raise
            else:
                t1 = clock()
                if bisect:
                    extra = evals[0] * 8 + label
                elif extract is not None:
                    extra = extract(args, kwargs, result)
                else:
                    extra = 0
            finally:
                stack.pop()
                t0_a[idx] = t0
                t1_a[idx] = t1
                extra_a[idx] = extra
                if parent >= 0:
                    child_a[parent] += t1 - t0
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_s,end_s,parent,op,extra."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span,name,start_s,end_s,parent,op,extra\n")
            for i in range(len(self.fn)):
                fh.write(f"{i},{self.names[self.fn[i]]},{self.t0[i]!r},"
                         f"{self.t1[i]!r},{self.parent[i]},{self.op[i]},"
                         f"{self.extra[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, n_round0: int) -> tuple:
    """(reported, times) as ``{name: (value, unit)}``.

    ``reported`` goes in the result line: counts, which are per op over the
    first traced round (ops ``0 .. n_round0-1``), the same input set for a
    given seed, so they repeat exactly; and the times of the layers every
    workload calls.  ``times`` holds the other layer times, only for layers
    this workload called.  Times cover every traced span.
    """
    names = tracer.names
    n_fn = len(names)
    fid = {name: i for i, name in enumerate(names)}
    calls = [0] * n_fn
    total = [0.0] * n_fn
    own = [0.0] * n_fn
    calls0 = [0] * n_fn
    no_conv0 = 0
    b_calls = [0] * len(BISECT_LABELS)
    b_total = [0.0] * len(BISECT_LABELS)
    b_calls0 = [0] * len(BISECT_LABELS)
    b_evals0 = [0] * len(BISECT_LABELS)
    sop_calls = [0, 0]           # approx, exact
    sop_total = [0.0, 0.0]
    cycles0 = hard0 = no_v0 = zvs0 = events0 = 0
    samples = samples0 = clr_cycles = sweep_points = 0
    clr_step_time = 0.0
    i_bisect = fid.get("rootfind.bisect_root")
    i_step = fid.get("simulator.step_cycle")
    i_sample = fid.get("simulator.sample_waveform")
    i_clr = fid.get("control.closed_loop_run")
    i_sweep = fid.get("scenarios.coupling_sweep")
    i_sop = fid.get("analytic.solve_operating_point")
    fn, t0, t1, parent, op, extra, child = (tracer.fn, tracer.t0, tracer.t1,
                                            tracer.parent, tracer.op,
                                            tracer.extra, tracer.child)
    for s in range(len(fn)):
        f = fn[s]
        dur = t1[s] - t0[s]
        x = extra[s]
        first = 0 <= op[s] < n_round0
        calls[f] += 1
        total[f] += dur
        own[f] += dur - child[s]
        if first:
            calls0[f] += 1
        if x == RAISED:
            if first and f == i_sop and tracer.errors[s] == "NoConvergence":
                no_conv0 += 1
        elif f == i_bisect:
            label = x & 7
            b_calls[label] += 1
            b_total[label] += dur
            if first:
                b_calls0[label] += 1
                b_evals0[label] += x >> 3
        elif f == i_step:
            if parent[s] >= 0 and fn[parent[s]] == i_clr:
                clr_step_time += dur
            if first:
                cycles0 += 1
                hard0 += x & 1
                no_v0 += x >> 1 & 1
                zvs0 += x >> 2 & 1
                events0 += x >> 3
        elif f == i_sop:
            sop_calls[x] += 1
            sop_total[x] += dur
        elif f == i_sample:
            samples += x
            if first:
                samples0 += x
        elif f == i_clr:
            clr_cycles += x
        elif f == i_sweep:
            sweep_points += x

    def per_op(count):
        return count / n_round0

    def ratio(a, b):
        return a / b if b else 0.0

    def get(name, arr):
        return arr[fid[name]] if name in fid else 0

    counts = {
        "rootfind.bisect_root.calls": (per_op(sum(b_calls0)), "count"),
        "rootfind.bisect_root.evals": (per_op(sum(b_evals0)), "count"),
    }
    for k, label in enumerate(BISECT_LABELS[:3]):
        key = f"rootfind.bisect_root.{label}"
        counts[f"{key}.calls"] = (per_op(b_calls0[k]), "count")
        counts[f"{key}.evals"] = (per_op(b_evals0[k]), "count")
        if label == "fall_time_exact":
            counts[f"{key}.evals_per_call"] = (ratio(b_evals0[k], b_calls0[k]),
                                               "count")
        else:
            counts[f"{key}.evals_per_cycle"] = (ratio(b_evals0[k], cycles0),
                                                "count")
    counts.update({
        "simulator.step_cycle.calls": (per_op(cycles0), "count"),
        "simulator.soft_frac": (ratio(zvs0, cycles0), "frac"),
        "simulator.hard_cycles": (per_op(hard0), "count"),
        "simulator.no_state_v_cycles": (per_op(no_v0), "count"),
        "simulator.events_per_cycle": (ratio(events0, cycles0), "count"),
        "simulator.sample_waveform.samples": (per_op(samples0), "count"),
        "control.closed_loop_run.calls": (
            per_op(get("control.closed_loop_run", calls0)), "count"),
        "analytic.solve_operating_point.calls": (
            per_op(get("analytic.solve_operating_point", calls0)), "count"),
        "analytic.solve_operating_point.no_convergence": (per_op(no_conv0),
                                                          "count"),
    })

    times = {}

    def per_call(name, scale, unit, stat="per_call", arr=total, n=None):
        if name in fid and calls[fid[name]]:
            denom = calls[fid[name]] if n is None else n
            times[f"{name}.{unit}_{stat}"] = (arr[fid[name]] / denom * scale,
                                              unit)

    per_call("config.parse_config", 1e6, "us")
    per_call("rootfind.bisect_root", 1e6, "us")
    for k, label in enumerate(BISECT_LABELS[:3]):
        if b_calls[k]:
            times[f"rootfind.bisect_root.{label}.us_per_call"] = (
                b_total[k] / b_calls[k] * 1e6, "us")
    per_call("simulator.step_cycle", 1e6, "us")
    if i_step is not None and calls[i_step]:
        times["simulator.step_cycle.self_us_per_call"] = (
            own[i_step] / calls[i_step] * 1e6, "us")
    per_call("simulator.sample_waveform", 1e6, "us", "per_sample",
             n=samples)
    per_call("simulator.spectrum", 1e3, "ms")
    if "cli.main" in fid and calls[fid["cli.main"]]:
        times["cli.main.self_ms"] = (
            own[fid["cli.main"]] / calls[fid["cli.main"]] * 1e3, "ms")
    if clr_cycles:
        times["control.closed_loop_run.self_us_per_cycle"] = (
            (total[i_clr] - clr_step_time) / clr_cycles * 1e6, "us")
    per_call("scenarios.coupling_sweep", 1e3, "ms", "per_point",
             n=sweep_points)
    per_call("analytic.solve_operating_point", 1e6, "us")
    for k, mode in enumerate(("approx", "exact")):
        if sop_calls[k]:
            times[f"analytic.solve_operating_point.{mode}.us_per_call"] = (
                sop_total[k] / sop_calls[k] * 1e6, "us")
    per_call("analytic.fall_time_exact", 1e6, "us")
    per_call("averaged.integrate_averaged", 1e3, "ms")
    per_call("averaged.vo_vs_duty_curve", 1e3, "ms")
    per_call("smallsignal.perturb_bode_oracle", 1e3, "ms")
    per_call("smallsignal.design_pi", 1e6, "us")
    # layers every workload calls go in the result line as well
    for name in ("config.parse_config.us_per_call",
                 "rootfind.bisect_root.us_per_call"):
        counts[name] = times.pop(name, (0.0, "us"))
    return counts, times
