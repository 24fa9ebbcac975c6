"""wptrx benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload {design,regulation,capture} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. times the set-up (import, then generate, parse and validate the seeded
   inputs) in ``SETUP_PROBES`` fresh interpreters and keeps the median;
2. runs whole rounds of ops (see ``workloads``) until ``--seconds`` have
   passed, timing each op and checking its outputs afterwards;
3. prints a readable summary, then as its last line one JSON object:
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs the first round untraced, then wraps the
program's layers (``tracing``) and runs rounds again from the first, so the
first traced round measures the tracing overhead against the untraced one.

A manifest (seed, parameter box, machine, versions, commit, every op and
failure) is written to ``perfbench/.run/``, with the spans of a traced run.
The process exits 2 when the program cannot be imported from ``src/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / ".run"

WORKLOADS = ("design", "regulation", "capture")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it
TIME_UNITS = ("s", "ms", "us")


def load_program():
    """Import ``wptrx`` from this checkout's ``src/``; None if impossible."""
    sys.path.insert(0, str(SRC))
    try:
        import wptrx
    except ImportError as exc:
        print(f"error: cannot import wptrx from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(wptrx.__file__).resolve().is_relative_to(SRC):
        print(f"error: wptrx imported from {wptrx.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return wptrx


def _python(script: str, *args) -> str:
    """Last stdout line of ``script`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(workload: str, seed: int, workdir: str) -> dict:
    """One set-up probe, then the import calibration right after it."""
    probe = json.loads(_python("setup_probe.py", workload, str(seed),
                               workdir))
    probe["calibration_s"] = float(_python("import_calibration.py"))
    return probe


def run_op(op, rnd: int):
    from workloads import OpRecord

    if op.outdir:
        shutil.rmtree(op.outdir, ignore_errors=True)
        os.makedirs(op.outdir)
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed op is recorded, never fatal
        dt = time.perf_counter() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return OpRecord(op.kind, op.receiver, rnd, dt,
                        [f"{type(exc).__name__}: {exc} (raised at "
                         f"{where.filename}:{where.lineno})"])
    dt = time.perf_counter() - t0
    try:
        problems, observations = op.check(out)
    except Exception as exc:  # unreadable output fails the op
        problems, observations = [f"check: {type(exc).__name__}: {exc}"], {}
    return OpRecord(op.kind, op.receiver, rnd, dt, problems, observations)


def run_rounds(workload, receivers, workdir, seconds, tracer=None,
               max_rounds=None) -> list:
    """Whole rounds from round 0 until ``seconds`` pass (at least one), or
    until a tracer holds ``MAX_SPANS`` spans."""
    from tracing import MAX_SPANS
    from workloads import ROUNDS

    records = []
    deadline = time.perf_counter() + seconds
    rnd = 0
    while True:
        for op in ROUNDS[workload](receivers, rnd, workdir):
            chunk_s = hostspeed.chunk()
            if tracer is not None:
                tracer.current_op = len(records)
            records.append(run_op(op, rnd))
            records[-1].chunk_s = chunk_s
        rnd += 1
        if (time.perf_counter() >= deadline or rnd == max_rounds
                or tracer is not None and len(tracer.fn) >= MAX_SPANS):
            return records


def _ref_seconds(record) -> float:
    """An op's latency on the reference host, by the chunk run before it."""
    return record.seconds * hostspeed.REF_CHUNK_S / record.chunk_s


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  workdir: str, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result line plus everything logged."""
    import inputs
    import tracing

    samples = [setup_probe(workload, seed, os.path.join(workdir, f"probe{k}"))
               for k in range(probes)]
    setup_s = [s["setup_s"] for s in samples]
    import_s = [s["import_s"] for s in samples]
    probe_scale = [hostspeed.REF_IMPORT_S / s["calibration_s"]
                   for s in samples]
    inputs_dir = os.path.join(workdir, "inputs")
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "setup_s": setup_s, "import_s": import_s,
              "probe_scale": probe_scale}

    if not trace:
        receivers = inputs.prepare(workload, seed, inputs_dir)
        records = run_rounds(workload, receivers, workdir, seconds)
        chunks = [r.chunk_s for r in records]
        f = hostspeed.scale(chunks)
        lat = [r.seconds for r in records]
        lat_ref = [_ref_seconds(r) for r in records]
        setup_ref = [t * k for t, k in zip(setup_s, probe_scale)]
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "ops_per_s": (len(lat) / sum(lat) / f, "1/s"),
            "op_ms_p50": (statistics.median(lat_ref) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        extra = {
            "wall.setup_s": (statistics.median(setup_s), "s"),
            "wall.ops_per_s": (len(lat) / sum(lat), "1/s"),
            "wall.op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        }
        if len(lat) >= P90_MIN_OPS:
            extra["op_ms_p90"] = (statistics.quantiles(lat_ref, n=10)[-1]
                                  * 1e3, "ms")
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            receivers = inputs.prepare(workload, seed, inputs_dir)
        finally:
            tracer.uninstall()
        untraced = run_rounds(workload, receivers, workdir, 0, max_rounds=1)
        tracer.install()
        try:
            records = run_rounds(workload, receivers, workdir, seconds,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        n0 = len(untraced)
        metrics, extra = tracing.layer_metrics(tracer, n0)
        drift = [abs(r.observations["end_drift_uv_per_cycle"])
                 for r in records[:n0]
                 if "end_drift_uv_per_cycle" in r.observations]
        out_bytes = [r.observations["out_bytes"] for r in records[:n0]
                     if "out_bytes" in r.observations]
        metrics.update({
            "simulator.end_drift_uv_per_cycle": (
                statistics.median(drift) if drift else 0.0, "uV/cycle"),
            "cli.out_bytes": (sum(out_bytes) / n0, "B"),
        })
        chunks = [r.chunk_s for r in untraced + records]
        f = hostspeed.scale(chunks)
        for table in (metrics, extra):
            for name, (value, unit) in table.items():
                if unit in TIME_UNITS:
                    table[name] = (value * f, unit)
        # the same first round untraced and traced, each op scaled by its
        # own chunk so a change of host state between them cancels
        untraced_s = sum(_ref_seconds(r) for r in untraced)
        traced_s = sum(_ref_seconds(r) for r in records[:n0])
        metrics.update({
            "import_s": (statistics.median(
                [t * k for t, k in zip(import_s, probe_scale)]), "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s,
                                    "frac"),
        })
        report["spans"] = tracer
    extra["host.chunk_ms"] = (statistics.mean(chunks) * 1e3, "ms")
    extra["host.scale"] = (f, "frac")
    report.update(receivers=receivers, records=records, metrics=metrics,
                  extra=extra)
    return report


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _commit()}


def result_line(report: dict) -> dict:
    failed = sum(1 for r in report["records"] if r.problems)
    return {"correct": failed == 0, "attempted": len(report["records"]),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in report["metrics"].items()}}


def print_summary(report: dict, mach: dict) -> None:
    from inputs import DUTY_NUDGE
    from workloads import WHY

    records = report["records"]
    failed = [r for r in records if r.problems]
    sides = {}
    for rcv in report["receivers"]:
        key = f"{rcv['anchor']}/{rcv['side']}"
        sides[key] = sides.get(key, 0) + 1
    print(f"workload {report['workload']}: {WHY[report['workload']]}")
    print(f"seed {report['seed']}, trace {report['trace']}, closed loop with "
          f"1 caller, {len(records)} ops in "
          f"{records[-1].round + 1} rounds")
    print(f"machine: nproc {mach['nproc']}, {mach['cpu']}, Python "
          f"{mach['python']}, numpy {mach['numpy']}, commit {mach['commit']}")
    print(f"inputs: {len(report['receivers'])} receivers "
          f"({', '.join(f'{n} {k}' for k, n in sorted(sides.items()))}), "
          f"drawn from the box in perfbench/inputs.py")
    print(f"fail_frac {len(failed) / len(records):.6g} "
          f"({len(failed)} failed of {len(records)} attempted)")
    for r in failed:
        print(f"  FAILED {r.kind} receiver {r.receiver} round {r.round}: "
              f"{'; '.join(r.problems)}")
    nudged = [rcv["duty_nudges"] for rcv in report["receivers"]
              if rcv["duty_nudges"]]
    if nudged:
        print(f"note: {len(nudged)} receiver(s) had their duty stepped "
              f"{sum(nudged)} x {DUTY_NUDGE:g} off a non-converging "
              f"exact operating point (seed-commit defect, see README)")
    no_conv = sum(r.observations.get("no_convergence", 0) for r in records)
    if no_conv:
        print(f"note: {no_conv} exact operating points raised NoConvergence "
              f"over {len(records)} design passes (recorded, not failures)")
    for name, (value, unit) in list(report["metrics"].items()) + \
            list(report["extra"].items()):
        suffix = f" (n={len(records)} ops)" if name.startswith("op_ms") else ""
        print(f"{name} = {value:.6g} {unit}{suffix}")


def write_manifest(report: dict, mach: dict, line: dict) -> Path:
    import inputs

    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    manifest = {
        "workload": report["workload"], "seed": report["seed"],
        "trace": report["trace"], "machine": mach,
        "box": inputs.describe_box(),
        "receivers": [{k: rcv[k] for k in ("anchor", "side", "config",
                                            "sweep_amps", "duty_nudges")}
                      for rcv in report["receivers"]],
        "setup_s": report["setup_s"], "import_s": report["import_s"],
        "probe_scale": report["probe_scale"],
        "ops": [{"kind": r.kind, "receiver": r.receiver, "round": r.round,
                 "ms": r.seconds * 1e3, "chunk_ms": r.chunk_s * 1e3,
                 "problems": r.problems,
                 "observations": r.observations} for r in report["records"]],
        "result": line,
        "extra": {k: {"value": v, "unit": u}
                  for k, (v, u) in report["extra"].items()},
    }
    path = RUN_DIR / f"{stem}.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n")
    if "spans" in report:
        report["spans"].write(RUN_DIR / f"{stem}-spans.csv.gz")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if load_program() is None:
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mach = machine()
    line = result_line(report)
    print_summary(report, mach)
    print(f"manifest: {write_manifest(report, mach, line)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
