"""Self-test of the benchmark (not part of tier-1; about a minute):

    python3 -m pytest perfbench -q

* a one-round run of each workload emits every metric BENCHMARK.json names
  (op times scaled to the reference host), and the traced run every layer
  time that applies to the workload;
* a corrupted output is counted as a failed op;
* two traced runs with one seed give identical per-layer counts.
"""

import json
import math
from pathlib import Path
import statistics
import sys

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

assert bench.load_program() is not None

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Layer times the traced run must report where the layer runs.
APPLIES = {
    "design": (
        "analytic.solve_operating_point.us_per_call",
        "analytic.fall_time_exact.us_per_call",
        "rootfind.bisect_root.fall_time_exact.us_per_call",
        "averaged.integrate_averaged.ms_per_call",
        "averaged.vo_vs_duty_curve.ms_per_call",
        "smallsignal.perturb_bode_oracle.ms_per_call",
        "smallsignal.design_pi.us_per_call",
    ),
    "regulation": (
        "simulator.step_cycle.us_per_call",
        "simulator.step_cycle.self_us_per_call",
        "rootfind.bisect_root.event.us_per_call",
        "rootfind.bisect_root.ripple.us_per_call",
        "control.closed_loop_run.self_us_per_cycle",
        "scenarios.coupling_sweep.ms_per_point",
        "cli.main.self_ms",
    ),
    "capture": (
        "simulator.step_cycle.us_per_call",
        "simulator.step_cycle.self_us_per_call",
        "rootfind.bisect_root.event.us_per_call",
        "rootfind.bisect_root.ripple.us_per_call",
        "rootfind.bisect_root.fall_time_exact.us_per_call",
        "simulator.sample_waveform.us_per_sample",
        "simulator.spectrum.ms_per_call",
        "cli.main.self_ms",
    ),
}

# Per-layer counts that must repeat exactly for one seed.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]

_RUNS = {}


def one_round(workload, trace, tmp_path_factory, again=False):
    """A one-round run (``seconds=0``) with one set-up probe, cached."""
    key = (workload, trace, again)
    if key not in _RUNS:
        workdir = tmp_path_factory.mktemp(f"{workload}-{trace}")
        _RUNS[key] = bench.run_benchmark(workload, 7, 0, trace, str(workdir),
                                         probes=1)
    return _RUNS[key]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload, tmp_path_factory):
    report = one_round(workload, False, tmp_path_factory)
    line = bench.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    # each op scaled by its own chunk; throughput by the run's mean chunk
    ref_ms = [r.seconds * hostspeed.REF_CHUNK_S / r.chunk_s * 1e3
              for r in report["records"]]
    assert line["metrics"]["op_ms_p50"]["value"] == pytest.approx(
        statistics.median(ref_ms), rel=1e-12)
    extra = report["extra"]
    assert line["metrics"]["ops_per_s"]["value"] == pytest.approx(
        extra["wall.ops_per_s"][0] / extra["host.scale"][0], rel=1e-12)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_emits_layer_metrics(workload, tmp_path_factory):
    report = one_round(workload, True, tmp_path_factory)
    line = bench.result_line(report)
    assert line["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    for name in ("config.parse_config.us_per_call",
                 "rootfind.bisect_root.us_per_call", "import_s"):
        assert line["metrics"][name]["value"] > 0.0
    missing = [name for name in APPLIES[workload]
               if not report["extra"].get(name, (0.0,))[0] > 0.0]
    assert missing == []
    metrics = report["metrics"]
    if workload == "design":
        assert metrics["simulator.step_cycle.calls"][0] == 0
    else:
        # both sides of the exact fall time are exercised
        assert 0.0 < metrics["simulator.soft_frac"][0] < 1.0
        assert metrics["simulator.hard_cycles"][0] > 0
    if workload == "capture":
        assert metrics["simulator.end_drift_uv_per_cycle"][0] != 0.0
        assert metrics["simulator.sample_waveform.samples"][0] > 0


def test_layer_counts_repeat_exactly(tmp_path_factory):
    first = one_round("capture", True, tmp_path_factory)["metrics"]
    second = one_round("capture", True, tmp_path_factory,
                       again=True)["metrics"]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["rootfind.bisect_root.evals"][0] > 0


def _simulate_op(workdir):
    receivers = inputs.prepare("capture", 7, str(workdir / "in"))
    return next(op for op in workloads.capture_round(receivers, 0,
                                                     str(workdir))
                if op.kind == "simulate")


def _perturb_v_o(path, row):
    lines = Path(path).read_text().splitlines(keepends=True)
    cols = lines[row + 1].split(",")
    cols[4] = repr(float(cols[4]) + 1e-3)
    lines[row + 1] = ",".join(cols)
    Path(path).write_text("".join(lines))


def test_corrupted_output_counts_as_failed_op(tmp_path):
    op = _simulate_op(tmp_path)
    good = bench.run_op(op, 0)
    assert good.problems == []

    run = op.run

    def corrupted():
        result = run()
        _perturb_v_o(Path(op.outdir) / "waveform.csv", 1000)
        return result
    op.run = corrupted
    bad = bench.run_op(op, 0)
    assert any("v_cs1 + v_cd1 - v_o" in p for p in bad.problems)
    line = bench.result_line({"records": [good, bad], "metrics": {}})
    assert (line["attempted"], line["failed"], line["correct"]) == \
        (2, 1, False)
