"""Print the sha256 of every table the wptrx CLI writes, one ``sha256  path``
line per file, the stdout and stderr of each command included.

Runs every ``reproduce`` figure, the three ``transient`` scenarios and the
``simulate``, ``steady``, ``bode``, ``design`` and ``validate`` commands
against the ``src`` tree next to this script, each in its own directory
under a temporary root, or under ``--keep DIR`` (created; must not exist),
which keeps the tables.  ``design``, ``bode``, ``simulate`` and ``reproduce
fig13`` also run on a copy of table2 without its ``duty`` and
``phase_delay_norm`` keys, so the fallbacks the CLI takes when a config
gives neither are checked too, and ``reproduce fig13`` and ``fig14`` on a
copy at ``r_load = 1.5k`` and ``duty = 0.3``, whose orbit hard-switches and
never reaches State V.  A refactor that must keep the outputs
byte-identical is checked by diffing two runs:

    python3 tools/table_digests.py > before.txt   # on the parent commit
    python3 tools/table_digests.py > after.txt    # on the change
    diff before.txt after.txt

Where outputs are expected to move in their last digits, keep both sets of
tables and measure the change per column with ``tools/table_drift.py``:

    python3 tools/table_digests.py --keep /tmp/before   # parent commit
    python3 tools/table_digests.py --keep /tmp/after    # the change
    python3 tools/table_drift.py /tmp/before /tmp/after

Stdlib only; about 15 s on a 2-core x86-64 VM.
"""

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "wptrx" / "configs"
TABLE2 = str(CONFIGS / "table2.cfg")
FIG7 = str(CONFIGS / "fig7.cfg")

# copies of table2, each written to a temporary file of its own by main():
# key -> new value, or None to drop the key
FALLBACK = "<table2 without duty and phase_delay_norm>"
LIGHT = "<table2 at r_load = 1.5k and duty = 0.3>"
_DERIVED = {FALLBACK: {"duty": None, "phase_delay_norm": None},
            LIGHT: {"r_load": "1.5k", "duty": "0.3"}}

FIGURES = ("fig4a", "fig5", "fig7", "fig9", "fig13", "fig14", "fig17",
           "fig19", "fig20")
SWEEP = ("--sweep", "0.05:0.95:0.05")

# (run name, argv, writes into --out)
RUNS = (
    [(f"reproduce_{fig}", ["reproduce", fig], True) for fig in FIGURES]
    + [(f"transient_{name}", ["transient", "--config", TABLE2,
                              "--scenario", name], True)
       for name in ("startup", "load_step", "source_ramp")]
    + [
        ("simulate_table2_200", ["simulate", "--config", TABLE2,
                                 "--cycles", "200"], True),
        ("simulate_table2_d0.7_50", ["simulate", "--config", TABLE2,
                                     "--duty", "0.7", "--cycles", "50"], True),
        ("simulate_table2_20", ["simulate", "--config", TABLE2,
                                "--cycles", "20"], True),
        ("simulate_fig7_50", ["simulate", "--config", FIG7,
                              "--cycles", "50"], True),
        ("simulate_table2_rate10e6_5", ["simulate", "--config", TABLE2,
                                        "--sample-rate", "10e6",
                                        "--cycles", "5"], True),
        ("steady_written", ["steady", "--config", TABLE2, *SWEEP], True),
        ("steady_printed", ["steady", "--config", TABLE2, *SWEEP], False),
        ("steady_exact_written", ["steady", "--config", TABLE2, *SWEEP,
                                  "--exact"], True),
        ("steady_exact_printed", ["steady", "--config", TABLE2, *SWEEP,
                                  "--exact"], False),
        ("bode_written", ["bode", "--config", TABLE2], True),
        ("bode_printed", ["bode", "--config", TABLE2], False),
        ("design_written", ["design", "--config", TABLE2], True),
        ("design_fig7_written", ["design", "--config", FIG7], True),
        ("validate_table2", ["validate", "--config", TABLE2], False),
        ("validate_fig7", ["validate", "--config", FIG7], False),
        ("fallback_design", ["design", "--config", FALLBACK], True),
        ("fallback_bode", ["bode", "--config", FALLBACK], True),
        ("fallback_simulate_20", ["simulate", "--config", FALLBACK,
                                  "--cycles", "20"], True),
        ("fallback_reproduce_fig13", ["reproduce", "fig13",
                                      "--config", FALLBACK], True),
        ("light_reproduce_fig13", ["reproduce", "fig13",
                                   "--config", LIGHT], True),
        ("light_reproduce_fig14", ["reproduce", "fig14",
                                   "--config", LIGHT], True),
    ])


def _write_derived_config(path: Path, changes: dict) -> None:
    out = []
    for line in (CONFIGS / "table2.cfg").read_text().splitlines(True):
        key = line.split("=", 1)[0].strip()
        if key not in changes:
            out.append(line)
        elif changes[key] is not None:
            out.append(f"{key} = {changes[key]}\n")
    path.write_text("".join(out))


def _run(tmp: Path, derived: dict, name: str, argv: list,
         writes: bool) -> None:
    out = tmp / name
    out.mkdir()
    argv = [derived.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "wptrx", *argv]
    if writes:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=tmp)
    (out / "stdout").write_bytes(proc.stdout)
    (out / "stderr").write_bytes(proc.stderr)
    (out / "exit").write_text(f"{proc.returncode}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keep", metavar="DIR",
                    help="write the tables under DIR and keep them")
    args = ap.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.keep:
            tmp = Path(args.keep).resolve()
            tmp.mkdir(parents=True)
        else:
            tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        cfg_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        derived = {}
        for k, (name, changes) in enumerate(_DERIVED.items()):
            derived[name] = str(cfg_dir / f"table2_{k}.cfg")
            _write_derived_config(Path(derived[name]), changes)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(_run, tmp, derived, *run)
                        for run in RUNS]:
                fut.result()
        for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(tmp)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
