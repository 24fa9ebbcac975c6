"""One benchmark set-up in a fresh interpreter: import the program, then
generate, write, parse and validate the workload's seeded inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints one JSON line with ``setup_s`` and ``import_s`` (seconds), both
counted from the first statement here, so interpreter start-up is left out.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
import wptrx  # noqa: E402
import wptrx.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter()
if not os.path.abspath(wptrx.__file__).startswith(SRC + os.sep):
    sys.exit(f"wptrx imported from {wptrx.__file__}, not from {SRC}")

import inputs  # noqa: E402

inputs.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
T_END = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"setup_s": T_END - T0, "import_s": T_IMPORT - T0}))
