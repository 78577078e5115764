"""Run one ``foon`` command line with layer spans recorded (traced runs).

    python3 perfbench/cli_child.py SPAWNED SPANS_FILE FOON_ARGS...

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so ``process_start_ms`` covers interpreter start-up plus ``import foon``.
The exit code and output are those of ``python -m foon FOON_ARGS...``.
"""

import sys
import time

import foon.cli

ready = time.perf_counter()

import json  # noqa: E402  (after the start-up measurement)

from spans import Tracer  # noqa: E402

spawned, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
tracer = Tracer()
tracer.op = "cli"
tracer.install()
try:
    code = foon.cli.main(argv)
finally:
    tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"process_start_ms": (ready - spawned) * 1000.0, "spans": tracer.spans}, out)
sys.exit(code)
