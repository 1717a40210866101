"""One set-up measurement in a fresh interpreter, started by run.py:

    PYTHONPATH=src python3 perfbench/setup_child.py analyze --nq 18 11 --json

Runs `cqs` as `python -m cqs` does (through runpy, with the working directory
first on sys.path), with the given arguments, and times it from the import of
`cqs` to its exit. The time is calibrated by speed samples this interpreter
takes meanwhile (clock.py), so they measure the CPU the program runs on.
The interpreter's own start-up, which no change to `cqs` can move, is left
out.

The program's output goes to stdout as usual. The last line of stderr is
{"seconds": calibrated seconds, "raw": wall seconds}. The exit code is the
program's, or 1 if it raised.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import time
import traceback

from clock import SpeedClock


def main() -> int:
    sys.path[0] = os.getcwd()  # as under `python -m`, not this script's directory
    sys.argv = ["cqs", *sys.argv[1:]]
    clock = SpeedClock()
    code = 0
    clock.begin_op()
    t0 = time.perf_counter()
    try:
        runpy.run_module("cqs", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        elapsed = time.perf_counter() - t0
        sampling_s, factor = clock.end_op()
    clock.stop()
    seconds = elapsed - sampling_s
    if factor is None:
        factor = clock.factor(t0, t0 + seconds)
    sys.stdout.flush()
    print(json.dumps({"seconds": seconds * factor, "raw": seconds}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
