"""Regenerate perfbench/wide_chains.json, the a-chain catalogue of the `wide`
workload.

Run from the repository root: python3 perfbench/make_catalogue.py

Why a catalogue: the cost of `analyze` on a random a-chain of length 40-80
with entries in {2,3} varies more than tenfold at the same length and number
of 3s, and so does its number of components. A run affords about ten such
inputs, so drawing them afresh from each seed gives seed-to-seed spreads of
30-60% in the wide metrics. Instead this script draws random chains once,
from a fixed master seed, measures each, and keeps PAIRS of chains that are
close both in `analyze` time and in number of components, a set number of
pairs per cost band (BANDS). The benchmark seed then picks one chain of every
pair outside the middle band (see workloads.wide): each seed runs different
inputs, with nearly the same total work. Five pairs share the middle band and
run both their chains, so the median latency falls amid ten inputs of like
cost and does not jump between bands from run to run.

The seconds in the file are calibrated (clock.py) as they were when the file
was made; they label the bands and are not compared with later runs.

The component counts also serve as reference answers: a wide op that reports
another number of components fails its check.
"""

from __future__ import annotations

import io
import json
import math
import platform
import random
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from run import Timing  # noqa: E402
from workloads import nq_from_a_chain  # noqa: E402

MASTER_SEED = 2008
CANDIDATES = 400
LENGTHS = (40, 80)
THREES = (14, 22)
#: (lowest, highest calibrated seconds per analyze call, pairs); see clock.py
BANDS = [(0.10, 0.20, 4), (0.30, 0.40, 5), (0.70, 1.00, 1), (1.40, 1.90, 1), (2.00, 2.60, 1)]
TIME_CAP = 6.0  # CPU seconds


class _TooSlow(Exception):
    pass


def _out_of_time(*_):
    raise _TooSlow()


def measure(cli, clock, n: int, q: int) -> tuple[float, int] | None:
    """Calibrated time of one `analyze --json` call, timed the way run.py
    times it, and the component count; None past TIME_CAP CPU seconds."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_PROF, TIME_CAP)
    try:
        clock.begin_op()
        t0 = time.perf_counter()
        try:
            rc = cli.main(["analyze", "--nq", str(n), str(q), "--json"], out, io.StringIO())
        finally:
            elapsed = time.perf_counter() - t0
            sampling_s, factor = clock.end_op()
    except _TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    if rc != 0:
        raise RuntimeError(f"analyze ({n},{q}) exited {rc}")
    seconds = Timing(t0, elapsed - sampling_s, factor).calibrated(clock)
    return seconds, len(json.loads(out.getvalue())["components"])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cqs import cli

    clock = SpeedClock()
    signal.signal(signal.SIGPROF, _out_of_time)
    rng = random.Random(MASTER_SEED)
    pool = []
    for i in range(CANDIDATES):
        length = rng.randint(*LENGTHS)
        threes = set(rng.sample(range(length), rng.randint(*THREES)))
        a = [3 if j in threes else 2 for j in range(length)]
        nq = nq_from_a_chain(a)
        got = measure(cli, clock, *nq)
        # screen on one call, then keep the median of three
        if got is not None and any(0.8 * lo <= got[0] <= 1.2 * hi for lo, hi, _ in BANDS):
            again = [measure(cli, clock, *nq) for _ in range(2)]
            if None in again:
                continue
            seconds = statistics.median([got[0]] + [t for t, _ in again])
            if any(lo <= seconds <= hi for lo, hi, _ in BANDS):
                pool.append({"a": "".join(map(str, a)), "seconds": round(seconds, 4),
                             "components": got[1]})
        if i % 50 == 49:
            print(f"{i + 1} candidates drawn, {len(pool)} in a cost band", flush=True)

    pairs = []
    for lo, hi, wanted in BANDS:
        members = [p for p in pool if lo <= p["seconds"] <= hi]
        # closest pairs first, each chain used once
        ranked = sorted(
            (abs(math.log(x["seconds"] / y["seconds"]))
             + abs(math.log(x["components"] / y["components"])), i, j)
            for i, x in enumerate(members) for j, y in enumerate(members) if i < j)
        used: set[int] = set()
        chosen = []
        for _, i, j in ranked:
            if len(chosen) < wanted and i not in used and j not in used:
                used |= {i, j}
                chosen.append([members[i], members[j]])
        if len(chosen) < wanted:
            raise RuntimeError(f"band {lo}-{hi} s has too few chains; draw more")
        for x, y in chosen:
            print(f"band {lo}-{hi} s: {x['seconds']:.3f}/{y['seconds']:.3f} s, "
                  f"{x['components']}/{y['components']} components")
        pairs += chosen

    doc = {
        "about": "a-chain pairs for the wide workload; see make_catalogue.py",
        "master_seed": MASTER_SEED,
        "measured_on": f"{platform.machine()}, Python {platform.python_version()}, "
                       "calibrated seconds, median of 3",
        "pairs": pairs,
    }
    (HERE / "wide_chains.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
