"""cqs benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload {sweep,documents,wide} --seed N \
        --seconds S --trace {0,1} [--tiny] [--digests FILE]

Run from the repository root; the program is imported from ./src. The
workload's op list (one "pass") is built from the seed, then replayed in
order, in whole passes, as many as fit in S seconds; the first pass always
runs. Every op's output is checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs each op twice, once untraced and once traced (alternating
which goes first), and reports the per-layer metrics of the traced runs,
averaged per pass, plus the tracing overhead: traced minus untraced time.
The spans are written to .perfbench/spans-<workload>.{bin,json}.
--tiny shrinks every workload to seconds, for the self-check (selfcheck.py).
--digests FILE checks analyze documents against another digest table than
perfbench/digests.json; the self-check uses it to feed in wrong digests.

All times are calibrated against a reference unit of work (see clock.py); raw wall
times are printed alongside. An op that raises, exits with an unexpected
code or fails its check counts as failed, and the run goes on. The set-up
measurement counts as one more op, failed if any of its interpreters
answers wrongly. The timed ops are chosen so that every one succeeds at the
commit that added the benchmark. Inputs that hit a known defect there are
the workload's probes: each runs once, untimed, after the timed passes, and
its outcome is printed. A probe that raises or is refused is reported, not
counted; one that answers wrongly counts as a failed op and makes the run
incorrect.

The process is not pinned to a CPU, so worker processes the program may
start can use every CPU the benchmark has.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from clock import NOMINAL_S, SpeedClock  # noqa: E402

SETUP_ARGV = ["analyze", "--nq", "18", "11", "--json"]
SETUP_REPEATS = 11


class Timing(NamedTuple):
    start: float
    seconds: float  # wall time, less the time the speed sampling took
    factor: float | None  # calibration from samples taken during the op

    def calibrated(self, clock: SpeedClock) -> float:
        factor = self.factor
        if factor is None:
            factor = clock.factor(self.start, self.start + self.seconds)
        return self.seconds * factor


class Result(NamedTuple):
    outcome: str  # "ok", "raised ...", "refused ...", "wrong: ..."
    timing: Timing
    items: int  # items answered: components, figures, chains, singularities
    out_bytes: int  # bytes of output: the files written, or else stdout


class Stats:
    """Per-kind timings and item counts of the ops that succeeded, and the
    timings of those that failed."""

    def __init__(self) -> None:
        self.timings: dict[str, list[Timing]] = {"main": [], "side": []}
        self.failed_timings: dict[str, list[Timing]] = {"main": [], "side": []}
        self.items = {"main": 0, "side": 0}
        self.out_bytes = {"main": 0, "side": 0}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}

    def record(self, op, result: Result) -> None:
        self.count(op.label, result.outcome)
        if result.outcome == "ok":
            self.timings[op.kind].append(result.timing)
            self.items[op.kind] += result.items
            self.out_bytes[op.kind] += result.out_bytes
        else:
            self.failed_timings[op.kind].append(result.timing)

    def count(self, label: str, outcome: str) -> None:
        self.attempted += 1
        if outcome == "ok":
            return
        self.failed += 1
        if outcome.startswith("wrong"):
            self.wrong += 1
        key = f"{label}: {outcome}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_op(op, tmp_root: Path, clock: SpeedClock) -> Result:
    """One CLI call, timed and checked."""
    from cqs import cli

    out, err = io.StringIO(), io.StringIO()
    argv, outdir = op.argv, None
    if op.wants_outdir:
        outdir = Path(tempfile.mkdtemp(dir=tmp_root)) / "out"
        argv = argv + ["--out", str(outdir)]
    try:
        raised = None
        clock.begin_op()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv, out, err)
        except Exception as exc:  # a known defect or a new one: count it, go on
            raised = exc
        finally:
            elapsed = time.perf_counter() - t0
            sampling_s, factor = clock.end_op()
        timing = Timing(t0, elapsed - sampling_s, factor)
        if raised is not None:
            return Result(f"raised {type(raised).__name__}", timing, 0, 0)
        text = out.getvalue()
        try:
            items = op.check(rc, text, outdir)
        except workloads.Refused as exc:
            return Result(f"refused ({exc})", timing, 0, 0)
        except Exception as exc:  # CheckError, or output the check cannot read
            return Result(f"wrong: {exc}", timing, 0, 0)
        if outdir is None:
            written = len(text.encode("utf-8"))
        else:
            written = sum(p.stat().st_size for p in outdir.iterdir())
        return Result("ok", timing, items, written)
    finally:
        if outdir is not None:
            shutil.rmtree(outdir.parent, ignore_errors=True)


def measure_setup(repeats: int, expected: str) -> tuple[float, float, str]:
    """Median calibrated and raw time of `cqs analyze` in a fresh interpreter,
    which times itself (setup_child.py), and the outcome of checking its
    output. A run that gives no timing counts with its raw wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "setup_child.py"), *SETUP_ARGV]
    calibrated, raw = [], []
    outcome = "ok"
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        elapsed = time.perf_counter() - t0
        try:
            timing = json.loads(proc.stderr.splitlines()[-1])
            seconds, wall = float(timing["seconds"]), float(timing["raw"])
        except (IndexError, ValueError, KeyError, TypeError):
            seconds = wall = elapsed
            outcome = f"wrong: no set-up timing, exit code {proc.returncode}"
        if proc.returncode != 0:
            outcome = f"wrong: exit code {proc.returncode}, {proc.stderr[-200:]!r}"
        elif workloads.digest(proc.stdout) != expected:
            outcome = "wrong: analyze --json differs from the reference digest"
        if i:  # the first run may compile bytecode; users pay that once
            calibrated.append(seconds)
            raw.append(wall)
    return statistics.median(calibrated), statistics.median(raw), outcome


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(stats: Stats, setup_s: float, clock: SpeedClock) -> dict[str, dict]:
    """Latencies and rates of the ops that succeeded. If no op of a kind
    succeeded, its latencies are those of its failed ops and its rates are 0."""
    metrics = {"setup_s": (setup_s, "s")}
    rate = {}
    for kind in ("main", "side"):
        ok = [t.calibrated(clock) for t in stats.timings[kind]]
        lat = ok or [t.calibrated(clock) for t in stats.failed_timings[kind]]
        metrics[f"{kind}_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        metrics[f"{kind}_p95_ms"] = (percentile(lat, 95) * 1e3, "ms")
        rate[kind] = stats.items[kind] / sum(ok) if ok else 0.0
    metrics["components_per_s"] = (rate["main"], "1/s")
    metrics["side_items_per_s"] = (rate["side"], "1/s")
    side_kib = stats.out_bytes["side"] / 1024 / stats.items["side"] if stats.items["side"] else 0.0
    metrics["side_kib_per_item"] = (side_kib, "KiB")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["success_rate"] = ((stats.attempted - stats.failed) / stats.attempted, "fraction")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def build(name: str, seed: int, tiny: bool, digests: dict[str, list]):
    if name == "sweep":
        return workloads.sweep(seed, tiny)
    if name == "wide":
        pairs = json.loads((HERE / "wide_chains.json").read_text())["pairs"]
        return workloads.wide(seed, pairs, tiny)

    def reference(n: int, q: int) -> dict | None:
        """The analyze document, or None if it is not the reference one."""
        from cqs import cli

        out = io.StringIO()
        try:
            rc = cli.main(["analyze", "--nq", str(n), str(q), "--json"], out, io.StringIO())
        except Exception:
            return None
        if rc != 0 or workloads.digest(out.getvalue()) != digests[f"{n},{q}"][0]:
            return None
        return json.loads(out.getvalue())

    return workloads.documents(seed, digests, reference, tiny)


def whole_passes(seconds: float):
    """Yield while another pass, at the mean pass time so far, still ends
    within `seconds`; the first pass always runs."""
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
        yield
        passes += 1


def run_plain(wl, seconds: float, tmp_root: Path, clock: SpeedClock, stats: Stats) -> None:
    for _ in whole_passes(seconds):
        for op in wl.ops:
            stats.record(op, run_op(op, tmp_root, clock))


def run_traced(wl, seconds: float, tmp_root: Path, clock: SpeedClock, stats: Stats):
    """Whole passes, each op once untraced and once traced."""
    tr = tracing.Tracer(clock)
    timed: dict[str, list[Timing]] = {"plain": [], "traced": []}
    passes = op_id = 0
    for _ in whole_passes(seconds):
        passes += 1
        for op in wl.ops:
            order = ("plain", "traced") if op_id % 2 == 0 else ("traced", "plain")
            for mode in order:
                if mode == "traced":
                    tr.install(op_id)
                try:
                    result = run_op(op, tmp_root, clock)
                finally:
                    if mode == "traced":
                        tr.uninstall()
                stats.record(op, result)
                timed[mode].append(result.timing)
            op_id += 1
    # the i-th traced execution is op i; its factor scales that op's spans
    metrics = tr.layer_metrics(passes, [t.calibrated(clock) / t.seconds for t in timed["traced"]])
    total = {mode: sum(t.calibrated(clock) for t in ts) for mode, ts in timed.items()}
    raw = {mode: sum(t.seconds for t in ts) for mode, ts in timed.items()}
    metrics["trace.overhead_s"] = (total["traced"] - total["plain"]) / passes
    metrics["trace.overhead_frac"] = (total["traced"] - total["plain"]) / total["plain"]
    return tr, passes, total, raw, metrics


def run_probes(wl, tmp_root: Path, clock: SpeedClock, stats: Stats) -> None:
    for op in wl.probes:
        outcome = run_op(op, tmp_root, clock).outcome
        if outcome.startswith("wrong"):
            stats.count(f"probe {op.label}", outcome)
        note = " (a known defect, ROADMAP item 2)" if outcome.startswith("raised") else ""
        print(f"probe {op.label}: {outcome}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "documents", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cqs" / "cli.py").is_file():
        print(f"error: no cqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cqs.cli  # noqa: F401  (the entry point pulls in every layer, untimed)

    digests = json.loads(args.digests.read_text())
    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)

    stats = Stats()
    t0 = time.perf_counter()
    if not args.trace:  # set-up is an end-to-end metric only
        setup_s, setup_raw, outcome = measure_setup(3 if args.tiny else SETUP_REPEATS,
                                                    digests["18,11"][0])
        stats.count("set-up", outcome)
    wl = build(args.workload, args.seed, args.tiny, digests)
    clock = SpeedClock()  # after set-up: its sampling would compete with the spawns
    prep_s = time.perf_counter() - t0
    kinds = {k: sum(op.kind == k for op in wl.ops) for k in ("main", "side")}
    print(f"workload {wl.name} seed {args.seed}: {len(wl.ops)} ops per pass "
          f"({kinds['main']} main, {kinds['side']} side), prepared in {prep_s:.1f} s")

    if args.trace:
        tr, passes, total, raw, metrics = run_traced(wl, args.seconds, tmp_root, clock, stats)
        clock.stop()
        run_probes(wl, tmp_root, clock, stats)
        tr.write(ROOT / ".perfbench" / f"spans-{wl.name}")
        print(f"traced {passes} passes: untraced {total['plain']:.3f} s, traced "
              f"{total['traced']:.3f} s, overhead {metrics['trace.overhead_frac']:+.2%} "
              f"(raw wall {raw['traced'] / raw['plain'] - 1:+.2%}); "
              f"{len(tr.name)} spans written to .perfbench/spans-{wl.name}.bin")
        for name in tr.absent:
            print(f"absent: {name} (not found; its metrics read 0)")
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        report = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        run_plain(wl, args.seconds, tmp_root, clock, stats)
        clock.stop()
        run_probes(wl, tmp_root, clock, stats)
        report = end_to_end(stats, setup_s, clock)
        for kind, what in (("main", wl.main_items), ("side", wl.side_items)):
            raw = [t.seconds for t in stats.timings[kind]]
            if not raw:
                print(f"{kind}: no op succeeded")
                continue
            beyond = sum(x > percentile(raw, 95) for x in raw)
            print(f"{kind}: {len(raw)} ops, {stats.items[kind]} {what}; {beyond} samples "
                  f"beyond p95; raw wall p50 {statistics.median(raw) * 1e3:.4g} ms, "
                  f"p95 {percentile(raw, 95) * 1e3:.4g} ms")
        print(f"set-up: raw wall median {setup_raw:.4g} s")
        print(f"reference unit: {len(clock.unit)} samples, median "
              f"{statistics.median(clock.unit) * 1e3:.4f} ms (nominal {NOMINAL_S * 1e3} ms)")
        for key, value in report.items():
            print(f"  {key} = {value['value']:.6g} {value['unit']}")

    for key, count in sorted(stats.failures.items()):
        print(f"failed x{count}: {key}")
    print(f"error_rate = {stats.failed}/{stats.attempted} = "
          f"{stats.failed / stats.attempted:.4f}")
    shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps({
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
