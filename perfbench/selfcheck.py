"""Self-check of the benchmark at tiny sizes: every workload, with tracing off
and on, must print a last line that carries exactly the metrics BENCHMARK.json
names, with the units it gives, as finite numbers.

One more run feeds `documents` a digest table in which every digest is wrong.
Set-up, every analyze op and every render op then fail their checks; the run
must still end normally, report `correct: false` with every op failed, and
emit every metric.

Run from the repository root: python3 perfbench/selfcheck.py
Takes about half a minute; exits 1 on the first problem it reports.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int, digests: Path | None = None) -> list[str]:
    """Problems with one tiny run; with `digests`, every op must fail its check."""
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if digests is not None:
        cmd += ["--digests", str(digests)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    all_fail = digests is not None
    if (result["correct"] is all_fail or result["attempted"] < 1
            or (all_fail and result["failed"] != result["attempted"])):
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(wanted) ^ set(got)):
        problems.append(f"metric {name} {'missing' if name in wanted else 'not in BENCHMARK.json'}")
    for name in sorted(set(wanted) & set(got)):
        value = got[name]
        if value.get("unit") != wanted[name]:
            problems.append(f"{name}: unit {value.get('unit')}, expected {wanted[name]}")
        if not isinstance(value.get("value"), (int, float)) or not math.isfinite(value["value"]):
            problems.append(f"{name}: value {value.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for line in problems:
                print(f"  {line}")
            failed |= bool(problems)
    table = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    wrong = ROOT / ".perfbench" / "selfcheck-wrong-digests.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps({key: ["0" * 16, count] for key, (_, count) in table.items()}))
    problems = check_run(spec, "documents", 0, wrong)
    print(f"documents trace=0, wrong digests: {'ok' if not problems else 'FAILED'}")
    for line in problems:
        print(f"  {line}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
