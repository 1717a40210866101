"""Regenerate perfbench/digests.json: the reference digest and component
count of every `cqs analyze --nq N Q --json` document with 2 <= N <= 60
(["exit:<code>", 0] where analyze declines the input).

Run from the repository root: python3 perfbench/make_digests.py

The file defines what "same output" means for the documents workload
(byte-identical JSON for n <= 60), so regenerate it only when the document
format is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import io
import json
import sys
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_N = 60

sys.path.insert(0, str(HERE))
from workloads import digest  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cqs import cli

    table = {}
    for n in range(2, MAX_N + 1):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            out, err = io.StringIO(), io.StringIO()
            rc = cli.main(["analyze", "--nq", str(n), str(q), "--json"], out, err)
            if rc == 0:
                doc = out.getvalue()
                table[f"{n},{q}"] = [digest(doc), len(json.loads(doc)["components"])]
            else:
                table[f"{n},{q}"] = [f"exit:{rc}", 0]
    path = HERE / "digests.json"
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(table)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
