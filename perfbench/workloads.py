"""The benchmark's workloads: seeded inputs, the CLI calls made on them, and
the check each call's output must pass.

Every op is one in-process call of `cqs.cli.main(argv, stdout, stderr)`,
the same entry point as the `cqs` command. An op is either the workload's
"main" or its "side" kind; the end-to-end metrics are reported per kind.

| workload  | main op                          | side op                         |
| --------- | -------------------------------- | ------------------------------- |
| sweep     | sweep --max-n 120                | sweep --oracle --max-n 20       |
| documents | analyze --json, n <= 60          | render --out DIR, n <= 60       |
| wide      | analyze --json, long a-chains    | chains --len M --count-only     |
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from math import comb, gcd
from pathlib import Path
from typing import Callable

SVG_NS = "{http://www.w3.org/2000/svg}"

#: expected `sweep` stdout, recorded at the commit that added the benchmark
SWEEP_OUT = {
    120: "singularities: 4266\ncomponents: 9306\nmax components: 7\n",
    30: "singularities: 248\ncomponents: 391\nmax components: 4\n",
}
ORACLE_OUT = {
    20: "singularities: 108\ncomponents: 158\nmax components: 3\noracle fans checked: 158\n",
    12: "singularities: 34\ncomponents: 46\nmax components: 2\noracle fans checked: 46\n",
}


class CheckError(Exception):
    """The program answered, and the answer is wrong."""


class Refused(Exception):
    """The program declined the input with the resource/domain exit code."""


@dataclass
class Op:
    kind: str  # "main" or "side"
    argv: list[str]
    #: (exit code, stdout, output dir or None) -> items answered; raises
    #: CheckError for a wrong answer and Refused for an allowed refusal
    check: Callable[[int, str, Path | None], int]
    wants_outdir: bool = False
    label: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass, in seeded order
    main_items: str  # what the main op's items count, for the report
    side_items: str
    #: inputs that hit a known defect: run once, untimed, after the timed
    #: passes, and reported (see run.py)
    probes: list[Op] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def hj_length(n: int, q: int) -> int:
    """Length of the Hirzebruch-Jung continued fraction of n/q (q < n)."""
    length = 0
    while q:
        length += 1
        c = -(-n // q)
        n, q = q, c * q - n
    return length


def nq_from_a_chain(a: list[int]) -> tuple[int, int]:
    """(n, q) whose a-chain, the HJ expansion of n/(n-q), is `a`."""
    num, den = 1, 0
    for x in reversed(a):
        num, den = x * num - den, num
    return num, num - den


def _expect_exit(rc: int) -> None:
    if rc != 0:
        raise CheckError(f"exit code {rc}, expected 0")


# -- sweep --------------------------------------------------------------------


def _sweep_check(expected: str, items: int):
    def check(rc, out, _):
        _expect_exit(rc)
        if out != expected:
            raise CheckError(f"sweep printed {out!r}, expected {expected!r}")
        return items
    return check


def sweep(seed: int, tiny: bool = False) -> Workload:
    max_n, oracle_n = (30, 12) if tiny else (120, 20)
    main_out, side_out = SWEEP_OUT[max_n], ORACLE_OUT[oracle_n]
    components = int(main_out.split("components: ")[1].split("\n")[0])
    oracle_sings = int(side_out.split("singularities: ")[1].split("\n")[0])
    ops = [Op("main", ["sweep", "--max-n", str(max_n)],
              _sweep_check(main_out, components), label=f"sweep {max_n}")]
    ops += [Op("side", ["sweep", "--oracle", "--max-n", str(oracle_n)],
               _sweep_check(side_out, oracle_sings), label=f"oracle {oracle_n}")
            for _ in range(4)]
    random.Random(seed).shuffle(ops)
    return Workload("sweep", ops, main_items="components checked",
                    side_items="singularities checked by the oracle")


# -- documents ----------------------------------------------------------------


def _analyze_check(expected_digest: str):
    def check(rc, out, _):
        _expect_exit(rc)
        if digest(out) != expected_digest:
            raise CheckError("analyze --json differs from the reference digest")
        return len(json.loads(out)["components"])
    return check


def _render_check(figures: dict[str, int] | None):
    """figures: file name -> number of rays the figure must draw, or None if
    the reference document that names them could not be had."""
    def check(rc, out, outdir):
        if figures is None:
            raise CheckError("analyze --json of this input differs from the reference digest")
        _expect_exit(rc)
        written = sorted(Path(line).name for line in out.splitlines())
        if written != sorted(figures):
            raise CheckError(f"render wrote {written}, expected {sorted(figures)}")
        if sorted(p.name for p in outdir.iterdir()) != sorted(figures):
            raise CheckError("render output directory holds other files")
        for name, rays in figures.items():
            try:
                root = ET.parse(outdir / name).getroot()
            except ET.ParseError as exc:
                raise CheckError(f"{name} does not parse: {exc}") from None
            if root.tag != SVG_NS + "svg":
                raise CheckError(f"{name} root is {root.tag}")
            lines = sum(1 for _ in root.iter(SVG_NS + "line"))
            if lines != rays:
                raise CheckError(f"{name} draws {lines} rays, expected {rays}")
        return len(figures)
    return check


def _figures_expected(doc: dict) -> dict[str, int]:
    figures = {"fan_minimal.svg": doc["r"] + 2}
    for comp in doc["components"]:
        name = "fan_" + "-".join(str(k) for k in comp["k_chain"]) + ".svg"
        figures[name] = len(comp["rays"])
    return figures


def documents(seed: int, digests: dict[str, list], analyze, tiny: bool = False) -> Workload:
    """A seeded systematic half of all (n,q) with n <= 60 and e >= 4 goes
    through analyze; every sixth of those, again from a seeded offset, also
    through render. For render the half is first sorted by the lattice points
    all its figures draw, (n+3)(q+4) per figure and one figure per component
    plus one, so that every seed renders the same mix of sizes. Systematic
    sampling keeps the latency distributions, and the mean figure size,
    nearly the same for every seed. `analyze(n, q)` returns the reference
    document, used only to know which figures a render must write, or None
    if the program's document differs from it; that render then fails."""
    rng = random.Random(seed)
    max_n = 15 if tiny else 60
    population = [(n, q) for n in range(3, max_n + 1) for q in range(1, n)
                  if gcd(n, q) == 1 and hj_length(n, n - q) >= 2]
    sample = population[rng.randrange(2)::2]
    by_area = sorted(sample, key=lambda nq: (
        (nq[0] + 3) * (nq[1] + 4) * (digests[f"{nq[0]},{nq[1]}"][1] + 1), nq))
    renders = by_area[rng.randrange(6)::6]
    ops = [Op("main", ["analyze", "--nq", str(n), str(q), "--json"],
              _analyze_check(digests[f"{n},{q}"][0]), label=f"analyze {n} {q}")
           for n, q in sample]
    for n, q in renders:
        doc = analyze(n, q)
        figures = _figures_expected(doc) if doc is not None else None
        ops.append(Op("side", ["render", "--nq", str(n), str(q)],
                      _render_check(figures), wants_outdir=True,
                      label=f"render {n} {q}"))
    rng.shuffle(ops)
    return Workload("documents", ops, main_items="components in analyze documents",
                    side_items="SVG figures written")


# -- wide ---------------------------------------------------------------------


def _wide_check(a_chain: list[int] | None, components: int):
    """Y(n,1) inputs (a_chain None) may be refused with exit 2, the exit code
    for a resource limit; any other input must be answered."""
    def check(rc, out, _):
        if a_chain is None and rc == 2:
            raise Refused("exit 2")
        _expect_exit(rc)
        doc = json.loads(out)
        nf = doc["normal_form"]
        if a_chain is not None and nf["a_chain"] != a_chain:
            raise CheckError("normal form has another a-chain than the input")
        comps = doc["components"]
        if len(comps) != components:
            raise CheckError(f"{len(comps)} components, expected {components}")
        m = nf["e"] - 2
        chains = [tuple(c["k_chain"]) for c in comps]
        if any(len(k) != m for k in chains):
            raise CheckError("a chain has the wrong length")
        if chains != sorted(set(chains)):
            raise CheckError("chains are not distinct and lexicographic")
        for c in comps:
            if c["milnor"]["toric"] != c["milnor"]["cf"] or c["dim"]["toric"] != c["dim"]["cf"]:
                raise CheckError(f"routes disagree on {c['k_chain']}")
        artin = [c for c in comps if c["is_artin"]]
        if len(artin) != 1 or tuple(artin[0]["k_chain"]) != (1,) + (2,) * (m - 2) + (1,):
            raise CheckError("expected exactly one artin component, the RDP chain")
        return len(comps)
    return check


def _chains_check(m: int):
    expected = catalan(m - 1)

    def check(rc, out, _):
        _expect_exit(rc)
        if out != f"{expected}\n":
            raise CheckError(f"chains --len {m} printed {out!r}, expected {expected}")
        return expected
    return check


#: Y(n,1) inputs: seeded ones timed, well below the depth at which the
#: recursive chain search raises RecursionError at the commit that added the
#: benchmark; the fixed ones above it are probes, run once and reported
LONG_RANGES = [(250, 350), (450, 550), (650, 750)]
LONG_PROBES = [1000, 1100]
#: catalogue cost band, in its own seconds, of the pairs the median falls among
MEDIAN_BAND_S = (0.25, 0.5)
#: m = 10 three times, so that the side median is a length-10 call
CHAIN_LENGTHS = [9, 10, 10, 10, 11]
TINY_PAIRS = [[{"a": "2232223", "components": 2}, {"a": "3222322", "components": 2}],
              [{"a": "323322", "components": 5}, {"a": "3223322", "components": 5}]]


def wide(seed: int, pairs: list, tiny: bool = False) -> Workload:
    """One chain of every catalogue pair (see make_catalogue.py), both
    chains of the median-band pairs, the seeded Y(n,1) long chains, and
    `chains --len m` for every m in CHAIN_LENGTHS. Y(n,1) for n in
    LONG_PROBES are the workload's probes."""
    rng = random.Random(seed)
    pairs = TINY_PAIRS if tiny else pairs
    # the pairs of the median band run both chains, so that the p50 falls
    # amid them, not at the band's cheap end, and not on which chain the
    # seed picks; the p95 then falls on the last pair but one, whether a run
    # has one, two or three passes
    both = {i for i, pair in enumerate(pairs)
            if MEDIAN_BAND_S[0] <= pair[0].get("seconds", 0) <= MEDIAN_BAND_S[1]}
    picks = []
    for i, pair in enumerate(pairs):
        picks += pair if i in both else [pair[rng.randrange(2)]]
    ops = []
    for pick in picks:
        a = [int(c) for c in pick["a"]]
        n, q = nq_from_a_chain(a)
        ops.append(Op("main", ["analyze", "--nq", str(n), str(q), "--json"],
                      _wide_check(a, pick["components"]),
                      label=f"analyze a-chain {pick['a']}"))
    for lo, hi in LONG_RANGES[:1 if tiny else None]:
        ops.append(_long_chain(rng.randint(lo, hi)))
    for m in ([5, 6] if tiny else CHAIN_LENGTHS):
        ops.append(Op("side", ["chains", "--len", str(m), "--count-only"],
                      _chains_check(m), label=f"chains --len {m}"))
    rng.shuffle(ops)
    return Workload("wide", ops, main_items="components in analyze documents",
                    side_items="zero chains emitted",
                    probes=[_long_chain(n) for n in LONG_PROBES[:1 if tiny else None]])


def _long_chain(n: int) -> Op:
    return Op("main", ["analyze", "--nq", str(n), "1", "--json"],
              _wide_check(None, 1), label=f"analyze {n} 1")
