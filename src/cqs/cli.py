"""Command-line front end: analyze, chains, render, sweep.

Exit codes: 0 ok, 1 usage, 2 domain (smooth cone, hypersurface case) or
resource bound (chains --len >= 15, an a- or b-chain longer than 10^5,
out of memory), 3 internal consistency failure or any other internal error.
Diagnostics go to stderr, documents to stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from . import __version__
from .chains import admissible_chains, zero_chains
from .errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    ValidationError,
)
from .fans import brute_force_presolutions
from .invariants import component_table, known_divergence_warnings
from .lattice import ROLE_A, CoeffChain
from .model import InputCone, NormalForm, normalize_cone
from .render import STYLE, fan_figures
from .report import build_document, to_json, to_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cqs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cqs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_input_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--nq", nargs=2, type=int, metavar=("N", "Q"))
        group.add_argument("--cone", metavar="X1,Y1,X2,Y2")

    p = sub.add_parser("analyze", help="full singularity report")
    add_input_flags(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chains", help="list zero chains or admissible chains")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--len", type=int, dest="length", metavar="M")
    group.add_argument("--a", dest="a_chain", metavar="A2,...,AE1")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("render", help="SVG figures of every fan")
    add_input_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--scale", type=int, default=STYLE["scale"], metavar="PX")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("sweep", help="cross-formula consistency sweep")
    p.add_argument("--max-n", type=int, default=60, metavar="N")
    p.add_argument("--oracle", action="store_true",
                   help="also run the convex-path P-resolution oracle")
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def _parse_cone(text: str) -> tuple[int, int, int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"--cone expects four integers, got {text!r}") from None
    if len(parts) != 4:
        raise UsageError(f"--cone expects four integers, got {len(parts)}")
    return tuple(parts)


def _nf_from_args(args) -> tuple[NormalForm, dict]:
    if args.nq is not None:
        n, q = args.nq
        return NormalForm.from_nq(n, q), {"nq": [n, q]}
    x1, y1, x2, y2 = _parse_cone(args.cone)
    nf = normalize_cone(InputCone.from_ints(x1, y1, x2, y2))
    return nf, {"cone": [[x1, y1], [x2, y2]]}


def cmd_analyze(args, stdout, stderr) -> int:
    nf, echo = _nf_from_args(args)
    report = component_table(nf)
    for w in report.warnings:
        print(f"warning: {w}", file=stderr)
    if args.json:
        stdout.write(to_json(build_document(report, echo)))
    else:
        stdout.write(to_text(report, echo))
    return 0


def cmd_chains(args, stdout, stderr) -> int:
    if args.length is not None:
        if args.length < 1:
            raise UsageError("--len must be >= 1")
        ks = zero_chains(args.length)
    else:
        try:
            coeffs = tuple(int(p) for p in args.a_chain.split(","))
            a = CoeffChain(coeffs, ROLE_A)
        except ValueError as exc:
            raise UsageError(f"malformed a-chain: {exc}") from None
        for w in known_divergence_warnings(coeffs):
            print(f"warning: {w}", file=stderr)
        ks = admissible_chains(a)
    if args.count_only:
        print(len(ks), file=stdout)
    else:
        for k in ks:
            ktxt = ",".join(str(c) for c in k.k)
            qtxt = ",".join(str(c) for c in k.q_seq)
            print(f"k={ktxt}  q={qtxt}", file=stdout)
    return 0


def cmd_render(args, stdout, stderr) -> int:
    if args.scale < 1:
        raise UsageError("--scale must be >= 1")
    nf, echo = _nf_from_args(args)
    report = component_table(nf)
    figures = fan_figures(report, args.scale)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name in sorted(figures):
            (outdir / name).write_text(figures[name], encoding="utf-8")
            print(outdir / name, file=stdout)
    except OSError as exc:
        print(f"error: cannot write to {outdir}: {exc}", file=stderr)
        return 1
    return 0


@dataclass(frozen=True)
class _SweepSummary:
    n: int
    q: int
    dual_q: int
    chains: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]  # (milnor, dim) per component
    oracle_fans: int


def _sweep_one(n: int, q: int, oracle: bool) -> _SweepSummary | str:
    try:
        nf = NormalForm.from_nq(n, q)
        report = component_table(nf)
        oracle_fans = 0
        if oracle:
            brute = {f.ray_set() for f in brute_force_presolutions(nf)}
            chain_fans = {c.fan.ray_set() for c in report.components}
            if brute != chain_fans:
                return f"({n} {q} -) P-resolution oracle disagrees with chain fans"
            oracle_fans = len(brute)
        return _SweepSummary(
            n=n, q=q, dual_q=nf.dual_q,
            chains=tuple(c.chain.k for c in report.components),
            pairs=tuple((c.milnor_toric, c.dim_toric) for c in report.components),
            oracle_fans=oracle_fans,
        )
    except (ConsistencyError, ValidationError) as exc:
        chain = getattr(exc, "context", {}).get("chain", "-")
        return f"({n} {q} {chain}) {exc}"


def cmd_sweep(args, stdout, stderr) -> int:
    if args.max_n < 3:
        raise UsageError("--max-n must be >= 3")
    results = [
        _sweep_one(n, q, args.oracle)
        for n in range(3, args.max_n + 1)
        for q in range(1, n - 1)
        if gcd(n, q) == 1
    ]

    failures = [r for r in results if isinstance(r, str)]
    summaries = {(s.n, s.q): s for s in results if isinstance(s, _SweepSummary)}

    # duality: (n,q) and (n, q^-1) carry the same invariants, chains reversed
    for (n, q), s in sorted(summaries.items()):
        if q > s.dual_q:
            continue
        partner = summaries.get((n, s.dual_q))
        if partner is None:
            continue
        if sorted(s.pairs) != sorted(partner.pairs):
            failures.append(f"({n} {q} -) duality multiset mismatch with q={s.dual_q}")
        if sorted(k[::-1] for k in s.chains) != sorted(partner.chains):
            failures.append(f"({n} {q} -) duality chain reversal mismatch")

    if failures:
        failures.sort()
        shown = failures if args.keep_going else failures[:1]
        for line in shown:
            print(line, file=stderr)
        return 3

    total_components = sum(len(s.pairs) for s in summaries.values())
    max_components = max((len(s.pairs) for s in summaries.values()), default=0)
    print(f"singularities: {len(summaries)}", file=stdout)
    print(f"components: {total_components}", file=stdout)
    print(f"max components: {max_components}", file=stdout)
    if args.oracle:
        print(f"oracle fans checked: {sum(s.oracle_fans for s in summaries.values())}",
              file=stdout)
    return 0


def _merge_cone_value(argv: list[str]) -> list[str]:
    # "--cone -2,3,4,3" looks like a flag to argparse; fold it into one token
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--cone" and i + 1 < len(argv):
            merged.append(f"--cone={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_cone_value(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args, stdout, stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except (ConsistencyError, ValidationError) as exc:
        print(f"internal consistency failure: {exc}", file=stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=stderr)
        return 3


def run() -> None:
    sys.exit(main())
