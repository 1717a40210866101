"""Analysis documents: canonical JSON and plain-text serialisation.

JSON output is deterministic (sorted keys, components already lexicographic)
and interchange-safe: any integer beyond 53-bit float safety is emitted as
{"int": "<decimal>"} so double-based consumers never silently round.
"""

from __future__ import annotations

import json

from .invariants import SingularityReport
from .model import NormalForm

SCHEMA_VERSION = "1"

_JS_SAFE = 2**53 - 1


def _rays_in_input_coords(nf: NormalForm, fan) -> list[list[int]]:
    return [list(nf.to_input_ray(r).xy) for r in fan.rays]


def _cone_entry(nf: NormalForm, cone) -> dict:
    return {
        "generators": [
            list(nf.to_input_ray(cone.left).xy),
            list(nf.to_input_ray(cone.right).xy),
        ],
        "roof": {
            "w": list(nf.to_input_normal(cone.roof.w).xy),
            "h": cone.roof.h,
            "l": cone.roof.l,
        },
        "class": {"tag": cone.roof.tag, "h": cone.roof.h, "l": cone.roof.l},
    }


def build_document(report: SingularityReport, input_echo: dict) -> dict:
    nf = report.nf
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_echo,
        "normal_form": {
            "n": nf.n,
            "q": nf.q,
            "dual_q": nf.dual_q,
            "e": nf.e,
            "transform": [list(row) for row in nf.transform],
            "a_chain": list(nf.a_chain.coeffs),
            "b_chain": list(nf.b_chain.coeffs),
        },
        "r": report.r,
        "nu": report.nu,
        "dim_t1": report.dim_t1,
        "h1_theta": report.h1_theta,
        "components": [
            {
                "k_chain": list(c.chain.k),
                "q_seq": list(c.chain.q_seq),
                "is_artin": c.is_artin,
                "rays": _rays_in_input_coords(nf, c.fan),
                "cones": [_cone_entry(nf, cone) for cone in c.fan.cones],
                "milnor": {"toric": c.milnor_toric, "cf": c.milnor_cf},
                "dim": {"toric": c.dim_toric, "cf": c.dim_cf},
            }
            for c in report.components
        ],
        "warnings": list(report.warnings),
    }


def _wrap_big_ints(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return {"int": str(value)} if abs(value) > _JS_SAFE else value
    if isinstance(value, list):
        return [_wrap_big_ints(v) for v in value]
    if isinstance(value, dict):
        return {k: _wrap_big_ints(v) for k, v in value.items()}
    return value


def to_json(doc: dict) -> str:
    return json.dumps(_wrap_big_ints(doc), sort_keys=True, indent=2) + "\n"


def to_text(report: SingularityReport, input_echo: dict) -> str:
    nf = report.nf
    lines = [f"{nf}"]
    if "cone" in input_echo:
        (x1, y1), (x2, y2) = input_echo["cone"]
        lines.append(f"  input cone: ({x1},{y1}) ({x2},{y2})")
    lines += [
        f"  normal form: n={nf.n} q={nf.q} q^-1={nf.dual_q}  e={nf.e}",
        f"  a-chain: {nf.a_chain}",
        f"  b-chain: {nf.b_chain}  (r={report.r})",
        f"  dim T1={report.dim_t1}  nu={report.nu}  h1(Theta)={report.h1_theta}",
        f"  components: {len(report.components)}",
    ]
    for idx, c in enumerate(report.components, start=1):
        artin = "  [artin]" if c.is_artin else ""
        q_txt = "(" + ",".join(str(v) for v in c.chain.q_seq) + ")"
        lines.append(f"  #{idx}  k={c.chain}  q={q_txt}{artin}")
        rays = " ".join(str(nf.to_input_ray(r)) for r in c.fan.rays)
        lines.append(f"      rays: {rays}")
        for cone in c.fan.cones:
            left = nf.to_input_ray(cone.left)
            right = nf.to_input_ray(cone.right)
            lines.append(
                f"      cone {left}^{right}: {cone.roof.label()}"
                f"  h={cone.roof.h} l={cone.roof.l}"
            )
        lines.append(f"      milnor: toric={c.milnor_toric} cf={c.milnor_cf}")
        lines.append(f"      dim:    toric={c.dim_toric} cf={c.dim_cf}")
    if report.warnings:
        lines.append("  warnings:")
        for w in report.warnings:
            lines.append(f"    - {w}")
    return "\n".join(lines) + "\n"
