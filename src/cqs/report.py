"""Analysis documents: canonical JSON and plain-text serialisation.

JSON output is deterministic and interchange-safe. Its layout is that of
json.dumps(doc, sort_keys=True, indent=2) plus a trailing newline: keys
sorted, two spaces of indent per level, items separated by "," and a
newline, keys from values by ": ", empty containers as [] and {}, and
strings escaped to ASCII (json.encoder.encode_basestring_ascii). Any integer
beyond 53-bit float safety is emitted as {"int": "<decimal>"}, laid out as
that object, so double-based consumers never silently round.

to_json writes that layout in one walk over the document. Component entries
are nearly all of the bytes and their keys are fixed by build_document, so
their cones and rays are written from string templates; an entry whose cones
or rays have another shape, or hold an integer to wrap, goes through the
generic walk instead.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .invariants import SingularityReport
from .model import NormalForm

SCHEMA_VERSION = "1"

_JS_SAFE = 2**53 - 1
_INDENT = "  "
_INT_ONLY = frozenset({int})
_STR_ONLY = frozenset({str})
_SEQUENCES = frozenset({list, tuple})
# the key sets build_document gives a component entry and its cones
_COMPONENT_KEYS = frozenset({"cones", "dim", "is_artin", "k_chain", "milnor", "q_seq", "rays"})
_CONE_KEYS = frozenset({"class", "generators", "roof"})
_CLASS_KEYS = frozenset({"h", "l", "tag"})
_ROOF_KEYS = frozenset({"h", "l", "w"})


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


def to_json(doc: dict) -> str:
    """The canonical JSON text of a document of dicts (str keys), lists or
    tuples, str, int, bool and None; see the module docstring for the layout."""
    return _encode(doc, "") + "\n"


def _encode(value, ind: str) -> str:
    """value written at indent ind: its first line continues the current
    line, its later lines are indented from ind."""
    try:
        write = _WRITERS[type(value)]
    except KeyError:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        ) from None
    return write(value, ind)


def _plain_ints(values: list) -> bool:
    """Every value is an int (not a bool) that needs no wrapping."""
    return (not values or _INT_ONLY.issuperset(map(type, values))
            and -_JS_SAFE <= min(values) and max(values) <= _JS_SAFE)


def _int(value: int, ind: str) -> str:
    if -_JS_SAFE <= value <= _JS_SAFE:
        return str(value)
    return "{\n" + ind + _INDENT + '"int": "' + str(value) + '"\n' + ind + "}"


def _list(values: list, ind: str) -> str:
    if not values:
        return "[]"
    inner = ind + _INDENT
    if _plain_ints(values):
        body = (",\n" + inner).join(map(str, values))
    else:
        body = (",\n" + inner).join([_encode(v, inner) for v in values])
    return "[\n" + inner + body + "\n" + ind + "]"


def _dict(obj: dict, ind: str) -> str:
    if not obj:
        return "{}"
    if obj.keys() == _COMPONENT_KEYS:
        text = _component(obj, ind)
        if text is not None:
            return text
    inner = ind + _INDENT
    items = [_str(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "}"


_WRITERS = {
    dict: _dict,
    list: _list,
    tuple: _list,
    str: lambda value, ind: _str(value),
    int: _int,
    bool: lambda value, ind: "true" if value else "false",
    type(None): lambda value, ind: "null",
}


def _component(entry: dict, ind: str) -> str | None:
    """A component entry of build_document, its cones and rays written from
    templates; None when they have another shape."""
    i1 = ind + _INDENT
    rays = _int_pairs(entry["rays"], i1)
    cones = None if rays is None else _cones(entry["cones"], i1)
    if cones is None:
        return None
    sep = ",\n" + i1
    return ("{\n" + i1 + '"cones": ' + cones
            + sep + '"dim": ' + _encode(entry["dim"], i1)
            + sep + '"is_artin": ' + _encode(entry["is_artin"], i1)
            + sep + '"k_chain": ' + _encode(entry["k_chain"], i1)
            + sep + '"milnor": ' + _encode(entry["milnor"], i1)
            + sep + '"q_seq": ' + _encode(entry["q_seq"], i1)
            + sep + '"rays": ' + rays + "\n" + ind + "}")


def _int_pairs(pairs, ind: str) -> str | None:
    """A non-empty list of [int, int] pairs, or None."""
    if (type(pairs) is not list or not pairs or not _SEQUENCES.issuperset(map(type, pairs))
            or set(map(len, pairs)) != {2}):
        return None
    flat = list(chain.from_iterable(pairs))
    if not _plain_ints(flat):
        return None
    i1 = ind + _INDENT
    i2 = i1 + _INDENT
    pair = "[\n" + i2 + "%s,\n" + i2 + "%s\n" + i1 + "]"
    return ("[\n" + i1 + (",\n" + i1).join([pair] * len(pairs)) % tuple(flat)
            + "\n" + ind + "]")


def _cones(cones, ind: str) -> str | None:
    """A non-empty list of build_document's cone entries, one template per
    cone filled from one flat tuple, or None."""
    if type(cones) is not list or not cones:
        return None
    vals: list = []
    lists: list = []
    try:
        for cone in cones:
            if type(cone) is not dict or cone.keys() != _CONE_KEYS:
                return None
            cls, gens, roof = cone["class"], cone["generators"], cone["roof"]
            if (type(cls) is not dict or cls.keys() != _CLASS_KEYS
                    or type(roof) is not dict or roof.keys() != _ROOF_KEYS):
                return None
            (x0, y0), (x1, y1) = gen0, gen1 = gens
            wx, wy = w = roof["w"]
            lists += gens, gen0, gen1, w
            vals += cls["h"], cls["l"], cls["tag"], x0, y0, x1, y1, roof["h"], roof["l"], wx, wy
    except (TypeError, ValueError):
        return None
    tags = vals[2::11]
    ints = vals[:]
    del ints[2::11]
    if not (_SEQUENCES.issuperset(map(type, lists)) and _STR_ONLY.issuperset(map(type, tags))
            and _plain_ints(ints)):
        return None
    vals[2::11] = map(_str, tags)
    i1 = ind + _INDENT
    i2, i3, i4 = i1 + _INDENT, i1 + 2 * _INDENT, i1 + 3 * _INDENT
    cone = ("{\n"
            + i2 + '"class": {\n'
            + i3 + '"h": %s,\n' + i3 + '"l": %s,\n' + i3 + '"tag": %s\n'
            + i2 + "},\n"
            + i2 + '"generators": [\n'
            + i3 + "[\n" + i4 + "%s,\n" + i4 + "%s\n" + i3 + "],\n"
            + i3 + "[\n" + i4 + "%s,\n" + i4 + "%s\n" + i3 + "]\n"
            + i2 + "],\n"
            + i2 + '"roof": {\n'
            + i3 + '"h": %s,\n' + i3 + '"l": %s,\n' + i3 + '"w": [\n'
            + i4 + "%s,\n" + i4 + "%s\n" + i3 + "]\n"
            + i2 + "}\n"
            + i1 + "}")
    return ("[\n" + i1 + (",\n" + i1).join([cone] * len(cones)) % tuple(vals)
            + "\n" + ind + "]")


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
