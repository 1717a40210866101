"""CLI surface: exit codes, document canonicality, SVG determinism."""

import hashlib
import io
import json
import time
import xml.etree.ElementTree as ET
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cqs.cli import main
from cqs.invariants import component_table
from cqs.model import InputCone, NormalForm, normalize_cone
from cqs.render import STYLE, fan_figures
from cqs.report import build_document, to_json

SVG = "{http://www.w3.org/2000/svg}"

#: sha256 of the worked example's output; a change in any byte fails
WORKED_TEXT_SHA256 = "29c1cf18d02fe6f7dcf32602a33e557f28d17dfcb692cb9cd3f92761696a2548"
WORKED_FIGURE_SHA256 = {
    "fan_1-2-2-1.svg": "551145efdd63ca1dd052f516d7be7a133f640503e87f74bb221ca2d3c8721bb6",
    "fan_1-3-1-2.svg": "c02ad28a1c733aa3d30dcc1704372891f7c218e3ad21c62ce2ee22700ad7cda7",
    "fan_3-1-2-2.svg": "c80c4cb0cb70bdde44fe11584141ff38d69af4ae917ea2429db2c23aed3fcd06",
    "fan_minimal.svg": "a5da16c3972c032c0230390be7dfabe05669c3c105eaeeddd6a9431f596035ef",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


JS_SAFE = 2**53 - 1


def wrap_big_ints(value):
    """The document with every int beyond 53 bits as {"int": "<decimal>"}."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return {"int": str(value)} if abs(value) > JS_SAFE else value
    if isinstance(value, list):
        return [wrap_big_ints(v) for v in value]
    if isinstance(value, dict):
        return {k: wrap_big_ints(v) for k, v in value.items()}
    return value


def reference_json(doc: dict) -> str:
    """The layout to_json must write, by the standard library's encoder."""
    return json.dumps(wrap_big_ints(doc), sort_keys=True, indent=2) + "\n"


def sheared_worked_cone():
    """The worked cone sheared far away: same Y(18,11), but coordinates and
    transform entries beyond 53 bits."""
    big = 2**57
    cone = [[1, big], [-11, 18 - 11 * big]]
    nf = normalize_cone(InputCone.from_ints(*cone[0], *cone[1]))
    return nf, {"cone": cone}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_worked_cone_json(self):
        code, out, err = run_cli("analyze", "--cone", "-2,3,4,3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["normal_form"]["n"] == 18 and doc["normal_form"]["q"] == 11
        assert [c["dim"]["toric"] for c in doc["components"]] == [6, 4, 2]
        assert [c["milnor"]["toric"] for c in doc["components"]] == [3, 2, 1]
        assert (doc["r"], doc["nu"]) == (3, 9)
        assert doc["warnings"]
        assert "warning:" in err

    def test_hypersurface_exit_2(self):
        code, out, err = run_cli("analyze", "--nq", "4", "3")
        assert code == 2
        assert "versal base irreducible" in err

    def test_smooth_cone_exit_2(self):
        code, _, err = run_cli("analyze", "--cone", "1,0,0,1")
        assert code == 2
        assert "smooth" in err

    def test_two_components_for_4_1(self):
        code, out, _ = run_cli("analyze", "--nq", "4", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 2
        assert doc["input"] == {"nq": [4, 1]}

    def test_long_chain_no_recursion_limit(self):
        # e - 2 = 1099 slots: deeper than the interpreter's recursion limit
        code, out, _ = run_cli("analyze", "--nq", "1100", "1", "--json")
        assert code == 0
        (comp,) = json.loads(out)["components"]
        assert comp["is_artin"]
        assert comp["milnor"]["toric"] == comp["milnor"]["cf"]
        assert comp["dim"]["toric"] == comp["dim"]["cf"]

    @pytest.mark.parametrize("n,q", [
        # a-chain of about 2^126/11 entries
        (2**127 - 1, 2**126 + 5),
        # a-chain [10^13+7, 3, 10^12+1, 5, 2, 10^14], b-chain about 1.1 10^14 long
        (27000000000029850000000007529999999999955,
         27000000000027150000000006344999999999962),
    ])
    def test_oversized_chains_exit_2(self, n, q):
        for fmt in ("--json", "--text"):
            start = time.perf_counter()
            code, out, err = run_cli("analyze", "--nq", str(n), str(q), fmt)
            assert time.perf_counter() - start < 2
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_coprime_exit_2(self):
        code, _, err = run_cli("analyze", "--nq", "12", "8")
        assert code == 2

    def test_usage_errors_exit_1(self):
        assert run_cli("analyze")[0] == 1
        assert run_cli("analyze", "--cone", "1,2,3")[0] == 1
        assert run_cli("analyze", "--cone", "a,b,c,d")[0] == 1
        assert run_cli("nonsense")[0] == 1

    def test_json_is_canonical_and_roundtrips(self):
        _, out1, _ = run_cli("analyze", "--nq", "18", "11", "--json")
        _, out2, _ = run_cli("analyze", "--nq", "18", "11", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert to_json(doc) == out1
        keys = list(doc)
        assert keys == sorted(keys)

    def test_text_mode(self):
        code, out, _ = run_cli("analyze", "--nq", "18", "11", "--text")
        assert code == 0
        assert "Y(18,11)" in out
        assert "milnor: toric=3 cf=3" in out

    def test_worked_cone_text_bytes_pinned(self):
        code, out, _ = run_cli("analyze", "--cone", "-2,3,4,3", "--text")
        assert code == 0
        assert sha256(out.encode()) == WORKED_TEXT_SHA256


class TestBigIntEncoding:
    def test_wrapping_beyond_53_bits(self):
        big = 2**60 + 7
        doc = {"value": big, "nested": [{"small": 12}, {"big": -big}]}
        text = to_json(doc)
        parsed = json.loads(text)
        assert parsed["value"] == {"int": str(big)}
        assert parsed["nested"][0]["small"] == 12
        assert parsed["nested"][1]["big"] == {"int": str(-big)}

    def test_booleans_not_wrapped(self):
        assert json.loads(to_json({"flag": True}))["flag"] is True

    def test_document_with_big_coordinates(self):
        nf, echo = sheared_worked_cone()
        assert (nf.n, nf.q) == (18, 11)
        doc = build_document(component_table(nf), echo)
        text = to_json(doc)
        assert text == reference_json(doc)
        parsed = json.loads(text)
        assert parsed["normal_form"]["n"] == 18
        assert parsed == wrap_big_ints(doc) != doc


JS_EDGES = [2**53 - 1, 2**53, 2**53 + 1, 2**64, 10**40]
json_ints = st.integers() | st.sampled_from([s * v for v in JS_EDGES for s in (1, -1)])
json_texts = st.text(max_size=8) | st.lists(
    st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028",
                     "\U0001f600", "\ud800", "a", "%s", "{}", "[]", ": ", ",\n"])
).map("".join)
json_scalars = st.none() | st.booleans() | json_ints | json_texts
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(json_texts, children, max_size=5),
    max_leaves=20,
)


def value_paths(value, path=()):
    """Every path to a value inside value, containers included."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from value_paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from value_paths(v, path + (i,))


def replaced(value, path, change):
    """A copy of value with change applied to the value at path."""
    if not path:
        return change(value)
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: replaced(value[head], rest, change)}
    return [replaced(v, rest, change) if i == head else v for i, v in enumerate(value)]


WORKED_DOC = build_document(
    component_table(NormalForm.from_nq(18, 11)), {"nq": [18, 11]})
WORKED_PATHS = list(value_paths(WORKED_DOC))


class TestJsonMatchesReference:
    """to_json against json.dumps(sort_keys=True, indent=2) on the wrapped
    document, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(json_texts, json_values))
    def test_any_document(self, doc):
        assert to_json(doc) == reference_json(doc)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(WORKED_PATHS), new=json_values,
           key=st.none() | st.sampled_from(["", "h", "zz"]))
    def test_component_entries_of_another_shape(self, path, new, key):
        # one value of a real document replaced, or given one more key: the
        # component template must write the same bytes or leave the entry
        # to the generic walk
        def change(value):
            if key is not None and isinstance(value, dict):
                return {**value, key: new}
            return new

        doc = replaced(WORKED_DOC, path, change)
        assert to_json(doc) == reference_json(doc)

    @pytest.mark.parametrize("argv", [
        ("--nq", "18", "11"), ("--cone", "-2,3,4,3"), ("--nq", "4", "1"),
    ])
    def test_real_documents(self, argv):
        code, out, _ = run_cli("analyze", *argv, "--json")
        assert code == 0
        assert out == reference_json(json.loads(out))

    def test_sheared_cone_document(self):
        nf, echo = sheared_worked_cone()
        doc = build_document(component_table(nf), echo)
        assert to_json(doc) == reference_json(doc)
        assert to_json(json.loads(to_json(doc))) == to_json(doc)

    def test_tuples_are_lists(self):
        doc = {"nq": (18, 11), "rays": [(1, 0), (-11, 18)]}
        assert to_json(doc) == to_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {"b": object()}}, b"x"])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            to_json({"value": value})


class TestChains:
    def test_count_only(self):
        code, out, _ = run_cli("chains", "--len", "4", "--count-only")
        assert (code, out.strip()) == (0, "5")

    def test_a_chain_listing_with_warning(self):
        code, out, err = run_cli("chains", "--a", "3,3,2,2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines == [
            "k=1,2,2,1  q=0,1,1,1,1,0",
            "k=1,3,1,2  q=0,1,1,2,1,0",
            "k=3,1,2,2  q=0,1,3,2,1,0",
        ]
        assert "[2,3,1,2]" in err and "inadmissible" in err

    def test_len_two(self):
        code, out, _ = run_cli("chains", "--len", "2")
        assert (code, out.strip()) == (0, "k=1,1  q=0,1,1,0")

    def test_malformed_chain_exit_1(self):
        assert run_cli("chains", "--a", "3,x,2")[0] == 1
        assert run_cli("chains", "--a", "3,1,2")[0] == 1  # entry below 2
        assert run_cli("chains", "--len", "0")[0] == 1


class TestRender:
    def test_files_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("render", "--cone", "-2,3,4,3", "--out", str(out1))[0] == 0
        assert run_cli("render", "--cone", "-2,3,4,3", "--out", str(out2))[0] == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [
            "fan_1-2-2-1.svg",
            "fan_1-3-1-2.svg",
            "fan_3-1-2-2.svg",
            "fan_minimal.svg",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_valid_xml_single_dashed_polyline(self, tmp_path):
        run_cli("render", "--nq", "18", "11", "--out", str(tmp_path))
        for svg in tmp_path.glob("*.svg"):
            text = svg.read_text()
            ET.fromstring(text)
            assert text.count("stroke-dasharray") == 1

    def test_single_cone_figure_has_one_dashed_segment(self, tmp_path):
        run_cli("render", "--nq", "18", "11", "--out", str(tmp_path))
        text = (tmp_path / "fan_3-1-2-2.svg").read_text()
        start = text.index('<polyline points="') + len('<polyline points="')
        points = text[start : text.index('"', start)].split()
        assert len(points) == 2

    def test_scale_flag(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("render", "--nq", "4", "1", "--out", str(a))
        run_cli("render", "--nq", "4", "1", "--out", str(b), "--scale", "20")
        assert (a / "fan_minimal.svg").read_text() != (b / "fan_minimal.svg").read_text()

    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_scale_below_one_exit_1(self, tmp_path, scale):
        out = tmp_path / "figs"
        code, stdout, err = run_cli("render", "--nq", "18", "11", "--out", str(out),
                                    "--scale", scale)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_figure_bytes_pinned(self, tmp_path):
        assert run_cli("render", "--nq", "18", "11", "--out", str(tmp_path))[0] == 0
        got = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert got == WORKED_FIGURE_SHA256

    def test_roof_polyline_runs_through_ray_ends(self):
        nfs = [normalize_cone(InputCone.from_ints(-2, 3, 4, 3))]
        nfs += [NormalForm.from_nq(n, q) for n in range(3, 16) for q in range(1, n - 1)
                if gcd(n, q) == 1]
        for nf in nfs:
            for name, text in fan_figures(component_table(nf)).items():
                root = ET.fromstring(text)
                ends = [(e.get("x2"), e.get("y2")) for e in root.iter(SVG + "line")]
                (roof,) = root.iter(SVG + "polyline")
                points = [tuple(p.split(",")) for p in roof.get("points").split()]
                assert points == ends, (nf, name)

    @pytest.mark.parametrize("scale", [40, 20])
    def test_dots_from_one_pattern(self, scale):
        report = component_table(NormalForm.from_nq(18, 11))
        for name, text in fan_figures(report, scale).items():
            assert text.count("<circle") == 1, name
            root = ET.fromstring(text)
            (pattern,) = root.iter(SVG + "pattern")
            (circle,) = root.iter(SVG + "circle")
            (rect,) = root.iter(SVG + "rect")
            assert list(pattern) == [circle]
            assert pattern.get("patternUnits") == "userSpaceOnUse"
            assert float(pattern.get("width")) == float(pattern.get("height")) == scale
            assert float(circle.get("r")) == STYLE["dot_radius"]
            assert circle.get("fill") == STYLE["dot_fill"]
            # the dot fits its cell, and its centre lands on the pixel of
            # lattice point (0,0), where every ray starts
            cx, cy = float(circle.get("cx")), float(circle.get("cy"))
            r = STYLE["dot_radius"]
            assert r <= cx <= scale - r and r <= cy <= scale - r
            line = next(root.iter(SVG + "line"))
            ox, oy = float(line.get("x1")), float(line.get("y1"))
            assert (float(pattern.get("x")) + cx - ox) % scale == 0, name
            assert (float(pattern.get("y")) + cy - oy) % scale == 0, name
            # the dots fill the whole viewBox, under the rays
            _, _, width, height = root.get("viewBox").split()
            assert rect.get("fill") == f"url(#{pattern.get('id')})"
            assert (rect.get("x", "0"), rect.get("y", "0")) == ("0", "0")
            assert (rect.get("width"), rect.get("height")) == (width, height)
            assert list(root).index(rect) < list(root).index(line)

    def test_figure_size_follows_rays(self):
        # a = [30,30]: the minimal resolution's bounding box holds about 787k
        # lattice points, its figure 59 rays
        nf = NormalForm.from_nq(899, 869)
        assert nf.a_chain.coeffs == (30, 30)
        for name, text in fan_figures(component_table(nf)).items():
            size = len(text.encode("utf-8"))
            assert size <= 1024 + 256 * text.count("<line"), (name, size)

    def test_unwritable_directory_exit_1(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, err = run_cli("render", "--nq", "4", "1", "--out", str(blocker))
        assert code == 1


class TestSweep:
    def test_small_sweep(self):
        code, out, err = run_cli("sweep", "--max-n", "12")
        assert code == 0
        assert "singularities:" in out and "components:" in out
        assert err == ""

    def test_oracle_mode(self):
        code, out, _ = run_cli("sweep", "--max-n", "10", "--oracle")
        assert code == 0
        assert "oracle fans checked:" in out

    def test_oracle_checks_every_singularity(self):
        # past n = 20 too: the oracle line equals the components line
        code, out, _ = run_cli("sweep", "--max-n", "30", "--oracle")
        assert code == 0
        counts = dict(line.split(": ") for line in out.splitlines())
        assert counts["oracle fans checked"] == counts["components"]

    def test_bad_max_n(self):
        assert run_cli("sweep", "--max-n", "1")[0] == 1


class TestMisc:
    def test_version(self):
        code, *_ = run_cli("--version")
        assert code == 0

    def test_help(self):
        code, *_ = run_cli("--help")
        assert code == 0

    def test_consistency_failure_exit_3(self, monkeypatch):
        from cqs import cli
        from cqs.errors import ConsistencyError

        def boom(nf):
            raise ConsistencyError("forced mismatch", chain=(1, 1))

        monkeypatch.setattr(cli, "component_table", boom)
        code, _, err = run_cli("analyze", "--nq", "18", "11")
        assert code == 3
        assert "internal consistency" in err

    @pytest.mark.parametrize("exc,code", [
        (MemoryError(), 2),
        (RuntimeError("unexpected\nstate"), 3),
    ])
    def test_any_exception_keeps_exit_contract(self, monkeypatch, exc, code):
        from cqs import cli

        def boom(nf):
            raise exc

        monkeypatch.setattr(cli, "component_table", boom)
        got, out, err = run_cli("analyze", "--nq", "18", "11")
        assert got == code
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
