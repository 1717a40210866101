"""Per-layer spans and counters, recorded from outside the program.

Each traced function is replaced, for the duration of one traced op, by a
wrapper installed wherever a caller looks the function up: every `cqs.*`
module attribute that holds it (so `cqs.invariants.fan_from_chain` and
`cqs.fans.validate_presolution` are both caught), and the class attribute for
`NormalForm.from_nq`. Nothing under `src/` changes. A name that no longer
exists is reported as absent and its metrics read 0.

A span is (name, start, end, parent span, op id, raised). Spans live in flat
arrays in memory and are written out once, at the end of the run. Self time
is a span's duration minus the durations of its direct child spans; calls run
on one thread, so child spans never overlap. Span times are read on the run's
clock less the time its speed sampling has taken so far (clock.py), so a
sample taken during a span does not count in it, as it does not count in the
op's time.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: layer -> (defining module, traced functions), as named in the benchmark notes
TARGETS = {
    "cli": ("cqs.cli", ("main",)),
    "model": ("cqs.model", ("NormalForm.from_nq", "v_rays", "w_generators", "classify_cone")),
    "lattice": ("cqs.lattice", ("hj_expand", "lattice_length")),
    "chains": ("cqs.chains", ("admissible_chains", "zero_chains")),
    "fans": ("cqs.fans", (
        "fan_from_chain", "validate_presolution", "roof_endpoint_anomalies",
        "minimal_resolution_fan", "brute_force_presolutions",
    )),
    "invariants": ("cqs.invariants", ("component_table", "nu", "dim_toric", "milnor_cf", "dim_cf")),
    "report": ("cqs.report", ("build_document", "to_json")),
    "render": ("cqs.render", ("fan_figures", "fan_svg")),
}

#: counters taken from traced return values: name -> (unit, better)
COUNTERS = {
    "chains.returned": ("count", "higher"),
    "invariants.components": ("count", "higher"),
    "report.json_bytes": ("B", "lower"),
    "render.svg_bytes": ("B", "lower"),
    "render.circles": ("count", "lower"),
    "render.kib_per_figure": ("KiB", "lower"),
    "fans.oracle_yield": ("fraction", "higher"),
}

OVERHEAD = {
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in TARGETS.items() for fn in fns]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.incl_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    specs += [(f"{layer}.raised", "count", "lower") for layer in TARGETS]
    specs += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    specs += [(name, unit, better) for name, (unit, better) in OVERHEAD.items()]
    return specs


class Tracer:
    """Installs wrappers around one op at a time and keeps every span."""

    def __init__(self, clock) -> None:
        self.clock = clock  # its `sampled_s` is taken out of every span
        self.names = span_names()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        # return values the op keeps alive anyway (its output, the oracle's few
        # fans), counted when the op ends so that the work falls outside spans
        self._pending: list[tuple[object, tuple, object]] = []
        self.counts = dict.fromkeys(
            ("chains.returned", "invariants.components", "report.json_bytes",
             "render.svg_bytes", "render.circles", "render.figures",
             "fans.oracle_fans", "fans.oracle_subsets"), 0)
        self._resolve()

    # -- installation ---------------------------------------------------

    def _resolve(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cqs" or name.startswith("cqs.")}
        for key, name in enumerate(self.names):
            layer, fn = name.split(".", 1)
            home = modules.get(TARGETS[layer][0])
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if not isinstance(raw, (classmethod, staticmethod)):
                    self.absent.append(name)
                    continue
                wrapped = type(raw)(self._wrap(key, raw.__func__))
                self._patches.append((cls, meth, raw, wrapped))
                continue
            orig = getattr(home, fn, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(key, orig)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapped))

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in self._patches:
            setattr(holder, attr, orig)
        self._stack.clear()
        self._count_pending()

    def _wrap(self, key: int, fn):
        name_arr, parent_arr, op_arr = self.name, self.parent, self.op
        raised_arr, start_arr, end_arr = self.raised, self.start, self.end
        stack, pending = self._stack, self._pending
        count = _COUNT.get(self.names[key])
        deferred = self.names[key] in _DEFERRED
        counts = self.counts
        clock = self.clock

        def wrapper(*args, **kwargs):
            idx = len(name_arr)
            name_arr.append(key)
            parent_arr.append(stack[-1] if stack else -1)
            op_arr.append(self.op_id)
            raised_arr.append(0)
            end_arr.append(0.0)
            stack.append(idx)
            start_arr.append(perf_counter() - clock.sampled_s)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_arr[idx] = perf_counter() - clock.sampled_s
                raised_arr[idx] = 1
                stack.pop()
                raise
            end_arr[idx] = perf_counter() - clock.sampled_s
            stack.pop()
            if count is None:
                return result
            if deferred:
                pending.append((count, args, result))
            else:
                for name, value in count(args, result):
                    counts[name] += value
            return result

        return wrapper

    def _count_pending(self) -> None:
        for count, args, result in self._pending:
            for key, value in count(args, result):
                self.counts[key] += value
        self._pending.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, passes: int, op_factor: list[float]) -> dict[str, float]:
        """Every per-layer metric except the overhead, averaged per pass; span
        durations are scaled by their op's calibration factor."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        child = [0.0] * len(self.name)
        self_t = [0.0] * n_names
        raised = dict.fromkeys(TARGETS, 0)
        name, parent, start, end, rz = self.name, self.parent, self.start, self.end, self.raised
        op = self.op
        # children start after their parents, so one reverse pass has each
        # span's child cover complete by the time the span itself is reached
        for i in range(len(name) - 1, -1, -1):
            dur = (end[i] - start[i]) * op_factor[op[i]]
            k = name[i]
            calls[k] += 1
            incl[k] += dur
            self_t[k] += dur - child[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
            if rz[i]:
                raised[self.names[k].split(".", 1)[0]] += 1
        out: dict[str, float] = {}
        for k, label in enumerate(self.names):
            out[f"{label}.calls"] = calls[k] / passes
            out[f"{label}.incl_s"] = incl[k] / passes
            out[f"{label}.self_s"] = self_t[k] / passes
        for layer, count in raised.items():
            out[f"{layer}.raised"] = count / passes
        c = self.counts
        for key in ("chains.returned", "invariants.components", "report.json_bytes",
                    "render.svg_bytes", "render.circles"):
            out[key] = c[key] / passes
        out["render.kib_per_figure"] = (
            c["render.svg_bytes"] / 1024 / c["render.figures"] if c["render.figures"] else 0.0)
        # computed, not measured: the denominator is 2^k over the dominating rays
        out["fans.oracle_yield"] = (
            c["fans.oracle_fans"] / c["fans.oracle_subsets"] if c["fans.oracle_subsets"] else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays plus a JSON index naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name", self.name), ("parent", self.parent), ("op", self.op),
                  ("raised", self.raised), ("start", self.start), ("end", self.end)]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        index = {
            "names": self.names,
            "absent": self.absent,
            "spans": len(self.name),
            "fields": [[label, arr.typecode, arr.itemsize] for label, arr in fields],
            "clock": "perf_counter seconds, less the speed sampling done so far",
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")


def oracle_subsets(nf) -> int:
    """2^k, k = number of dominating interior rays the subset search ranges over."""
    from cqs import fans

    rays = getattr(fans, "dominating_interior_rays", None)
    return 2 ** len(rays(nf)) if rays is not None else 0


#: traced function -> counts taken from (args, return value); O(1) counts are
#: taken at once, so that no large return value outlives its use
_COUNT = {
    "chains.admissible_chains": lambda args, r: [("chains.returned", len(r))],
    "chains.zero_chains": lambda args, r: [("chains.returned", len(r))],
    "invariants.component_table": lambda args, r: [("invariants.components", len(r.components))],
    "report.to_json": lambda args, r: [("report.json_bytes", len(r.encode("utf-8")))],
    "render.fan_svg": lambda args, r: [("render.svg_bytes", len(r.encode("utf-8"))),
                                       ("render.circles", r.count("<circle")),
                                       ("render.figures", 1)],
    "fans.brute_force_presolutions": lambda args, r: [("fans.oracle_fans", len(r)),
                                                      ("fans.oracle_subsets", oracle_subsets(args[0]))],
}
_DEFERRED = {"report.to_json", "render.fan_svg", "fans.brute_force_presolutions"}
