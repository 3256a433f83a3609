"""Timing wrappers around the public API of idcodes, installed from outside.

``install`` replaces every public function of the idcodes modules, and
every public method of their classes, by a wrapper that records a span
(name, start, end, parent) in memory.  A function is replaced at every
module attribute it is bound to, because callers look it up there:
``heuristics`` calls ``evaluate`` through ``idcodes.heuristics.evaluate``,
not through ``idcodes.signatures.evaluate``.  Methods are replaced on the
class.  ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.

Private helpers stay unwrapped, so their time counts as the self time of
the public call that made them (``_evaluate_static`` inside
``convert.discriminating_report``, for instance).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter
from math import comb

import numpy as np

MODULES = ("hypercube", "signatures", "heuristics", "exact", "extend",
           "convert", "codefile", "bounds", "cli")

# signatures holds two layers: the incremental table and the static evaluator.
_TABLE_FUNCTIONS = {"signatures.build_signatures", "signatures.swap_delta", "signatures.apply_swap"}
LAYERS = ("hypercube", "signatures.table", "signatures.static", "heuristics", "exact",
          "extend", "convert", "codefile", "bounds", "cli")


def layer_of(span_name: str) -> str:
    if span_name.startswith("signatures."):
        if span_name.startswith("signatures.SignatureTable.") or span_name in _TABLE_FUNCTIONS:
            return "signatures.table"
        return "signatures.static"
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans of one traced phase, kept in memory until ``save``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # flattened rows of (name id, start ns, end ns, parent row or -1)
        self.spans = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = _NOTES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            row = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1]))
            stack.append(row)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * row + 1] = start
                spans[4 * row + 2] = end
            if note is not None:
                note(counters, fn, args, kwargs, result, end - start)
            return result

        return timed

    def rows(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def save(self, path: str) -> None:
        np.savez(path, spans=self.rows(), names=np.array(self.names))


def install(tracer: Tracer, package) -> list:
    """Wrap the public API of ``package``'s modules; returns the undo list."""
    mods = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
    namespaces = [package, *mods.values()]
    patches = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, f"{short}.{attr}", obj, patches)
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                timed = tracer.wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            patches.append((ns, name, value))
                            setattr(ns, name, timed)
    return patches


def _wrap_class(tracer: Tracer, prefix: str, cls, patches: list) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            new = type(member)(tracer.wrap(f"{prefix}.{attr}", member.__func__))
        elif inspect.isfunction(member):
            new = tracer.wrap(f"{prefix}.{attr}", member)
        else:
            continue  # properties and plain attributes
        patches.append((cls, attr, member))
        setattr(cls, attr, new)


def uninstall(patches: list) -> None:
    for owner, name, value in reversed(patches):
        setattr(owner, name, value)


# -- counters recorded at the span boundary ------------------------------------


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note_add_delta_all(c, fn, args, kwargs, result, dur):
    table = args[0]
    c["add_delta_all.cells"] += (1 << table.dim) * sum(comb(table.dim, i) for i in range(table.radius + 1))


def _note_static(kind):
    def note(c, fn, args, kwargs, result, dur):
        code = args[0]
        c[f"{kind}.vertices"] += 1 << code.dim
        if kind == "diagnose" and code.dim == 20 and result.identifying:
            c["static_n20_pass.calls"] += 1
            c["static_n20_pass.ns"] += dur
    return note


def _note_noising(c, fn, args, kwargs, result, dur):
    a = _bound(fn, args, kwargs)
    key = f"noising_{a['r']}_{a['n']}"
    c[f"{key}.ns"] += dur
    c[f"{key}.iterations"] += result.iterations_used
    c["noising.iterations"] += result.iterations_used
    c["noising.accepted"] += len(result.trace) - 1


def _note_greedy(c, fn, args, kwargs, result, dur):
    a = _bound(fn, args, kwargs)
    c[f"greedy_{a['r']}_{a['n']}.ns"] += dur


def _note_file(c, fn, args, kwargs, result, dur):
    c["codefile.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _note_plan(c, fn, args, kwargs, result, dur):
    c["extend.x_size"] += len(result.x_set)
    c["extend.y_size"] += len(result.y_set)


def _note_exact(prop):
    def note(c, fn, args, kwargs, result, dur):
        a = _bound(fn, args, kwargs)
        if prop == "separating":
            cell = f"separating_{a['p']}_{a['k']}"
        else:
            cell = f"{prop}_{a['r']}_{a['n']}"
        if a.get("budget") is not None:
            cell += "_budget"
        c[f"exact.{cell}.nodes"] += result.nodes
        c[f"exact.{cell}.ns"] += dur
        c[f"exact.{cell}.infeasible_sizes"] += len(result.infeasible_sizes)
    return note


_NOTES = {
    "signatures.SignatureTable.add_delta_all": _note_add_delta_all,
    "signatures.evaluate": _note_static("evaluate"),
    "signatures.diagnose": _note_static("diagnose"),
    "heuristics.noising_search": _note_noising,
    "heuristics.greedy_construct": _note_greedy,
    "codefile.read_code_file": _note_file,
    "codefile.write_code_file": _note_file,
    "extend.plan_c1": _note_plan,
    "exact.min_identifying": _note_exact("identifying"),
    "exact.min_separating": _note_exact("separating"),
    "exact.min_discriminating": _note_exact("discriminating"),
}


# -- per-layer metrics ---------------------------------------------------------

# spans reported call site by call site; the metric drops "SignatureTable."
_REPORTED = (
    "signatures.SignatureTable.add_delta_all", "signatures.SignatureTable.add",
    "signatures.SignatureTable.remove_slot", "signatures.SignatureTable.remove_delta",
    "signatures.evaluate", "signatures.diagnose",
    "heuristics.noising_search", "heuristics.greedy_construct", "heuristics.prune",
    "exact.min_identifying", "exact.min_separating", "exact.min_discriminating",
    "hypercube.direct_sum", "hypercube.Code.from_words",
    "extend.plan_c1", "extend.apply_plan",
    "codefile.read_code_file", "codefile.write_code_file",
    "convert.to_discriminating", "convert.discriminating_report",
    "cli.main", "bounds.load_registry",
)
# percentiles need enough calls to mean something
MIN_CALLS_FOR_PERCENTILES = 1000


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced batch that took ``wall_s``."""
    rows = tracer.rows()
    nid, start, end, parent = rows.T
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(rows))
    self_ns = dur - child
    k = len(tracer.names)
    calls = np.bincount(nid, minlength=k)
    busy = np.bincount(nid, weights=dur, minlength=k) / 1e9
    self_s = np.bincount(nid, weights=self_ns, minlength=k) / 1e9
    index = {name: i for i, name in enumerate(tracer.names)}

    m: dict[str, float] = {}
    for name in _REPORTED:
        prefix = name.replace(".SignatureTable.", ".")
        i = index.get(name)
        m[f"{prefix}.calls"] = float(calls[i]) if i is not None else 0.0
        m[f"{prefix}.busy_s"] = float(busy[i]) if i is not None else 0.0
        m[f"{prefix}.self_s"] = float(self_s[i]) if i is not None else 0.0
        for q in (50, 99):
            value = 0.0
            if m[f"{prefix}.calls"] >= MIN_CALLS_FOR_PERCENTILES:
                value = float(np.percentile(dur[nid == i], q)) / 1e3
            m[f"{prefix}.p{q}_us"] = value

    c = tracer.counters
    m["signatures.add_delta_all.cells"] = float(c["add_delta_all.cells"])
    m["signatures.evaluate.vertices"] = float(c["evaluate.vertices"])
    m["signatures.diagnose.vertices"] = float(c["diagnose.vertices"])
    m["heuristics.accepted_ratio"] = _ratio(c["noising.accepted"], c["noising.iterations"])
    m["codefile.bytes"] = float(c["codefile.bytes"])
    m["extend.x_size"] = float(c["extend.x_size"])
    m["extend.y_size"] = float(c["extend.y_size"])

    cells = sorted({key.split(".")[1] for key in c if key.startswith("exact.")})
    for cell in cells:
        nodes = c[f"exact.{cell}.nodes"]
        seconds = c[f"exact.{cell}.ns"] / 1e9
        m[f"exact.{cell}.nodes"] = float(nodes)
        m[f"exact.{cell}.busy_s"] = seconds
        m[f"exact.{cell}.nodes_per_s"] = _ratio(nodes, seconds)
        m[f"exact.{cell}.infeasible_sizes"] = float(c[f"exact.{cell}.infeasible_sizes"])
    exact_busy = sum(m[f"exact.min_{p}.busy_s"] for p in ("identifying", "separating", "discriminating"))
    m["exact.nodes"] = float(sum(c[f"exact.{cell}.nodes"] for cell in cells))
    m["exact.nodes_per_s"] = _ratio(m["exact.nodes"], exact_busy)
    m["exact.infeasible_sizes"] = float(sum(c[f"exact.{cell}.infeasible_sizes"] for cell in cells))

    for (r, n) in ((1, 9), (1, 10)):
        key = f"noising_{r}_{n}"
        m[f"baseline.{key}.ms_per_iter"] = _ratio(c[f"{key}.ns"] / 1e6, c[f"{key}.iterations"])
    for (r, n) in ((1, 12), (2, 12)):
        m[f"baseline.greedy_{r}_{n}.s"] = c[f"greedy_{r}_{n}.ns"] / 1e9
    m["baseline.static_eval_n20.s"] = _ratio(c["static_n20_pass.ns"] / 1e9, c["static_n20_pass.calls"])

    layer_self = Counter()
    layer_calls = Counter()
    for i, name in enumerate(tracer.names):
        layer_self[layer_of(name)] += self_s[i]
        layer_calls[layer_of(name)] += calls[i]
    top = parent < 0
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = float(layer_self[layer])
    m["layer.benchmark.self_s"] = wall_s - float(dur[top].sum()) / 1e9
    m["signatures.table.calls"] = float(layer_calls["signatures.table"])
    m["trace.spans"] = float(len(rows))
    return m


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
