"""Spans around the hardylab layer functions, recorded from outside ``src/``.

``Tracer.install`` replaces every public function of each layer module, and
``sequences._ratio_recurrence``, with a wrapper that records a span: the
function's name, its start, its end, the span that called it and a size
taken from its arguments or result.  The wrapper is also bound wherever a
sibling module imported the function (``from .compsum import
neumaier_prefix_sums``) and in module-level dispatch tables such as
``cli._RENDERERS``, so every call path is seen.  ``uninstall`` restores the
originals.  Spans stay in memory; ``layer_metrics`` turns one pass of them
into the per-layer metrics, with self time = span time minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("compsum", "sequences", "criteria", "reports", "redheffer",
          "operators", "verify", "cli")
PRIVATE_TRACED = {"sequences": ("_ratio_recurrence",)}

# Bytes a compensated scan computes per element: one float64 read and one
# float64 written.  Derived from array sizes, not measured.
SCAN_BYTES_PER_ELEMENT = 16

VERIFY_GROUPS = ("redheffer_constant", "theorem6_floor", "reverse_machinery",
                 "boundary_algebra", "forward_sample", "power_choice",
                 "hardy_bracketing", "lemma_suite")
LEMMAS = ("redheffer.lemma_6_1_residual", "redheffer.lemma_6_2_residual",
          "redheffer.lemma_6_2_step")
RENDERERS = ("cli.render_json", "cli.render_csv", "cli.render_text")


def _indices(args, kwargs, out):
    n_hi = getattr(out, "n_hi", None)
    return None if n_hi is None else n_hi - out.n_lo + 1


def _rendered(name):
    def size(args, kwargs, out):
        if name == "cli.render_json":
            rows = len(json.loads(out)["verdicts"])
        else:
            rows = out.count("\n") - (name == "cli.render_csv")
        return (rows, len(out.encode()))
    return size


# Work done by one call, read from its arguments or result.
SIZES = {
    "compsum.neumaier_prefix_sums": lambda a, k, out: len(out),
    "compsum.neumaier_suffix_sums": lambda a, k, out: len(out),
    "sequences._ratio_recurrence": lambda a, k, out: out.n_max,
    "sequences.power_sum_bound_check": lambda a, k, out: a[1] if len(a) > 1 else k["n"],
    "operators.constant_ratio": lambda a, k, out: a[0].truncation,
    "redheffer.scan_params": lambda a, k, out: out.n_points,
    **{name: _rendered(name) for name in RENDERERS},
}


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"hardylab.{m}") for m in LAYERS]
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []
        self._wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            extra = PRIVATE_TRACED.get(layer, ())
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")

    def install(self) -> None:
        for mod in self.modules:
            namespace = vars(mod)
            self._rebind(namespace)
            for table in list(namespace.values()):
                if isinstance(table, dict) and table is not namespace:
                    self._rebind(table)

    def _rebind(self, namespace: dict) -> None:
        for key, value in list(namespace.items()):
            if inspect.isfunction(value) and value in self._wrappers:
                self._patches.append((namespace, key, value))
                namespace[key] = self._wrappers[value]

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def take(self) -> list:
        """The spans recorded since the last take, as a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        if name.startswith("criteria."):
            size = _indices
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = [fid, start, end, parent, None]
            if size is not None:
                spans[sid][4] = size(args, kwargs, out)
            return out

        return traced


def layer_metrics(names: list[str], spans: list) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    layer = [n.split(".", 1)[0] for n in names]
    child = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)      # spans not nested in a span of the same function set
    sizes = defaultdict(int)
    incl = defaultdict(float)
    outer_calls = defaultdict(int)  # spans not nested in a span of the same layer
    outer_sizes = defaultdict(int)
    groups = {n: n for n in names}
    groups.update({n: "lemmas" for n in LEMMAS})
    groups.update({n: "renderers" for n in RENDERERS})
    for i, (fid, start, end, parent, size) in enumerate(spans):
        name = names[fid]
        self_s[layer[fid]] += end - start - child[i]
        pname = names[spans[parent][0]] if parent >= 0 else ""
        if groups.get(pname) != groups[name]:
            calls[groups[name]] += 1
            incl[groups[name]] += end - start
        if isinstance(size, int):
            sizes[name] += size
        if size is not None and not pname.startswith(layer[fid] + "."):
            outer_calls[layer[fid]] += 1
            if isinstance(size, int):
                outer_sizes[layer[fid]] += size
    rendered = [s[4] for s in spans if names[s[0]] in RENDERERS and s[4]]
    m = {
        "compsum.calls": outer_calls["compsum"],
        "compsum.elements": outer_sizes["compsum"],
        "compsum.bytes_computed": SCAN_BYTES_PER_ELEMENT * outer_sizes["compsum"],
        "compsum.self_s": self_s["compsum"],
        "sequences.recurrence_calls": calls["sequences._ratio_recurrence"],
        "sequences.recurrence_elements": sizes["sequences._ratio_recurrence"],
        "sequences.recurrence_s": incl["sequences._ratio_recurrence"],
        "sequences.power_sum_calls": calls["sequences.power_sum_bound_check"],
        "sequences.power_sum_terms": sizes["sequences.power_sum_bound_check"],
        "sequences.power_sum_s": incl["sequences.power_sum_bound_check"],
        "criteria.checks": outer_calls["criteria"],
        "criteria.indices": outer_sizes["criteria"],
        "criteria.self_s": self_s["criteria"],
        "reports.reports": calls["reports.build_report"],
        "reports.self_s": self_s["reports"],
        "operators.norm_ratio_calls": calls["operators.constant_ratio"],
        "operators.elements": sizes["operators.constant_ratio"],
        "operators.self_s": self_s["operators"],
        "redheffer.lemma_calls": calls["lemmas"],
        "redheffer.lemma_s": incl["lemmas"],
        "redheffer.scan_points": sizes["redheffer.scan_params"],
        "redheffer.scan_s": incl["redheffer.scan_params"],
    }
    for group in VERIFY_GROUPS:
        m[f"verify.{group}_s"] = incl[f"verify.{group}_claims"]
    m["cli.rows_rendered"] = sum(rows for rows, _ in rendered)
    m["cli.bytes_written"] = sum(nbytes for _, nbytes in rendered)
    m["cli.render_s"] = incl["renderers"]
    return m
