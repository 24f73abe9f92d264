"""Per-layer tracing of symlie from outside the package.

The tracer wraps the public functions of each layer module, plus
``SymFunc.__mul__``, ``Series.__mul__`` and ``Partition.of``, and rebinds
every wrapper in each loaded ``symlie`` module namespace that holds the
original.  Calls between modules, and calls inside a module through its own
globals, therefore pass through a span.  Nothing under ``src/`` changes.

Spans are kept in memory merged by call path inside each verdict: a hot
path such as ``SymFunc.__mul__ > Partition.of`` runs over a million times in
one pass, so one record per call would cost more than the work it traces.
Each path keeps its call count, its total time and its self time.  A
layer's self time is the time during which one of its spans was the
innermost open span, i.e. span time minus the nested spans of other layers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("partitions", "symfunc", "plethysm", "families", "verify", "cli")

_LRU_WRAPPER = type(functools.lru_cache(maxsize=None)(lambda: None))


class _Node:
    __slots__ = ("name", "layer", "parent", "children", "calls", "total_s", "self_s", "entered")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.entered = 0.0

    def walk(self, prefix=""):
        for child in self.children.values():
            path = f"{prefix}>{child.name}" if prefix else child.name
            yield path, child
            yield from child.walk(path)


def public_functions(module) -> list[str]:
    """Names of the plain and memoized functions a layer module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if isinstance(getattr(module, n, None), (types.FunctionType, _LRU_WRAPPER))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Spans and counters for one pass; install once, after ``import symlie``."""

    def __init__(self):
        self.clock = time.perf_counter
        self.root = _Node("<benchmark>", None, None)
        self.cur = self.root
        self.last = self.clock()
        self.verdicts: list[tuple[str, float, float, _Node]] = []
        self.enumerated = 0
        self.peak_support = 0
        self.mul_term_pairs = 0

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name, layer):
        now = self.clock()
        cur = self.cur
        cur.self_s += now - self.last
        node = cur.children.get(name)
        if node is None:
            node = cur.children[name] = _Node(name, layer, cur)
        node.calls += 1
        node.entered = now
        self.cur = node
        self.last = now
        return node

    def _exit(self, node):
        now = self.clock()
        node.self_s += now - self.last
        node.total_s += now - node.entered
        self.cur = node.parent
        self.last = now

    def verdict(self, label, call):
        """Run ``call()`` as the root span of one verdict and return its result."""
        start = self.clock()
        node = _Node(label, None, None)
        outer, self.cur = self.cur, node
        self.last = start
        try:
            return call()
        finally:
            end = self.clock()
            node.self_s += end - self.last
            node.total_s = end - start
            self.cur, self.last = outer, end
            self.verdicts.append((label, start, end, node))

    def _wrap(self, fn, name, layer, note=None):
        enter, leave = self._enter, self._exit
        if note is None:

            def traced(*args, **kwargs):
                node = enter(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(node)

        else:

            def traced(*args, **kwargs):
                node = enter(name, layer)
                try:
                    result = fn(*args, **kwargs)
                    note(args, result)
                    return result
                finally:
                    leave(node)

        return functools.wraps(fn)(traced)

    # -- counters recorded at the boundary -----------------------------------

    def _note_enumerated(self, args, result):
        self.enumerated += len(result)

    def _note_support(self, args, result):
        self.peak_support = max(self.peak_support, len(args[0].terms))

    def _note_pairs(self, args, result):
        a, b = args
        if isinstance(b, type(a)):
            self.mul_term_pairs += len(a.terms) * len(b.terms)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them package-wide."""
        notes = {
            "partitions.partitions_of": self._note_enumerated,
            "symfunc.to_schur": self._note_support,
        }
        swaps = {}
        for layer in LAYERS:
            module = sys.modules[f"symlie.{layer}"]
            for fname in public_functions(module):
                fn = getattr(module, fname)
                name = f"{layer}.{fname}"
                swaps[id(fn)] = (fn, self._wrap(fn, name, layer, notes.get(name)))
        for mname, module in list(sys.modules.items()):
            if mname != "symlie" and not mname.startswith("symlie."):
                continue
            for attr, value in list(vars(module).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        symfunc = sys.modules["symlie.symfunc"]
        plethysm = sys.modules["symlie.plethysm"]
        partitions = sys.modules["symlie.partitions"]
        symfunc.SymFunc.__mul__ = self._wrap(symfunc.SymFunc.__mul__, "symfunc.SymFunc.__mul__", "symfunc", self._note_pairs)
        plethysm.Series.__mul__ = self._wrap(plethysm.Series.__mul__, "plethysm.Series.__mul__", "plethysm")
        of = partitions.Partition.__dict__["of"].__func__
        partitions.Partition.of = classmethod(self._wrap(of, "partitions.Partition.of", "partitions"))

    # -- results ---------------------------------------------------------------

    def _nodes(self):
        for _, _, _, root in self.verdicts:
            for _, node in root.walk():
                yield node

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; memo sizes are read from the package."""
        calls: dict[str, int] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        to_schur_s = 0.0
        verdicts = 0
        for node in self._nodes():
            calls[node.name] = calls.get(node.name, 0) + node.calls
            self_s[node.layer] += node.self_s
            if node.name == "symfunc.to_schur":
                to_schur_s += node.total_s
            if node.layer == "verify" and node.parent.layer != "verify":
                verdicts += node.calls
        info = sys.modules["symlie.symfunc"]._char.cache_info()
        lookups = info.hits + info.misses
        return {
            "partitions.self_s": self_s["partitions"],
            "partitions.enumerated": self.enumerated,
            "partitions.interned": len(sys.modules["symlie.partitions"]._interned),
            "symfunc.self_s": self_s["symfunc"],
            "symfunc.to_schur_s": to_schur_s,
            "symfunc.to_schur_calls": calls.get("symfunc.to_schur", 0),
            "symfunc.peak_support": self.peak_support,
            "symfunc.char_hits": info.hits,
            "symfunc.char_misses": info.misses,
            "symfunc.char_hit_ratio": info.hits / lookups if lookups else 0.0,
            "symfunc.char_entries": info.currsize,
            "symfunc.mul_calls": calls.get("symfunc.SymFunc.__mul__", 0),
            "symfunc.mul_term_pairs": self.mul_term_pairs,
            "plethysm.self_s": self_s["plethysm"],
            "plethysm.pleth_calls": calls.get("plethysm.pleth", 0) + calls.get("plethysm.pleth_inverse", 0),
            "plethysm.series_mul_calls": calls.get("plethysm.Series.__mul__", 0),
            "plethysm.exp_calls": calls.get("plethysm.series_exp", 0),
            "families.self_s": self_s["families"],
            "families.members_built": len(sys.modules["symlie.families"]._family_cache),
            "verify.self_s": self_s["verify"],
            "verify.verdicts": verdicts,
            "cli.self_s": self_s["cli"],
        }

    def write_spans(self, path) -> None:
        """Write every verdict's span tree, merged by call path, as JSON."""
        out = []
        for label, start, end, root in self.verdicts:
            out.append(
                {
                    "verdict": label,
                    "start_s": start,
                    "end_s": end,
                    "self_s": root.self_s,
                    "spans": [
                        {"path": span_path, "layer": n.layer, "calls": n.calls, "total_s": n.total_s, "self_s": n.self_s}
                        for span_path, n in root.walk()
                    ],
                }
            )
        with open(path, "w") as fh:
            json.dump({"verdicts": out}, fh, indent=1)
