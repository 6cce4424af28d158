"""Traced `qfrob report-all`: per-layer self time, call counts and cache hits.

Usage (with the repository's `src` on PYTHONPATH):

    python3 perfbench/tracer.py CONFIG REPORT_JSON STATS_JSON

The spans are recorded from outside the program: every binding of each
public function of a layer module, and the public methods of its public
classes, are replaced by a wrapper that opens a span for the duration of the
call.  `cli`, `pdgmod` and `qgroup` import names with `from ... import`, so
each module namespace of the package is patched, not only the defining one.

A layer's self time is the time during which the innermost open span
belongs to it: a span's duration minus the duration of its child spans,
summed over the layer's spans.  For a span whose children are of other
layers this is the span time minus the time those children cover; a span
nested in a span of the same layer is not counted twice.

Inner-loop value types are wrapped more sparsely, because a span costs
about a microsecond (CPython 3.11 on a 2-core x86 VM) and these methods run
millions of times in the Frobenius check: the public methods of `LaurentPoly`, `CycElem`, `CBWord`
and `CoeffRing` are left unwrapped, so their time counts toward the calling
layer, while `LaurentPoly.__mul__` and `CycElem.__mul__`, the arithmetic
that dominates the Frobenius oracle, each get a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "cyclotomic", "partitions", "linalg", "pcomplex", "symfunc", "pdgmod", "qgroup"
)

# Classes whose public methods are left unwrapped, and the only methods with
# a leading underscore that are wrapped; see the module docstring.
UNWRAPPED_CLASSES = {"LaurentPoly", "CycElem", "CBWord", "CoeffRing"}
WRAPPED_DUNDERS = {"LaurentPoly": {"__mul__"}, "CycElem": {"__mul__"}}


class Tracer:
    """Span recorder that folds each closed span into per-layer self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()  # by qualified function name
        self.counts = Counter()  # layer-specific work counters
        self.stack = []  # open spans: [layer, start, time covered by child spans]

    def span(self, fn, layer, name, probe=None):
        """`fn` wrapped so that each call is a span of `layer`.

        The new span's parent is the innermost open span.  `probe(tracer,
        args)` runs before the span opens, on calls that enter the layer
        from another one.
        """
        stack, clock, self_s, calls = self.stack, self.clock, self.self_s, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            if probe is not None and (not stack or stack[-1][0] != layer):
                probe(self, args)
            span = [layer, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - span[1]
                self_s[layer] += duration - span[2]
                if stack:
                    stack[-1][2] += duration

        return functools.update_wrapper(traced, fn)


def _linalg_probe(tracer, args):
    import numpy as np

    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            tracer.counts["linalg.entries"] += a.size
            tracer.counts["linalg.nnz"] += int(np.count_nonzero(a))


def _pcomplex_probe(tracer, args):
    from qfrob.pcomplex import PComplex

    if args and isinstance(args[0], PComplex):
        dim = args[0].dim
        if dim > tracer.counts["pcomplex.dim"]:
            tracer.counts["pcomplex.dim"] = dim


PROBES = {"linalg": _linalg_probe, "pcomplex": _pcomplex_probe}


def install(tracer):
    """Wrap the layers of the imported `qfrob` package in place.

    Returns the functools caches of each layer, for hit ratios.
    """
    modules = {layer: importlib.import_module(f"qfrob.{layer}") for layer in LAYERS}
    caches = {layer: [] for layer in LAYERS}
    wrappers = {}  # id(original function) -> (original, wrapper)
    for layer, mod in modules.items():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[layer].append(obj)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_methods(tracer, obj, layer)
            elif callable(obj):
                qual = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, tracer.span(obj, layer, qual, PROBES.get(layer)))
    for modname, mod in list(sys.modules.items()):
        if modname != "qfrob" and not modname.startswith("qfrob."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    return caches


def _function(attr):
    """The plain function behind a class attribute, or None."""
    fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
    return fn if inspect.isfunction(fn) else None


def _wrap_methods(tracer, cls, layer):
    names = set(WRAPPED_DUNDERS.get(cls.__name__, ()))
    if cls.__name__ not in UNWRAPPED_CLASSES:
        names |= {n for n in vars(cls) if not n.startswith("_")}
    probe = PROBES.get(layer)
    spans = {}  # id(function) -> wrapper
    for name in sorted(names):
        fn = _function(vars(cls)[name])
        if fn is not None and id(fn) not in spans:
            spans[id(fn)] = tracer.span(fn, layer, f"{layer}.{cls.__name__}.{name}", probe)
    for name, attr in list(vars(cls).items()):  # every binding, e.g. __rmul__ = __mul__
        fn = _function(attr)
        if fn is not None and id(fn) in spans:
            setattr(cls, name, spans[id(fn)] if fn is attr else type(attr)(spans[id(fn)]))


def layer_metrics(tracer, caches):
    """Per-layer metrics of a finished traced run, as {name: value}."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer]
        out[f"{layer}.calls"] = sum(
            n for name, n in tracer.calls.items() if name.split(".", 1)[0] == layer
        )
        if caches[layer]:
            infos = [c.cache_info() for c in caches[layer]]
            hits = sum(i.hits for i in infos)
            lookups = hits + sum(i.misses for i in infos)
            out[f"{layer}.cache_lookups"] = lookups
            out[f"{layer}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    entries = tracer.counts["linalg.entries"]
    out["linalg.entries"] = entries
    out["linalg.nnz_frac"] = tracer.counts["linalg.nnz"] / entries if entries else 0.0
    out["linalg.matmul_calls"] = tracer.calls["linalg.matmul_mod"]
    out["pcomplex.power_matrix_calls"] = tracer.calls["pcomplex.PComplex.power_matrix"]
    out["pcomplex.dim"] = tracer.counts["pcomplex.dim"]
    out["partitions.lr_calls"] = (
        tracer.calls["partitions.lr_expand"] + tracer.calls["partitions.lr_restrict"]
    )
    out["cyclotomic.laurent_mul_calls"] = tracer.calls["cyclotomic.LaurentPoly.__mul__"]
    out["qgroup.oracle_calls"] = tracer.calls["qgroup.oracle_product_agrees"]
    return out


def main(argv):
    config, report_json, stats_json = argv
    import qfrob.cli

    tracer = Tracer()
    caches = install(tracer)
    try:
        return qfrob.cli.main(["report-all", "--config", config, "--json", report_json])
    finally:
        with open(stats_json, "w") as fh:
            json.dump(layer_metrics(tracer, caches), fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
