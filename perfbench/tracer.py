"""Per-layer timing wrappers installed from outside the package.

install() swaps each traced function for a wrapper in every indecomp module
that binds it, so calls made through names imported into another module
(``from .modular import _prime_mask``) are caught as well.  A span wrapper
counts calls and accumulates self time: its duration minus the time spent
in spans it caused.  Hot leaves get a count-only wrapper, because a span per
call would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, metric prefix, kind); methods are given as
# "Class.method".  kind "span" times calls, "count" only counts them, and
# "per_order" times them under <prefix>.o<first argument>.
TRACED = (
    ("harness", "_Kernel.closure_prime", "harness.kernel.closure_prime", "span"),
    ("harness", "_Kernel.subset_prime", "harness.kernel.subset_prime", "span"),
    ("modular", "_prime_mask", "modular.prime_mask", "span"),
    ("modular", "_closure_mask", "modular.closure_mask", "count"),
    ("modular", "is_indecomposable", "modular.is_indecomposable", "span"),
    ("modular", "outside_partition", "modular.outside_partition", "span"),
    ("modular", "check_outside_rules", "modular.check_outside_rules", "span"),
    ("modular", "extend_by_two", "modular.extend_by_two", "span"),
    ("modular", "small_indecomposable_around", "modular.small_indecomposable_around", "span"),
    ("modular", "nontrivial_intervals", "modular.nontrivial_intervals", "span"),
    ("criticality", "critical_vertices", "criticality.critical_vertices", "span"),
    ("criticality", "indecomposability_graph", "criticality.indecomposability_graph", "span"),
    ("criticality", "check_lemma21", "criticality.check_lemma21", "span"),
    ("criticality", "recognize_shape", "criticality.recognize_shape", "span"),
    ("core", "canonical_code", "core.canonical_code", "span"),
    ("core", "find_isomorphism", "core.find_isomorphism", "span"),
    ("families", "enum_family_members", "families.enum_family_members", "per_order"),
    ("classifier", "classify", "classifier.classify", "span"),
    ("classifier", "match_family", "classifier.match_family", "span"),
)


class Tracer:
    """Calls and self seconds per span name, plus call counts."""

    def __init__(self):
        self.spans: dict = {}  # name -> [calls, self seconds]
        self.counts: dict = {}  # name -> [calls]
        self._stack = [0.0]  # child time accumulated by each open span

    def span(self, name: str, fn, per_order: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}.o{args[0]}" if per_order else name
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                entry = spans.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - child

        return wrapper

    def count(self, name: str, fn):
        entry = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        cache = getattr(sys.modules["indecomp.classifier"], "_candidate_records", None)
        info = cache.cache_info() if cache is not None else None
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
            "candidate_cache": {"hits": info.hits if info else 0,
                                "misses": info.misses if info else 0},
        }


def _rebind(original, wrapper) -> None:
    """Point every indecomp module attribute bound to original at wrapper."""
    for modname, module in list(sys.modules.items()):
        if modname != "indecomp" and not modname.startswith("indecomp."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an already imported indecomp.

    A function the package no longer has is reported on stderr and left
    out, so its metrics read 0 instead of the traced run failing.
    """
    for modname, attr, name, kind in TRACED:
        module = sys.modules[f"indecomp.{modname}"]
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None)
        if original is None:
            print(f"trace: indecomp.{modname}.{attr} not found", file=sys.stderr)
            continue
        if kind == "count":
            wrapper = tracer.count(name, original)
        else:
            wrapper = tracer.span(name, original, per_order=kind == "per_order")
        if owner is module:
            _rebind(original, wrapper)
        else:
            setattr(owner, method, wrapper)
