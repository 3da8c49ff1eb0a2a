"""Critical vertices and the indecomposability graph.

A vertex x of an indecomposable digraph is critical when deleting it leaves a
decomposable graph.  The indecomposability graph I(G) is the symmetric graph
on the same vertices with an edge {x, y} exactly when deleting both leaves an
indecomposable graph.  The shape of I(G) (cycle, path, starred tree, or an
isolated leftover vertex) is what the classifier keys on, so this module also
carries a small symmetric-graph type and a shape recognizer.  The type's
cached adjacency is the only one: support and recognize_shape traverse it,
and one walk lays every shape out as chains of consecutive vertices.

Both deletion sweeps ask modular's memo.  The pairwise sweep reads the
interval witness of each one-vertex deletion back from it and tests a
critical vertex only against the partners that witness leaves open, at most
two from order 5 on, plus every pair of noncritical vertices, instead of
all n(n - 1)/2 pairs.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import Digraph, DigraphError, _endpoints, _order, bits_of
from .modular import _interval_witness, _is_interval_mask, _prime_mask


@dataclass(frozen=True)
class CriticalityReport:
    """Partition of the vertices of an indecomposable digraph."""

    critical: tuple
    noncritical: tuple
    defect: int


@dataclass(frozen=True)
class SymGraph:
    """Loop-free symmetric graph; edges are sorted vertex pairs, and
    neighbors(v) reads an adjacency built once, on first use."""

    n: int
    edges: frozenset

    def has_edge(self, x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in self.edges

    @functools.cached_property
    def _adjacency(self) -> dict:
        adj: dict = {}
        for a, b in self.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def neighbors(self, v: int) -> tuple:
        return self._adjacency.get(v, ())

    def components(self) -> list:
        seen = set()
        comps = []
        for start in range(self.n):
            if start not in seen:
                comp = _reach(self.neighbors, start)
                seen |= comp
                comps.append(tuple(sorted(comp)))
        return comps


def _reach(neighbors: Callable[[int], Iterable[int]], start: int) -> set:
    """The vertices reachable from start along neighbors."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def make_symgraph(n: int, edges: Iterable[tuple[int, int]]) -> SymGraph:
    """Build a symmetric graph, validating the order and every edge."""
    n = _order(n)
    if n < 0:
        raise DigraphError(f"negative order {n}")
    norm = set()
    for edge in edges:
        x, y = _endpoints(edge, "edge")
        if x == y:
            raise DigraphError(f"loop edge ({x}, {y}) not allowed")
        if not (0 <= x < n and 0 <= y < n):
            raise DigraphError(f"edge ({x}, {y}) out of range for order {n}")
        norm.add((min(x, y), max(x, y)))
    return SymGraph(n, frozenset(norm))


@dataclass(frozen=True)
class SupportResult:
    """Where the non-singleton structure of a symmetric graph lives.

    component is the unique connected component of size >= 2 when exactly
    one exists, else None; big_components lists them all so a caller can see
    a multiplicity problem; isolated lists the degree-0 vertices.
    """

    component: Optional[tuple]
    isolated: tuple
    big_components: tuple


@dataclass(frozen=True)
class ShapeDescriptor:
    """Recognized form of a symmetric graph, with the witnessing layout.

    kind is one of 'path', 'cycle', 'star_tree', 'edgeless', 'other'.
    vertices lists a realization: endpoint-to-endpoint for paths, the cycle
    starting at its smallest vertex toward its smaller neighbor, or the
    source followed by each branch (sorted by length then content).
    """

    kind: str
    vertices: tuple
    path_edges: Optional[int] = None
    cycle_vertices: Optional[int] = None
    source: Optional[int] = None
    branch_lengths: Optional[tuple] = None


# -- criticality ----------------------------------------------------------------


def critical_vertices(g: Digraph) -> CriticalityReport:
    """Single-vertex deletion sweep over an indecomposable digraph."""
    full = (1 << g.n) - 1
    out, inn = g.out_rows, g.in_rows
    if not _prime_mask(out, inn, full):
        raise DigraphError("critical_vertices: graph is decomposable")
    crit, noncrit = [], []
    for x in range(g.n):
        if _prime_mask(out, inn, full ^ (1 << x)):
            noncrit.append(x)
        else:
            crit.append(x)
    return CriticalityReport(
        critical=tuple(crit), noncritical=tuple(noncrit), defect=len(noncrit)
    )


def indecomposability_graph(g: Digraph) -> SymGraph:
    """Symmetric graph with {x, y} an edge iff deleting both keeps the rest
    indecomposable.  Needs an indecomposable input of order >= 4.

    Only candidate pairs are tested.  When G - x has a nontrivial interval
    I (its witness), I minus y is an interval of G - {x, y}, nontrivial
    unless |I| = 2 and y is in I, or |I| = n - 2 and y is the one vertex
    outside I and x.  So a critical x is tested against at most two
    vertices (three at order 4), and two noncritical vertices always.
    """
    if g.n < 4:
        raise DigraphError("indecomposability_graph: need order >= 4")
    out, inn = g.out_rows, g.in_rows
    full = (1 << g.n) - 1
    if not _prime_mask(out, inn, full):
        raise DigraphError("indecomposability_graph: graph is decomposable")
    candidates = set()
    noncritical = []
    for x in range(g.n):
        rest = full ^ (1 << x)
        witness = _interval_witness(out, inn, rest)
        if not witness:
            noncritical.append(x)
            continue
        size = witness.bit_count()
        partners = (witness if size == 2 else 0) | (
            rest ^ witness if size == g.n - 2 else 0)
        candidates.update((min(x, y), max(x, y)) for y in bits_of(partners))
    candidates.update(itertools.combinations(noncritical, 2))
    edges = frozenset(
        (x, y) for x, y in candidates
        if _prime_mask(out, inn, full ^ (1 << x) ^ (1 << y))
    )
    return SymGraph(g.n, edges)


def support(ig: SymGraph) -> SupportResult:
    """The unique component of size >= 2, if there is exactly one."""
    comps = ig.components()
    big = tuple(c for c in comps if len(c) >= 2)
    isolated = tuple(
        v for c in comps if len(c) == 1 for v in c
    )
    component = big[0] if len(big) == 1 else None
    return SupportResult(
        component=component, isolated=isolated, big_components=big
    )


# -- shape recognition --------------------------------------------------------------


def recognize_shape(
    ig: SymGraph, restricted_to: Optional[Iterable[int]] = None
) -> ShapeDescriptor:
    """Classify a symmetric graph (or the part induced on restricted_to).

    Recognizes exact paths, cycles, and starred trees (one vertex of degree
    >= 3, every other vertex of degree <= 2); anything else is 'edgeless'
    (no edges at all) or 'other'.  Reads ig.neighbors, filtered to the
    restricted vertices, and lays each kind out by walk.
    """
    if restricted_to is None:
        verts = list(range(ig.n))
    else:
        try:
            verts = sorted(set(map(operator.index, restricted_to)))
        except TypeError:
            raise DigraphError("recognize_shape: vertices must be integers") from None
        if verts and not (0 <= verts[0] and verts[-1] < ig.n):
            raise DigraphError("recognize_shape: vertex out of range")
    inside = set(verts)

    def nbrs(v: int) -> list:
        return [w for w in ig.neighbors(v) if w in inside]

    deg = {v: len(nbrs(v)) for v in verts}
    m = sum(deg.values()) // 2
    if not m:
        return ShapeDescriptor(kind="edgeless", vertices=tuple(verts))
    n = len(verts)
    if len(_reach(nbrs, verts[0])) != n:
        return ShapeDescriptor(kind="other", vertices=tuple(verts))

    def walk(start: int, first: int) -> tuple:
        # start, then on from first through degree-2 vertices, up to a
        # vertex of another degree or back to start (not repeated)
        chain = [start]
        prev, cur = start, first
        while cur != start:
            chain.append(cur)
            if deg[cur] != 2:
                break
            a, b = nbrs(cur)
            prev, cur = cur, a if a != prev else b
        return tuple(chain)

    high = [v for v in verts if deg[v] >= 3]
    if all(d == 2 for d in deg.values()):
        cycle = walk(verts[0], nbrs(verts[0])[0])
        return ShapeDescriptor(kind="cycle", vertices=cycle, cycle_vertices=n)
    if m == n - 1 and not high:
        start = min(v for v in verts if deg[v] == 1)
        path = walk(start, nbrs(start)[0])
        return ShapeDescriptor(kind="path", vertices=path, path_edges=m)
    if m == n - 1 and len(high) == 1:
        source = high[0]
        branches = sorted(
            (walk(source, u)[1:] for u in nbrs(source)),
            key=lambda b: (len(b), b),
        )
        return ShapeDescriptor(
            kind="star_tree",
            vertices=(source,) + tuple(v for b in branches for v in b),
            source=source,
            branch_lengths=tuple(map(len, branches)),
        )
    return ShapeDescriptor(kind="other", vertices=tuple(verts))


def shape_edges(shape: ShapeDescriptor) -> frozenset:
    """Edge set laid out by a path/cycle/star_tree/edgeless descriptor.

    Inverts recognize_shape: feeding the result back through make_symgraph
    and recognize_shape reproduces the descriptor.  Every kind is a list of
    chains of consecutive vertices: a path is one chain, a cycle one chain
    closed on its first vertex, and a starred tree one chain per branch,
    each starting at the source.  'other' descriptors do not carry a layout
    and are rejected.
    """
    vs = shape.vertices
    if shape.kind == "edgeless":
        chains = []
    elif shape.kind == "path":
        chains = [vs]
    elif shape.kind == "cycle":
        chains = [vs + vs[:1]]
    elif shape.kind == "star_tree":
        ends = list(itertools.accumulate(shape.branch_lengths, initial=1))
        chains = [vs[:1] + vs[i:j] for i, j in zip(ends, ends[1:])]
    else:
        raise DigraphError(f"shape_edges: no layout for kind {shape.kind!r}")
    return frozenset(
        (min(a, b), max(a, b)) for c in chains for a, b in zip(c, c[1:])
    )


# -- forced intervals around critical vertices -----------------------------------------


def check_lemma21(g: Digraph) -> dict:
    """Per critical vertex: degree in I(G) at most 2, and the deletion
    graph decomposes around the neighbors.

    Degree 1 with neighbor y forces everything except {x, y} to be an
    interval once x is gone; degree 2 with neighbors {y, z} forces {y, z}
    itself.  Reads the critical vertices from critical_vertices and I(G)
    from indecomposability_graph, whose DigraphError a decomposable input
    raises.  That sweep tests a critical vertex only against the at most
    two partners its witness allows from order 5 on, so the degree test
    holds by construction here; the kernel's critical-vertex audit, which
    tests every pair, checks it independently.  Returns {critical vertex:
    bool}; needs an indecomposable input of order >= 5.
    """
    if g.n < 5:
        raise DigraphError("check_lemma21: need order >= 5")
    critical = critical_vertices(g).critical
    ig = indecomposability_graph(g)
    out, inn = g.out_rows, g.in_rows
    full = (1 << g.n) - 1
    results: dict = {}
    for x in critical:
        around = ig.neighbors(x)
        universe = full ^ (1 << x)
        if len(around) > 2:
            results[x] = False
        elif len(around) == 1:
            claim = universe ^ (1 << around[0])
            results[x] = _is_interval_mask(out, inn, claim, universe)
        elif len(around) == 2:
            claim = (1 << around[0]) | (1 << around[1])
            results[x] = _is_interval_mask(out, inn, claim, universe)
        else:
            results[x] = True
    return results
