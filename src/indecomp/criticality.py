"""Critical vertices and the indecomposability graph.

A vertex x of an indecomposable digraph is critical when deleting it leaves a
decomposable graph.  The indecomposability graph I(G) is the symmetric graph
on the same vertices with an edge {x, y} exactly when deleting both leaves an
indecomposable graph.  The shape of I(G) (cycle, path, starred tree, or an
isolated leftover vertex) is what the classifier keys on, so this module also
carries a small symmetric-graph type and a shape recognizer.

Both deletion sweeps ask modular's memo.  The pairwise sweep reads the
interval witness of each one-vertex deletion back from it and tests a
critical vertex only against the partners that witness leaves open, at most
two from order 5 on, plus every pair of noncritical vertices, instead of
all n(n - 1)/2 pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Digraph, DigraphError, bits_of
from .modular import _interval_witness, _is_interval_mask, _prime_mask


@dataclass(frozen=True)
class CriticalityReport:
    """Partition of the vertices of an indecomposable digraph."""

    critical: tuple
    noncritical: tuple
    defect: int


@dataclass(frozen=True)
class SymGraph:
    """Loop-free symmetric graph; edges are sorted vertex pairs."""

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
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps


def make_symgraph(n: int, edges: Iterable[tuple[int, int]]) -> SymGraph:
    norm = set()
    for x, y in edges:
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
    (no edges at all) or 'other'.
    """
    if restricted_to is None:
        verts = list(range(ig.n))
    else:
        verts = sorted(set(restricted_to))
        if verts and not (0 <= verts[0] and verts[-1] < ig.n):
            raise DigraphError("recognize_shape: vertex out of range")
    inside = set(verts)
    edges = [e for e in ig.edges if e[0] in inside and e[1] in inside]
    if not edges:
        return ShapeDescriptor(kind="edgeless", vertices=tuple(verts))

    adj: dict = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    deg = {v: len(adj[v]) for v in verts}

    # connectivity over the restricted vertex set
    stack = [verts[0]]
    seen = {verts[0]}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(verts):
        return ShapeDescriptor(kind="other", vertices=tuple(verts))

    n = len(verts)
    m = len(edges)

    def walk(prev: int, cur: int) -> list:
        # follow degree-2 vertices until a leaf or the high-degree source
        out = [cur]
        while deg[cur] == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            out.append(cur)
        return out

    if all(deg[v] == 2 for v in verts) and m == n and n >= 3:
        start = verts[0]
        cycle = [start]
        prev, cur = start, adj[start][0]
        while cur != start:
            cycle.append(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        assert len(cycle) == n
        return ShapeDescriptor(
            kind="cycle", vertices=tuple(cycle), cycle_vertices=n
        )

    leaves = [v for v in verts if deg[v] == 1]
    high = [v for v in verts if deg[v] >= 3]

    if m == n - 1 and len(leaves) == 2 and not high:
        start = min(leaves)
        seq = [start] + walk(start, adj[start][0])
        assert len(seq) == n
        return ShapeDescriptor(
            kind="path", vertices=tuple(seq), path_edges=m
        )

    if m == n - 1 and len(high) == 1:
        source = high[0]
        branches = sorted(
            (tuple(walk(source, u)) for u in adj[source]),
            key=lambda b: (len(b), b),
        )
        assert sum(len(b) for b in branches) == n - 1
        flat = (source,) + tuple(v for b in branches for v in b)
        return ShapeDescriptor(
            kind="star_tree",
            vertices=flat,
            source=source,
            branch_lengths=tuple(len(b) for b in branches),
        )

    return ShapeDescriptor(kind="other", vertices=tuple(verts))


def shape_edges(shape: ShapeDescriptor) -> frozenset:
    """Edge set laid out by a path/cycle/star_tree/edgeless descriptor.

    Inverts recognize_shape: feeding the result back through make_symgraph
    and recognize_shape reproduces the descriptor.  'other' descriptors do
    not carry a layout and are rejected.
    """
    if shape.kind == "edgeless":
        return frozenset()
    if shape.kind == "path":
        vs = shape.vertices
        return frozenset(
            (min(a, b), max(a, b)) for a, b in zip(vs, vs[1:])
        )
    if shape.kind == "cycle":
        vs = shape.vertices
        hops = list(zip(vs, vs[1:])) + [(vs[-1], vs[0])]
        return frozenset((min(a, b), max(a, b)) for a, b in hops)
    if shape.kind == "star_tree":
        edges = set()
        pos = 1
        for length in shape.branch_lengths:
            prev = shape.source
            for v in shape.vertices[pos:pos + length]:
                edges.add((min(prev, v), max(prev, v)))
                prev = v
            pos += length
        return frozenset(edges)
    raise DigraphError(f"shape_edges: no layout for kind {shape.kind!r}")


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


# -- export -----------------------------------------------------------------------------


def symgraph_to_dot(
    ig: SymGraph, highlight: Optional[int] = None, name: str = "ig"
) -> str:
    """DOT text for a symmetric graph; highlight fills one vertex."""
    out = [f"graph {name} {{"]
    for v in range(ig.n):
        if v == highlight:
            out.append(f"  {v} [style=filled, fillcolor=lightgray];")
        else:
            out.append(f"  {v};")
    for a, b in sorted(ig.edges):
        out.append(f"  {a} -- {b};")
    out.append("}")
    return "\n".join(out) + "\n"
