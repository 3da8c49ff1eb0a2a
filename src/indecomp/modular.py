"""Intervals, indecomposability, and the outside-vertex partition.

A subset X of the vertices is an interval when every outside vertex relates
to all of X with a single pair type.  The empty set, singletons, and the full
vertex set are always intervals (the trivial ones); a digraph whose only
intervals are trivial is indecomposable.

Two routes to indecomposability live here on purpose.  nontrivial_intervals
enumerates candidate subsets and tests the definition pair by pair; it is the
slow reference oracle.  is_indecomposable runs a two-pivot test over bit
masks instead: with a and b the two lowest vertices, one splitter closure of
{a, b} catches every interval holding both, and a partition refinement from
a (from b) catches every interval avoiding a (holding a but not b), after
Ehrenfeucht, Gabow, McConnell & Sullivan (J. Algorithms 16, 1994).  The test
suite holds one route against the other.

Every primality question on the two-pivot route goes through
_interval_witness, which answers 0 for an indecomposable universe and
otherwise returns a nontrivial interval that the test found on the way: the
proper closure of {a, b}, or a class a refinement could not split.
_prime_mask is its negation.  One bounded memo, keyed on (out rows, in rows,
universe), holds the witnesses.  The rows identify the graph, so a subgraph
asked about by several audits of the same graph (the partition, the
extension rules, the two-vertex extension, the deletion sweeps) is decided
once, and the pairwise deletion sweep reads the one-vertex deletions'
witnesses back from the memo.  The bound, PRIME_MEMO_SIZE, holds the whole
working set of one graph; entries of earlier graphs age out.  The oracle
does not go through the memo.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import Digraph, DigraphError, bits_of, mask_of, pair_type

# nontrivial_intervals enumerates all 2^n subsets; keep that honest.
SUBSET_ORACLE_BOUND = 12

# Entries of the _interval_witness memo.  It must hold the largest per-graph
# working set, or a graph's own audits evict each other's answers: the
# per-graph audit routines on one order-12 graph touch about 2.5k distinct
# universes.
PRIME_MEMO_SIZE = 1 << 12


class TheoremViolation(Exception):
    """A structural guarantee failed on a graph that was promised to have it.

    Raised by the audit helpers when a computed fact contradicts what the
    characterization machinery asserts must hold.  Carries the graph and a
    context dict naming exactly what broke.
    """

    def __init__(self, message: str, graph: Optional[Digraph] = None, context=None):
        super().__init__(message)
        self.graph = graph
        self.context = dict(context or {})


# -- reference oracle ----------------------------------------------------------


def nontrivial_intervals(g: Digraph) -> list:
    """All intervals of size 2..n-1, by brute-force subset enumeration.

    Deliberately implemented straight from the definition (per-pair type
    comparisons, no bit tricks) so it can serve as an independent oracle.
    Sorted by (size, vertex tuple).  Bounded to keep runtimes sane.
    """
    n = g.n
    if n > SUBSET_ORACLE_BOUND:
        raise DigraphError(
            f"nontrivial_intervals: order {n} above bound {SUBSET_ORACLE_BOUND}"
        )
    found = []
    for size in range(2, n):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            ok = True
            for z in range(n):
                if z in inside:
                    continue
                types = {pair_type(g, z, v) for v in subset}
                if len(types) > 1:
                    ok = False
                    break
            if ok:
                found.append(subset)
    return found


# -- mask-level workers ----------------------------------------------------------
# These run in the parent graph's index space: a subgraph is just a universe
# mask, so hot loops never relabel vertices.


def _is_interval_mask(out, inn, tmask: int, universe: int) -> bool:
    rest = universe & ~tmask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        o = out[v] & tmask
        if o and o != tmask:
            return False
        i = inn[v] & tmask
        if i and i != tmask:
            return False
        rest ^= low
    return True


def _closure_mask(out, inn, seed: int, universe: int) -> int:
    """Smallest interval of the subgraph on `universe` containing `seed`.

    Grows the seed by all current splitters each round.  Every splitter of
    the working set lies in every interval containing it, so batch growth is
    safe and the fixed point is the minimal interval.
    """
    m = seed & universe
    while True:
        add = 0
        rest = universe & ~m
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            o = out[v] & m
            i = inn[v] & m
            if (o and o != m) or (i and i != m):
                add |= low
            rest ^= low
        if not add:
            return m
        m |= add


def _refinement_witness(out, inn, pivot: int, universe: int) -> int:
    """Refine the rest of `universe` from the vertex whose bit is `pivot`:
    0 when it ends in singletons, else the first class left, a nontrivial
    interval avoiding `pivot`.

    Each pivot v splits every class not holding v by the pair type of its
    members to v, and every vertex of a class that splits becomes a pivot
    again.  An interval avoiding `pivot` is never split, and when the
    pivots run out every class left is such an interval, so the run ends
    in singletons exactly when no nontrivial interval avoids `pivot`.
    Singleton classes are dropped once made; their vertices still act as
    pivots.
    """
    classes = [universe ^ pivot]
    pending = pivot
    while pending:
        low = pending & -pending
        pending ^= low
        v = low.bit_length() - 1
        o, i = out[v], inn[v]
        kept = []
        for c in classes:
            co, ci = c & o, c & i
            if c & low or (not co or co == c) and (not ci or ci == c):
                kept.append(c)
                continue
            pending |= c
            for part in (co & ci, co & ~ci, ci & ~co, c & ~(o | i)):
                if part & (part - 1):
                    kept.append(part)
        if not kept:
            return 0
        classes = kept
    return classes[0]


@functools.lru_cache(maxsize=PRIME_MEMO_SIZE)
def _interval_witness(out: tuple, inn: tuple, universe: int) -> int:
    """0 when the subgraph induced on `universe` is indecomposable, else
    the mask of one of its nontrivial intervals.

    Two-pivot test, with a and b the two lowest vertices: a nontrivial
    interval holding both keeps the closure of {a, b} proper, one avoiding
    a survives the refinement from a, and one holding a but not b survives
    the refinement from b.  The closure runs first, so most decomposable
    universes exit after it, with the closure as their witness; otherwise
    the witness is the first class a refinement leaves.  Answers are
    memoized on (out, inn, universe), so the rows must be tuples; the memo
    keeps the PRIME_MEMO_SIZE most recently used entries across graphs.
    """
    if universe.bit_count() < 3:
        return 0
    a = universe & -universe
    b = (universe ^ a) & -(universe ^ a)
    closure = _closure_mask(out, inn, a | b, universe)
    if closure != universe:
        return closure
    return (_refinement_witness(out, inn, a, universe)
            or _refinement_witness(out, inn, b, universe))


def _prime_mask(out: tuple, inn: tuple, universe: int) -> bool:
    """Is the subgraph induced on `universe` indecomposable?  The negation
    of _interval_witness, whose memo cache_info and cache_clear expose."""
    return not _interval_witness(out, inn, universe)


_prime_mask.cache_info = _interval_witness.cache_info
_prime_mask.cache_clear = _interval_witness.cache_clear


# -- public interval operations ---------------------------------------------------


def is_interval(g: Digraph, xs: Iterable[int]) -> bool:
    """True iff every outside vertex is homogeneous to xs."""
    m = mask_of(xs)
    full = (1 << g.n) - 1
    if m & ~full:
        raise DigraphError("is_interval: vertex out of range")
    return _is_interval_mask(g.out_rows, g.in_rows, m, full)


def minimal_interval_containing(g: Digraph, xs: Iterable[int]) -> frozenset:
    """Smallest interval containing xs (intervals are closed under this)."""
    m = mask_of(xs)
    full = (1 << g.n) - 1
    if m & ~full:
        raise DigraphError("minimal_interval_containing: vertex out of range")
    return frozenset(bits_of(_closure_mask(g.out_rows, g.in_rows, m, full)))


def is_indecomposable(g: Digraph) -> bool:
    """Two-pivot route: one closure and two partition refinements (see
    _interval_witness); orders 0..2 count as indecomposable."""
    return _prime_mask(g.out_rows, g.in_rows, (1 << g.n) - 1)


# -- the partition of outside vertices ----------------------------------------------


@dataclass(frozen=True)
class OutsidePartition:
    """How each vertex outside an indecomposable subgraph relates to it.

    With X the subset, every outside x lands in exactly one class:
    `bracket` (x sees all of X one way, so X stays an interval when x is
    added), `cells[u]` for an anchor u in X (x is a twin of u: {u, x} is an
    interval of the extension), or `ext` (the extension by x is itself
    indecomposable).
    """

    subset: tuple
    bracket: tuple
    cells: dict = field(compare=False)
    ext: tuple

    def class_of(self, x: int):
        """('bracket',) / ('cell', u) / ('ext',) for an outside vertex."""
        if x in self.bracket:
            return ("bracket",)
        for u, members in self.cells.items():
            if x in members:
                return ("cell", u)
        if x in self.ext:
            return ("ext",)
        raise DigraphError(f"vertex {x} not outside {self.subset}")


def _anchor_matches(out, inn, xmask: int, x: int) -> list:
    """Vertices u of X (ascending) with x a twin of u over X: every z in X
    other than u relates to x as it relates to u.  Bit z of out[u] and
    in[u] gives the type of (z, u), so that is one mask test per u."""
    anchors = []
    rest = xmask
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if not ((out[u] ^ out[x]) | (inn[u] ^ inn[x])) & (xmask ^ low):
            anchors.append(u)
        rest ^= low
    return anchors


def outside_partition(g: Digraph, xs: Iterable[int]) -> OutsidePartition:
    """Classify every vertex outside xs; raises TheoremViolation if any
    vertex lands in zero or several classes (guaranteed impossible when
    the induced subgraph really is indecomposable)."""
    subset = tuple(sorted(set(xs)))
    if len(subset) < 3:
        raise DigraphError("outside_partition: need a subset of size >= 3")
    xmask = mask_of(subset)
    full = (1 << g.n) - 1
    if xmask & ~full:
        raise DigraphError("outside_partition: vertex out of range")
    out, inn = g.out_rows, g.in_rows
    if not _prime_mask(out, inn, xmask):
        raise DigraphError("outside_partition: induced subgraph is decomposable")
    bracket = []
    cells: dict = {u: [] for u in subset}
    ext = []
    for x in range(g.n):
        if xmask >> x & 1:
            continue
        ox = out[x] & xmask
        ix = inn[x] & xmask
        in_bracket = (ox == 0 or ox == xmask) and (ix == 0 or ix == xmask)
        anchors = _anchor_matches(out, inn, xmask, x)
        in_ext = _prime_mask(out, inn, xmask | (1 << x))
        hits = int(in_bracket) + len(anchors) + int(in_ext)
        if hits != 1:
            raise TheoremViolation(
                f"outside vertex {x} lies in {hits} classes, expected 1",
                graph=g,
                context={
                    "subset": subset,
                    "vertex": x,
                    "bracket": in_bracket,
                    "anchors": tuple(anchors),
                    "ext": in_ext,
                },
            )
        if in_bracket:
            bracket.append(x)
        elif anchors:
            cells[anchors[0]].append(x)
        else:
            ext.append(x)
    return OutsidePartition(
        subset=subset,
        bracket=tuple(bracket),
        cells={u: tuple(v) for u, v in cells.items()},
        ext=tuple(ext),
    )


def check_outside_rules(g: Digraph, part: OutsidePartition) -> int:
    """Audit the pairwise extension rules over a partition of g.

    `part` is what outside_partition(g, X) returned.  For x, y outside the
    subset X, whenever the extension by both stays decomposable the
    decomposition is pinned down:

      * x in a cell of u, y anywhere else outside: {u, x} is an interval of
        the two-vertex extension;
      * x in the bracket, y anywhere else outside: X + {y} is an interval;
      * x, y both in ext: {x, y} is an interval.

    Returns the number of implications whose hypothesis fired.  Raises
    TheoremViolation on the first conclusion that fails.
    """
    if not isinstance(part, OutsidePartition):
        raise DigraphError("check_outside_rules: pass the OutsidePartition "
                           "returned by outside_partition")
    out, inn = g.out_rows, g.in_rows
    xmask = mask_of(part.subset)
    checked = 0

    def fail(rule, x, y, claim):
        raise TheoremViolation(
            f"extension rule '{rule}' failed for pair ({x}, {y})",
            graph=g,
            context={"subset": part.subset, "rule": rule, "pair": (x, y),
                     "claimed_interval": tuple(sorted(bits_of(claim)))},
        )

    outside = [v for v in range(g.n) if not (xmask >> v & 1)]
    for u, members in part.cells.items():
        for x in members:
            for y in outside:
                if y == x or y in members:
                    continue
                uni = xmask | (1 << x) | (1 << y)
                if not _prime_mask(out, inn, uni):
                    checked += 1
                    claim = (1 << u) | (1 << x)
                    if not _is_interval_mask(out, inn, claim, uni):
                        fail("twin-cell", x, y, claim)
    for x in part.bracket:
        for y in outside:
            if y == x or y in part.bracket:
                continue
            uni = xmask | (1 << x) | (1 << y)
            if not _prime_mask(out, inn, uni):
                checked += 1
                claim = xmask | (1 << y)
                if not _is_interval_mask(out, inn, claim, uni):
                    fail("bracket", x, y, claim)
    for x, y in itertools.combinations(part.ext, 2):
        uni = xmask | (1 << x) | (1 << y)
        if not _prime_mask(out, inn, uni):
            checked += 1
            claim = (1 << x) | (1 << y)
            if not _is_interval_mask(out, inn, claim, uni):
                fail("ext-pair", x, y, claim)
    return checked


# -- growth lemmas -----------------------------------------------------------------


def extend_by_two(g: Digraph, xs: Iterable[int]) -> tuple[int, int]:
    """Lexicographically least pair x < y outside xs whose joint addition
    keeps the induced subgraph indecomposable.

    Defined whenever the whole graph is indecomposable, the subset induces
    an indecomposable subgraph of size >= 3, and at least two vertices are
    outside.  Raises TheoremViolation if no pair works on a graph meeting
    those conditions.
    """
    subset = tuple(sorted(set(xs)))
    if len(subset) < 3:
        raise DigraphError("extend_by_two: need a subset of size >= 3")
    xmask = mask_of(subset)
    full = (1 << g.n) - 1
    if xmask & ~full:
        raise DigraphError("extend_by_two: vertex out of range")
    if g.n - len(subset) < 2:
        raise DigraphError("extend_by_two: need two vertices outside the subset")
    out, inn = g.out_rows, g.in_rows
    if not _prime_mask(out, inn, xmask):
        raise DigraphError("extend_by_two: induced subgraph is decomposable")
    outside = [v for v in range(g.n) if not (xmask >> v & 1)]
    for x, y in itertools.combinations(outside, 2):
        if _prime_mask(out, inn, xmask | (1 << x) | (1 << y)):
            return (x, y)
    if not _prime_mask(out, inn, full):
        raise DigraphError("extend_by_two: whole graph is decomposable")
    raise TheoremViolation(
        "no two-vertex extension stays indecomposable",
        graph=g,
        context={"subset": subset},
    )


def small_indecomposable_around(g: Digraph, a: int) -> tuple:
    """A 4- or 5-vertex subset containing `a` inducing an indecomposable
    subgraph, for an indecomposable graph of order >= 5.

    Size 4 is searched first, then size 5, each in lexicographic order of
    the companion vertices; at order 5 the full vertex set is a valid
    answer.  Raises TheoremViolation if nothing is found on a graph meeting
    the preconditions.
    """
    if not (0 <= a < g.n):
        raise DigraphError(f"vertex {a} out of range")
    if g.n < 5:
        raise DigraphError("small_indecomposable_around: need order >= 5")
    out, inn = g.out_rows, g.in_rows
    others = [v for v in range(g.n) if v != a]
    abit = 1 << a
    for size in (3, 4):
        for rest in itertools.combinations(others, size):
            if _prime_mask(out, inn, abit | mask_of(rest)):
                return tuple(sorted((a,) + rest))
    if not _prime_mask(out, inn, (1 << g.n) - 1):
        raise DigraphError("small_indecomposable_around: graph is decomposable")
    raise TheoremViolation(
        f"no small indecomposable subgraph around vertex {a}",
        graph=g,
        context={"vertex": a},
    )
