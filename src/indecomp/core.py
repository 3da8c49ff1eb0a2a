"""Bit-matrix digraphs with four-valued pair types.

A digraph lives on vertices 0..n-1 with arcs as ordered pairs of distinct
vertices (no loops).  Every ordered pair (x, y) carries one of four relation
types: forward arc only, backward arc only, both arcs (mutual), or no arc
(absent).  Nearly every algorithm in this package looks at pairs only through
that lens, so the representation keeps two bit matrices (out-rows and in-rows
as python ints): pair-type lookup is O(1) and homogeneity of a vertex against
a whole set is a couple of word operations.

Isomorphism goes through one search.  The canonical search finds the least
pair-type matrix over the vertex orderings that colour refinement allows
and caches it on the graph with the ordering that spells it.  Refinement
counts a vertex's neighbours of each pair type in each colour class as
popcounts of per-type bit masks.  Two leaves spelling the same matrix give
an automorphism, and a subtree that the automorphisms found so far map
onto an explored one is skipped (McKay and Piperno, J. Symb. Comput. 60,
2014), so symmetric inputs such as stars with equal branches or
vertex-transitive tournaments cost a few leaves per orbit instead of one
per ordering.
canonical_code returns that matrix as bytes, up to CANONICAL_BOUND;
find_isomorphism maps the i-th vertex of one graph's ordering to the i-th
of the other's when the two codes agree, at any order.
"""

from __future__ import annotations

import itertools
import operator
from enum import IntEnum
from typing import Iterable, Iterator, Optional, Sequence


class DigraphError(ValueError):
    """Bad construction input (vertex out of range, loop arc, ...)."""


class DgFormatError(DigraphError):
    """Malformed .dg text."""


class CanonicalBoundError(DigraphError):
    """canonical_code called above CANONICAL_BOUND."""


class PairType(IntEnum):
    """Relation of an ordered pair (x, y)."""

    ABSENT = 0    # no arc either way
    FORWARD = 1   # arc (x, y) only
    BACKWARD = 2  # arc (y, x) only
    MUTUAL = 3    # both arcs

    def reverse(self) -> "PairType":
        """Type of (y, x) given the type of (x, y)."""
        if self is PairType.FORWARD:
            return PairType.BACKWARD
        if self is PairType.BACKWARD:
            return PairType.FORWARD
        return self


FORWARD = PairType.FORWARD
BACKWARD = PairType.BACKWARD
MUTUAL = PairType.MUTUAL
ABSENT = PairType.ABSENT
# the members in value order, so that _PAIR_TYPES[v] is PairType(v) without
# the enum call
_PAIR_TYPES = tuple(PairType)

# Order bound of canonical_code.
CANONICAL_BOUND = 16


class Digraph:
    """Immutable digraph on vertices 0..n-1 backed by two bit matrices.

    out_rows[i] has bit j set iff the arc (i, j) is present; in_rows[i] has
    bit j set iff (j, i) is present.  Instances hash and compare by the
    labelled arc set, not up to isomorphism.
    """

    __slots__ = ("n", "out_rows", "in_rows", "_canon")

    def __init__(self, n: int, out_rows: Sequence[int]):
        self.n = n = _order(n)
        try:
            self.out_rows = tuple(map(operator.index, out_rows))
        except TypeError:
            raise DigraphError("rows must be integers") from None
        if n < 0 or len(self.out_rows) != n:
            raise DigraphError(f"{len(self.out_rows)} rows for order {n}")
        in_rows = [0] * n
        for i, row in enumerate(self.out_rows):
            if row >> n or row >> i & 1:
                raise DigraphError(f"row {i}: arc out of range or loop arc")
            j = row
            while j:
                low = j & -j
                in_rows[low.bit_length() - 1] |= 1 << i
                j ^= low
        self.in_rows = tuple(in_rows)
        self._canon: Optional[tuple[bytes, bytes]] = None

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return self.n

    def has_arc(self, x: int, y: int) -> bool:
        if not 0 <= x < self.n > y >= 0:
            raise DigraphError(f"has_arc: ({x}, {y}) out of range for order {self.n}")
        return bool(self.out_rows[x] >> y & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            row = self.out_rows[x]
            for y in range(self.n):
                if row >> y & 1:
                    yield (x, y)

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out_rows)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_rows == other.out_rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out_rows))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs())})"

    def type_matrix(self) -> list:
        """n x n list of PairType values (diagonal ABSENT, never read),
        built afresh on each call."""
        n = self.n
        out = self.out_rows
        inn = self.in_rows
        mat = []
        for x in range(n):
            ox, ix = out[x], inn[x]
            mat.append([((ox >> y & 1) | ((ix >> y & 1) << 1)) for y in range(n)])
        return mat


def _order(n) -> int:
    """n as an int (numpy integers included); DigraphError if it is not one."""
    try:
        return operator.index(n)
    except TypeError:
        raise DigraphError(f"order must be an integer, not {n!r}") from None


def _endpoints(pair, what: str) -> tuple[int, int]:
    """pair as two ints (numpy integers included); DigraphError if it is
    not a pair of integers."""
    try:
        x, y = pair
        return operator.index(x), operator.index(y)
    except (TypeError, ValueError):
        raise DigraphError(f"{what} {pair!r} is not a pair of integers") from None


def make_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph, validating every arc."""
    n = _order(n)
    if n < 0:
        raise DigraphError(f"negative order {n}")
    rows = [0] * n
    for arc in arcs:
        x, y = _endpoints(arc, "arc")
        if not (0 <= x < n and 0 <= y < n):
            raise DigraphError(f"arc ({x}, {y}) out of range for order {n}")
        if x == y:
            raise DigraphError(f"loop arc ({x}, {y}) not allowed")
        rows[x] |= 1 << y
    return Digraph(n, rows)


# PairType value -> (arc x->y, arc y->x) bits of the pair (x, y).
_PAIR_ARCS = {ABSENT: (0, 0), FORWARD: (1, 0), BACKWARD: (0, 1), MUTUAL: (1, 1)}


def from_pair_types(n: int, types) -> Digraph:
    """Build from a mapping {(x, y): PairType or its int value} over pairs
    with x < y.

    Pairs missing from the mapping are ABSENT.
    """
    n = _order(n)
    rows = [0] * n
    for pair, t in types.items():
        x, y = _endpoints(pair, "pair")
        if not (0 <= x < y < n):
            raise DigraphError(f"pair ({x}, {y}) must satisfy x < y < n")
        arcs = _PAIR_ARCS.get(t)
        if arcs is None:
            raise DigraphError(f"pair ({x}, {y}): {t!r} is not a pair type")
        rows[x] |= arcs[0] << y
        rows[y] |= arcs[1] << x
    return Digraph(n, rows)


# -- pair relations ---------------------------------------------------------


def pair_type(g: Digraph, x: int, y: int) -> PairType:
    """Relation of the ordered pair (x, y)."""
    if x == y:
        raise DigraphError("pair_type needs two distinct vertices")
    if not 0 <= x < g.n > y >= 0:
        raise DigraphError(f"pair_type: ({x}, {y}) out of range for order {g.n}")
    a = g.out_rows[x] >> y & 1
    b = g.in_rows[x] >> y & 1
    return _PAIR_TYPES[a | (b << 1)]


def pairs_equivalent(
    g: Digraph, p: tuple[int, int], q: tuple[int, int]
) -> bool:
    """True iff the two ordered pairs carry the same relation type."""
    return pair_type(g, *p) == pair_type(g, *q)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        if v < 0:
            raise DigraphError(f"negative vertex {v}")
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def homogeneous(g: Digraph, x: int, ys: Iterable[int]) -> bool:
    """True iff every ordered pair (x, y) for y in ys has one common type."""
    m = mask_of(ys)
    if not 0 <= x < g.n or m >> g.n:
        raise DigraphError(f"homogeneous: vertex out of range for order {g.n}")
    if m >> x & 1:
        raise DigraphError("homogeneous: x must lie outside ys")
    o = g.out_rows[x] & m
    i = g.in_rows[x] & m
    return (o == 0 or o == m) and (i == 0 or i == m)


# -- derived graphs ----------------------------------------------------------


def complement(g: Digraph) -> Digraph:
    """Flip every off-diagonal arc bit."""
    n = g.n
    full = (1 << n) - 1
    return Digraph(n, [(~row & full) & ~(1 << i) for i, row in enumerate(g.out_rows)])


def dual(g: Digraph) -> Digraph:
    """Reverse every arc."""
    return Digraph(g.n, g.in_rows)


def induced(g: Digraph, vertices: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabelled densely.

    Returns (subgraph, originals) where subgraph vertex i corresponds to
    originals[i] (ascending original ids).
    """
    verts = sorted(set(vertices))
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise DigraphError("induced: vertex out of range")
    rows = []
    for v in verts:
        row = 0
        src = g.out_rows[v]
        for j, w in enumerate(verts):
            if src >> w & 1:
                row |= 1 << j
        rows.append(row)
    return Digraph(len(verts), rows), tuple(verts)


def relabel(g: Digraph, perm: Sequence[int]) -> Digraph:
    """Apply a permutation: vertex i of g becomes perm[i] of the result."""
    n = g.n
    if sorted(perm) != list(range(n)):
        raise DigraphError("relabel: not a permutation")
    rows = [0] * n
    for x in range(n):
        src = g.out_rows[x]
        px = perm[x]
        for y in range(n):
            if src >> y & 1:
                rows[px] |= 1 << perm[y]
    return Digraph(n, rows)


# -- isomorphism and canonical codes -----------------------------------------


def _type_masks(g: Digraph) -> list:
    """Per vertex v, the masks of the w != v with pair type (v, w) ABSENT,
    FORWARD, BACKWARD and MUTUAL, indexed by the type's value."""
    full = (1 << g.n) - 1
    masks = []
    for v, (o, i) in enumerate(zip(g.out_rows, g.in_rows)):
        absent = full & ~(o | i) & ~(1 << v)
        masks.append((absent, o & ~i, i & ~o, o & i))
    return masks


def _refine_colors(masks: list, colors: list) -> list:
    """Iterated invariant refinement of a vertex colouring.

    Each round a vertex's signature is its colour plus the multiset of
    (pair type to w, colour of w), counted as popcounts of its type masks
    against each colour class; colours are re-ranked by sorted signature.
    Only tied classes need signatures: ranks go class by class in colour
    order, so a singleton keeps its place.  Stops at a fixed point or a
    discrete colouring.  Deterministic, label-independent.
    """
    n = len(masks)
    while True:
        classes: dict = {}
        for v, c in enumerate(colors):
            classes[c] = classes.get(c, 0) | 1 << v
        keyed = sorted(classes.items())
        new = [0] * n
        rank = 0
        for _, members in keyed:
            if members & (members - 1) == 0:
                new[members.bit_length() - 1] = rank
                rank += 1
                continue
            sigs = {}
            for v in bits_of(members):
                sig = []
                for t, m in enumerate(masks[v]):
                    for c, cm in keyed:
                        if m & cm:
                            sig.append(((t, c), (m & cm).bit_count()))
                            m &= ~cm
                            if not m:
                                break
                sigs[v] = tuple(sig)
            ranking = {s: rank + i for i, s in enumerate(sorted(set(sigs.values())))}
            for v, s in sigs.items():
                new[v] = ranking[s]
            rank += len(ranking)
        if new == colors or rank == n:
            return new
        colors = new


def _individualize(colors: list, v: int) -> list:
    c = colors[v]
    return [
        2 * cw + (1 if (cw == c and w != v) else 0)
        for w, cw in enumerate(colors)
    ]


def _canonical_labelling(g: Digraph) -> tuple[bytes, bytes]:
    """(code, ordering) of g at any order, cached on g: ordering lists g's
    vertices in the order whose pair-type matrix the code spells.

    Minimizes the pair-type matrix over vertex orderings consistent with
    iterated profile refinement, branching on still-tied vertices, and keeps
    the first ordering that realizes the least matrix.  A leaf spelling the
    least matrix found so far gives an automorphism of g, and a child whose
    vertex such automorphisms, fixing the vertices individualized on the way
    to its node, map to an explored sibling is skipped (McKay and Piperno,
    J. Symb. Comput. 60, 2014): its subtree is the image of the sibling's,
    whose orderings come first and spell the same matrices.
    """
    if g._canon is not None:
        return g._canon
    n = g.n
    if n > 255:
        # the code's header byte and the ordering hold one vertex per byte
        raise CanonicalBoundError(f"canonical search: order {n} above 255")
    if n <= 1:
        g._canon = (bytes([n]), bytes(range(n)))
        return g._canon
    full = (1 << n) - 1
    types = g.type_matrix()  # diagonal ABSENT (0): a Digraph has no loops

    def matrix_bytes(order: Sequence[int]) -> bytes:
        pick = operator.itemgetter(*order)
        return bytes([n]) + b"".join(bytes(pick(types[i])) for i in order)

    masks = _type_masks(g)
    if any(
        all(m[t] == full ^ 1 << v for v, m in enumerate(masks)) for t in range(4)
    ):
        # one pair type everywhere: every ordering spells the same matrix
        g._canon = (matrix_bytes(range(n)), bytes(range(n)))
        return g._canon

    best: Optional[bytes] = None
    best_order: Sequence[int] = ()
    automorphisms: list = []  # as lists p with p[best_order[i]] == order[i]

    def search(colors: list, fixed: list) -> None:
        nonlocal best, best_order
        # first colour class (by rank) that is still a tie
        by_color: dict = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        target = None
        for c in sorted(by_color):
            if len(by_color[c]) > 1:
                target = by_color[c]
                break
        if target is None:
            order = sorted(range(n), key=colors.__getitem__)
            cand = matrix_bytes(order)
            if best is None or cand < best:
                best, best_order = cand, order
            elif cand == best:
                p = [0] * n
                for v, w in zip(best_order, order):
                    p[v] = w
                automorphisms.append(p)
            return
        # orbits of the target class under the automorphisms fixing `fixed`
        # (they keep this node's colouring, so they map the class to itself)
        orbit = {v: v for v in target}
        seen = 0
        explored: list = []
        for v in target:
            for p in automorphisms[seen:]:
                if all(p[x] == x for x in fixed):
                    for x in target:
                        a, b = orbit[x], orbit[p[x]]
                        if a != b:
                            for y in target:
                                if orbit[y] == b:
                                    orbit[y] = a
            seen = len(automorphisms)
            if any(orbit[u] == orbit[v] for u in explored):
                continue
            explored.append(v)
            search(_refine_colors(masks, _individualize(colors, v)), fixed + [v])

    search(_refine_colors(masks, [0] * n), [])
    assert best is not None
    g._canon = (best, bytes(best_order))
    return g._canon


def canonical_code(g: Digraph) -> bytes:
    """Canonical byte string: equal codes iff the graphs are isomorphic.

    The least pair-type matrix found by the canonical search, which prunes
    its tree by the automorphisms it finds.  Orders above CANONICAL_BOUND,
    the largest the family enumeration builds, are refused.
    """
    if g.n > CANONICAL_BOUND:
        raise CanonicalBoundError(
            f"canonical_code: order {g.n} above bound {CANONICAL_BOUND}"
        )
    return _canonical_labelling(g)[0]


def find_isomorphism(g: Digraph, h: Digraph) -> Optional[tuple[int, ...]]:
    """Permutation p with relabel(g, p) == h, or None.

    Read off the two graphs' canonical orderings, which the canonical search
    caches on each graph: equal codes map the i-th vertex of g's ordering to
    the i-th of h's.  Not bounded by CANONICAL_BOUND.  The witness is
    re-checked arc for arc.
    """
    if g.n != h.n:
        return None
    code_g, order_g = _canonical_labelling(g)
    code_h, order_h = _canonical_labelling(h)
    if code_g != code_h:
        return None
    mapping = [0] * g.n
    for v, w in zip(order_g, order_h):
        mapping[v] = w
    if relabel(g, mapping) != h:
        return None  # canonical search bug guard; never expected
    return tuple(mapping)


# -- text formats -------------------------------------------------------------


def serialize_dg(g: Digraph) -> str:
    """Adjacency-matrix text: order line, then n rows of n '0'/'1' chars."""
    lines = [str(g.n)]
    for x in range(g.n):
        row = g.out_rows[x]
        lines.append("".join("1" if row >> y & 1 else "0" for y in range(g.n)))
    return "\n".join(lines) + "\n"


def parse_dg(text: str) -> Digraph:
    """Inverse of serialize_dg.  Strict: rejects anything off-format."""
    if not text.endswith("\n"):
        raise DgFormatError("missing final newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise DgFormatError("empty input")
    header = lines[0]
    if not header.isdigit():
        raise DgFormatError(f"malformed header line {header!r}")
    n = int(header)
    body = lines[1:]
    if len(body) != n:
        raise DgFormatError(f"expected {n} rows, got {len(body)}")
    rows = []
    for i, line in enumerate(body):
        if len(line) != n:
            raise DgFormatError(f"row {i}: wrong length {len(line)} (want {n})")
        bad = set(line) - {"0", "1"}
        if bad:
            raise DgFormatError(f"row {i}: invalid characters {sorted(bad)}")
        if line[i] == "1":
            raise DgFormatError(f"row {i}: diagonal bit set")
        rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
    return Digraph(n, rows)


def to_dot(g: Digraph, name: str = "g") -> str:
    """DOT text: one edge per arc-carrying pair, mutual pairs undirected-styled."""
    out = [f"digraph {name} {{"]
    for v in range(g.n):
        out.append(f"  {v};")
    for x, y in itertools.combinations(range(g.n), 2):
        t = pair_type(g, x, y)
        if t is PairType.FORWARD:
            out.append(f"  {x} -> {y};")
        elif t is PairType.BACKWARD:
            out.append(f"  {y} -> {x};")
        elif t is PairType.MUTUAL:
            out.append(f"  {x} -> {y} [dir=none];")
    out.append("}")
    return "\n".join(out) + "\n"
