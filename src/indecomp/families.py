"""Generators for the named digraphs and the parametric defect-one families.

Every enumerator returns FamilyMember records: the built graph plus the
claims made for it (which vertex is the unique noncritical one, and what
the pairwise-deletion graph looks like).  verify_member_claims re-checks
one member's claims against the criticality module, and
enum_family_members(order, checked=True) re-checks a whole order's.

A family parameterization is spelled as a key, its kind followed by the
generator's arguments (_family_keys lists an order's keys).  One table,
_KEY_KINDS, gives each kind its family name, argument checks, generator and
claims, which are written only there.  Every key, from an enumerator,
family_records or the command line, passes those checks and a bound of
MAX_ENUM_ORDER on its claimed order before any shape or candidate is built.
family_records(key) is the one memo per parameterization: its
base members with their complement/dual twins and canonical codes, built
once per process, with an index from code to records (records_by_code).
enum_family_members unions it over an order's keys, and
classifier.match_family reads the index for the keys dispatch_keys looks
up from an observed shape in the table's claims, so members, their params
and the memo's records are shared objects to be treated as read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import (
    ABSENT,
    BACKWARD,
    CANONICAL_BOUND,
    Digraph,
    DigraphError,
    FORWARD,
    MUTUAL,
    PairType,
    canonical_code,
    complement,
    dual,
    from_pair_types,
    make_digraph,
)
from .criticality import (
    ShapeDescriptor,
    critical_vertices,
    indecomposability_graph,
    make_symgraph,
    recognize_shape,
    shape_edges,
    support,
)
from .modular import TheoremViolation, is_indecomposable

# Fixed enumeration orders so that repeated runs list members identically.
ALL_TYPES = (FORWARD, BACKWARD, MUTUAL, ABSENT)
NONEMPTY_TYPES = (FORWARD, BACKWARD, MUTUAL)

TYPE_LETTER = {FORWARD: "F", BACKWARD: "B", MUTUAL: "M", ABSENT: "A"}

# Largest order enum_family_members will expand (canonical codes are exact
# up to this order).
MAX_ENUM_ORDER = CANONICAL_BOUND

FAMILY_R = "gen_R"
FAMILY_H = "gen_H"
FAMILY_F = "class_F"
FAMILY_G = "class_G"
FAMILY_GP = "class_Gprime"
FAMILY_GDP = "class_Gdprime"
FAMILY_STAR_ODD = "hstar_odd"
FAMILY_STAR_EVEN = "hstar_even"

@dataclass(frozen=True)
class FamilyMember:
    """A generated graph together with the structural claims made for it.

    claimed_noncritical is the vertex expected to be the only noncritical
    one (None when no claim is made at this order); claimed_shape describes
    the expected pairwise-deletion graph, laid out on literal vertices, so
    shape_edges(claimed_shape) is its exact claimed edge set (every vertex
    outside it is claimed isolated).
    """

    graph: Digraph
    family: str
    params: dict = field(compare=False)
    claimed_noncritical: Optional[int] = None
    claimed_shape: Optional[ShapeDescriptor] = None


def verify_member_claims(member: FamilyMember) -> None:
    """Re-check a member's claims; raises TheoremViolation on mismatch."""
    g = member.graph
    if not is_indecomposable(g):
        raise TheoremViolation(
            "family member is decomposable",
            graph=g,
            context={"family": member.family, "params": member.params},
        )
    if member.claimed_noncritical is not None:
        report = critical_vertices(g)
        if report.noncritical != (member.claimed_noncritical,):
            raise TheoremViolation(
                "claimed noncritical vertex not matched",
                graph=g,
                context={
                    "family": member.family,
                    "params": member.params,
                    "claimed": member.claimed_noncritical,
                    "found": report.noncritical,
                },
            )
    if member.claimed_shape is not None:
        expected = shape_edges(member.claimed_shape)
        ig = indecomposability_graph(g)
        if ig.edges != expected:
            raise TheoremViolation(
                "claimed pairwise-deletion edges not matched",
                graph=g,
                context={
                    "family": member.family,
                    "params": member.params,
                    "claimed": sorted(expected),
                    "found": sorted(ig.edges),
                },
            )
        sup = support(ig)
        got = recognize_shape(ig, restricted_to=sup.component)
        if got != member.claimed_shape:
            raise TheoremViolation(
                "claimed shape not matched",
                graph=g,
                context={
                    "family": member.family,
                    "params": member.params,
                    "claimed": member.claimed_shape,
                    "found": got,
                },
            )


def _shape_of_edges(n: int, edges: Iterable[tuple[int, int]]) -> ShapeDescriptor:
    """Descriptor of the unique nontrivial component laid out by edges."""
    sym = make_symgraph(n, edges)
    comp = support(sym).component
    return recognize_shape(sym, restricted_to=comp)


# -- named graphs -----------------------------------------------------------------


def gen_T(n: int) -> Digraph:
    """Tournament on 2n+1 vertices: two ascending chains 0..n and n+1..2n,
    with {i+1..n} beating i+n+1 beating {0..i}."""
    if n < 2:
        raise DigraphError("gen_T: need n >= 2")
    arcs = []
    for x in range(n + 1):
        for y in range(x + 1, n + 1):
            arcs.append((x, y))
    for x in range(n + 1, 2 * n + 1):
        for y in range(x + 1, 2 * n + 1):
            arcs.append((x, y))
    for i in range(n):
        j = i + n + 1
        for x in range(i + 1, n + 1):
            arcs.append((x, j))
        for y in range(i + 1):
            arcs.append((j, y))
    return make_digraph(2 * n + 1, arcs)


def gen_U(n: int) -> Digraph:
    """Like gen_T but with the second chain reversed (descending)."""
    if n < 2:
        raise DigraphError("gen_U: need n >= 2")
    arcs = []
    for x in range(n + 1):
        for y in range(x + 1, n + 1):
            arcs.append((x, y))
    for x in range(n + 1, 2 * n + 1):
        for y in range(x + 1, 2 * n + 1):
            arcs.append((y, x))
    for i in range(n):
        j = i + n + 1
        for x in range(i + 1, n + 1):
            arcs.append((x, j))
        for y in range(i + 1):
            arcs.append((j, y))
    return make_digraph(2 * n + 1, arcs)


def gen_V(n: int) -> Digraph:
    """Tournament on 2n+1 vertices: ascending chain 0..2n-1 with the odd
    vertices beating 2n and 2n beating the even ones."""
    if n < 2:
        raise DigraphError("gen_V: need n >= 2")
    arcs = []
    for x in range(2 * n):
        for y in range(x + 1, 2 * n):
            arcs.append((x, y))
    for i in range(n):
        arcs.append((2 * i + 1, 2 * n))
        arcs.append((2 * n, 2 * i))
    return make_digraph(2 * n + 1, arcs)


def gen_R(n: int) -> Digraph:
    """Digraph on 2n+1 vertices: odds beat 2n, 2n beats evens, and for
    x < y below 2n there is an arc (x, y) iff x is odd or y is even."""
    if n < 2:
        raise DigraphError("gen_R: need n >= 2")
    arcs = []
    for x in range(2 * n):
        if x % 2 == 1:
            arcs.append((x, 2 * n))
        else:
            arcs.append((2 * n, x))
    for x in range(2 * n):
        for y in range(x + 1, 2 * n):
            if x % 2 == 1 or y % 2 == 0:
                arcs.append((x, y))
    return make_digraph(2 * n + 1, arcs)


def gen_H(p: int) -> Digraph:
    """Digraph on 2p+1 vertices with arcs (x, y) exactly when x < y with x
    even and y odd, or x > y with x and y of the same parity."""
    if p < 1:
        raise DigraphError("gen_H: need p >= 1")
    arcs = []
    for x in range(2 * p + 1):
        for y in range(2 * p + 1):
            if x == y:
                continue
            if x < y and x % 2 == 0 and y % 2 == 1:
                arcs.append((x, y))
            elif x > y and x % 2 == y % 2:
                arcs.append((x, y))
    return make_digraph(2 * p + 1, arcs)


def gen_Q5() -> Digraph:
    """The 5-vertex symmetric boundary example: five mutual pairs around
    vertex 0, with an edgeless pairwise-deletion graph."""
    pairs = [(0, 1), (0, 2), (0, 4), (2, 4), (3, 4)]
    return from_pair_types(5, {p: MUTUAL for p in pairs})


# -- propagation helpers -----------------------------------------------------------


def _put_ordered(rules: dict, u: int, v: int, t: PairType) -> None:
    """Record the type of the ordered pair (u, v), demanding consistency."""
    if u == v:
        raise DigraphError("rule pair with equal endpoints")
    key = (min(u, v), max(u, v))
    val = t if u < v else t.reverse()
    old = rules.get(key)
    if old is not None and old is not val:
        raise DigraphError(f"conflicting rules for pair {key}")
    rules[key] = val


def _path_edges(count: int) -> Iterator[tuple]:
    return ((i, i + 1) for i in range(count))


# Free types of the extension pairs, by extension size: none, (0a,), (0a, 0b, ba).
_EXTRAS = (
    ((),),
    tuple((t0a,) for t0a in ALL_TYPES),
    tuple(itertools.product(ALL_TYPES, repeat=3)),
)


def _lettered(value):
    """value with every PairType in it, also inside dicts and lists, spelled
    as its TYPE_LETTER."""
    if isinstance(value, PairType):
        return TYPE_LETTER[value]
    if isinstance(value, dict):
        return {k: _lettered(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_lettered(v) for v in value]
    return value


def _base_members(key: tuple, candidates: Iterable[tuple]) -> list:
    """The base members of one parameterization from its candidates, pairs
    (pair types, params with PairType values): each built on the key's
    order, the first of each canonical code kept in candidate order, with
    its params spelled in TYPE_LETTERs and the key's claims attached.  The
    candidate generators do not check their arguments: _key_claims does,
    before the first candidate is drawn."""
    order, noncritical, shape = _key_claims(key)
    family = _KEY_KINDS[key[0]].family
    found: dict = {}
    for types, params in candidates:
        g = from_pair_types(order, types)
        found.setdefault(canonical_code(g), (g, params))
    return [
        FamilyMember(g, family, _lettered(params), noncritical, shape)
        for g, params in found.values()
    ]


# -- class of path-backbone graphs with the noncritical vertex at an end ------------


def enum_class_F(m: int, ext_size: int) -> list:
    """Members on 0..m plus ext_size extra vertices; their checks and claims
    are _KEY_KINDS["F"]'s."""
    return _base_members(("F", m, ext_size), _class_F(m, ext_size))


def _class_F(m: int, ext_size: int) -> Iterator[tuple]:
    """Candidates built by the parity propagation rule from the free pair
    types."""
    alpha, beta = m + 1, m + 2
    for t01, t12, t02 in itertools.product(ALL_TYPES, repeat=3):
        if t01 is t12.reverse():
            continue
        if (t01 is t02) != (ext_size >= 1):
            continue
        for extra in _EXTRAS[ext_size]:
            if ext_size == 0:
                if t02 is t12 or t12 is t01:
                    continue
            elif ext_size == 1:
                (t0a,) = extra
                if t01 is t12:
                    if t0a not in (MUTUAL, ABSENT):
                        continue
                elif t0a is t01 or t0a is t12:
                    continue
            else:
                t0a, t0b, tba = extra
                if t0a is not t12 or t0b is not t01:
                    continue
                if tba is t12 or t12 is t01:
                    continue

            types: dict = {}
            for x in range(m + 1):
                for y in range(x + 1, m + 1):
                    if x % 2 == 1:
                        types[(x, y)] = t12
                    elif y % 2 == 0:
                        types[(x, y)] = t02
                    else:
                        types[(x, y)] = t01
            labels = {"01": t01, "12": t12, "02": t02}
            if ext_size >= 1:
                t0a = extra[0]
                for i in range(m + 1):
                    types[(i, alpha)] = t12 if i % 2 == 1 else t0a
                labels["0a"] = t0a
            if ext_size == 2:
                _, t0b, tba = extra
                for i in range(m + 1):
                    types[(i, beta)] = t12 if i % 2 == 1 else t0b
                types[(alpha, beta)] = tba.reverse()
                labels["0b"] = t0b
                labels["ba"] = tba
            yield types, {"m": m, "ext_size": ext_size, "types": labels}


# -- class of path-backbone graphs, odd noncritical position, odd-length path -------


def enum_class_G(n: int, k: int, with_alpha: bool) -> list:
    """Members on 0..2n+1, plus one extra vertex when with_alpha; their
    checks and claims are _KEY_KINDS["G"]'s."""
    return _base_members(("G", n, k, with_alpha), _class_G(n, k, with_alpha))


def _class_G(n: int, k: int, with_alpha: bool) -> Iterator[tuple]:
    top = 2 * n + 1
    alpha = 2 * n + 2

    t02_domain = ALL_TYPES if k >= 1 else (None,)
    t0a_domain = ALL_TYPES if with_alpha else (None,)

    for t01, t12, tn, t02, t0a in itertools.product(
        ALL_TYPES, ALL_TYPES, ALL_TYPES, t02_domain, t0a_domain
    ):
        if t01 is t12.reverse() or t12.reverse() is tn:
            continue
        if (t01 is t12) != with_alpha:
            continue
        # anchor pair (0, 2) as realized on the built graph
        c02 = t02 if k >= 1 else t12
        if not with_alpha:
            if c02 is t12 and tn is t01:
                continue
            if k == 0 and tn is t12:
                continue
            if k == n - 1 and t01 is c02:
                continue
        else:
            if t0a is t12:
                continue
            if c02 is t12 and t12 is tn and t0a not in (MUTUAL, ABSENT):
                continue

        types: dict = {}
        for x in range(top + 1):
            for y in range(x + 1, top + 1):
                if x % 2 == 0 and y % 2 == 1:
                    types[(x, y)] = t01 if x // 2 <= k else tn
                elif x % 2 == 0 and y % 2 == 0:
                    types[(x, y)] = t02 if y // 2 <= k else t12
                else:
                    types[(x, y)] = t12
        labels = {"01": t01, "12": t12, "nn": tn}
        if k >= 1:
            labels["02"] = t02
        if with_alpha:
            for v in range(top + 1):
                if v % 2 == 1:
                    types[(v, alpha)] = t12
                else:
                    types[(v, alpha)] = t0a if v // 2 <= k else t01.reverse()
            labels["0a"] = t0a
        yield types, {"n": n, "k": k, "with_alpha": with_alpha, "types": labels}


# -- class of path-backbone graphs on an even top vertex, no extensions -------------


def enum_class_Gprime(n: int, k: int) -> list:
    """Members on 0..2n exactly; their checks and claims are
    _KEY_KINDS["Gp"]'s."""
    return _base_members(("Gp", n, k), _class_Gprime(n, k))


def _class_Gprime(n: int, k: int) -> Iterator[tuple]:
    order = 2 * n + 1

    ta_domain = ALL_TYPES if k >= 1 else (None,)
    tb_domain = ALL_TYPES if k <= n - 2 else (None,)

    for t12, ta, tb, tc in itertools.product(
        ALL_TYPES, ta_domain, tb_domain, ALL_TYPES
    ):
        if t12 is t12.reverse():
            continue
        # anchor pairs (0, 2) and (2n-2, 2n) as realized on the built graph
        c02 = ta if k >= 1 else tc
        cnn = tb if k <= n - 2 else tc
        if tc is t12:
            continue
        if tc is c02 and cnn is c02:
            continue
        if k == 0 and cnn is t12:
            continue
        if k == n - 1 and c02 is t12:
            continue

        types: dict = {}
        for x in range(order):
            for y in range(x + 1, order):
                if x % 2 == 1 or y % 2 == 1:
                    types[(x, y)] = t12
                elif y <= 2 * k:
                    types[(x, y)] = ta
                elif x >= 2 * k + 2:
                    types[(x, y)] = tb
                else:
                    types[(x, y)] = tc
        labels = {"12": t12, "mid": tc}
        if k >= 1:
            labels["low"] = ta
        if k <= n - 2:
            labels["high"] = tb
        yield types, {"n": n, "k": k, "types": labels}


# -- class of path-backbone graphs, even noncritical position, with extensions ------


def enum_class_Gdprime(n: int, k: int, ext_size: int) -> list:
    """Members on 0..2n plus ext_size extra vertices; their checks and
    claims are _KEY_KINDS["Gdp"]'s."""
    return _base_members(("Gdp", n, k, ext_size), _class_Gdprime(n, k, ext_size))


def _class_Gdprime(n: int, k: int, ext_size: int) -> Iterator[tuple]:
    alpha, beta = 2 * n + 1, 2 * n + 2

    for t01, t12, t02, tn in itertools.product(ALL_TYPES, repeat=4):
        if t01 is t12.reverse() or t12.reverse() is tn:
            continue
        if (t02 is t12) != (ext_size >= 1):
            continue
        for extra in _EXTRAS[ext_size]:
            if ext_size == 0:
                if t01 is t12 and tn is t12:
                    continue
                if k == 1 and t02 is tn:
                    continue
                if k == n - 1 and t02 is t01:
                    continue
            elif ext_size == 1:
                (t0a,) = extra
                if t0a is t12 or t0a is t12.reverse():
                    continue
            else:
                t0a, t0b, tba = extra
                if t0a is not t12 or t0b is not t12.reverse():
                    continue
                if tba is t0a or t12 is t12.reverse():
                    continue

            types: dict = {}
            for x in range(2 * n + 1):
                for y in range(x + 1, 2 * n + 1):
                    if x % 2 == 0 and y % 2 == 0:
                        types[(x, y)] = t02
                    elif x % 2 == 0 and y % 2 == 1 and y < 2 * k:
                        types[(x, y)] = t01
                    elif x % 2 == 1 and y % 2 == 0 and x > 2 * k:
                        types[(x, y)] = tn
                    else:
                        types[(x, y)] = t12
            labels = {"01": t01, "12": t12, "02": t02, "nn": tn}
            for pos, gamma in enumerate((alpha, beta)[:ext_size]):
                t0g = extra[0] if pos == 0 else extra[1]
                for x in range(2 * n + 1):
                    if x % 2 == 0:
                        types[(x, gamma)] = t0g
                    elif x < 2 * k:
                        types[(x, gamma)] = t12
                    else:
                        types[(x, gamma)] = t12.reverse()
                labels["0a" if pos == 0 else "0b"] = t0g
            if ext_size == 2:
                tba = extra[2]
                types[(alpha, beta)] = tba.reverse()
                labels["ba"] = tba
            yield types, {"n": n, "k": k, "ext_size": ext_size, "types": labels}


# -- starred-tree classes ------------------------------------------------------------


def _star_layout(branch_lengths: tuple) -> tuple:
    """Vertex indexing for a starred tree: source 0, then each branch laid
    out consecutively.  Returns (idx, order) with idx(branch, pos)."""
    offsets = []
    base = 1
    for length in branch_lengths:
        offsets.append(base)
        base += length

    def idx(branch: int, pos: int) -> int:
        return 0 if pos == 0 else offsets[branch - 1] + pos - 1

    return idx, base


def _star_edges(branch_lengths: tuple) -> Iterator[tuple]:
    idx, _ = _star_layout(branch_lengths)
    for i, length in enumerate(branch_lengths, start=1):
        for pos in range(length):
            yield idx(i, pos), idx(i, pos + 1)


def _branch_types(lengths: tuple) -> list:
    """Type tuples for branches of the given lengths, in product order, that
    do not decrease (in NONEMPTY_TYPES order) along a run of equal lengths.

    Swapping two equal branches is an isomorphism, and swapping a
    decreasing adjacent pair gives a candidate earlier in product order, so
    no tuple left out is the first candidate of its canonical code.
    """
    runs = [len(list(run)) for _, run in itertools.groupby(lengths)]
    return [
        sum(parts, ())
        for parts in itertools.product(
            *(itertools.combinations_with_replacement(NONEMPTY_TYPES, r) for r in runs)
        )
    ]


def enum_Hstar_odd(branch_lengths: Iterable[int]) -> list:
    """Members on a starred-tree profile of one odd branch (listed first,
    length >= 3) and at least two even branches; their checks and claims
    are _KEY_KINDS["SO"]'s."""
    bl = tuple(branch_lengths)
    return _base_members(("SO", bl), _Hstar_odd(bl))


def _Hstar_odd(bl: tuple) -> Iterator[tuple]:
    k = len(bl)
    n1 = (bl[0] - 1) // 2
    halves = {i: bl[i - 1] // 2 for i in range(2, k + 1)}
    idx, _ = _star_layout(bl)

    for t01, branch_types, ta1 in itertools.product(
        NONEMPTY_TYPES, _branch_types(bl[1:]), ALL_TYPES
    ):
        ts = dict(enumerate(branch_types, start=2))

        rules: dict = {}
        for l in range(n1 + 1):
            for j in range(l + 1, n1 + 1):
                _put_ordered(rules, idx(1, 2 * l + 1), idx(1, 2 * j + 1), ta1)
        for i in range(2, k + 1):
            ni = halves[i]
            for l in range(ni + 1):
                for j in range(l + 1, ni + 1):
                    _put_ordered(rules, idx(i, 2 * l + 1), idx(i, 2 * j), ts[i])
        for i in range(2, k + 1):
            for j in range(halves[i] + 1):
                for l in range(n1 + 1):
                    _put_ordered(rules, idx(i, 2 * j), idx(1, 2 * l + 1), t01)
        for j in range(n1 + 1):
            for l in range(j, n1 + 1):
                _put_ordered(rules, idx(1, 2 * j), idx(1, 2 * l + 1), t01)
        yield rules, {
            "branches": list(bl),
            "source_type": t01,
            "odd_anchor": ta1,
            "branch_types": [ts[i] for i in range(2, k + 1)],
        }


def enum_Hstar_even(branch_lengths: Iterable[int], with_gamma: bool) -> list:
    """Members on an all-even starred-tree profile, plus one extra vertex
    when with_gamma; their checks and claims are _KEY_KINDS["SE"]'s."""
    bl = tuple(branch_lengths)
    return _base_members(("SE", bl, with_gamma), _Hstar_even(bl, with_gamma))


def _Hstar_even(bl: tuple, with_gamma: bool) -> Iterator[tuple]:
    k = len(bl)
    idx, gamma = _star_layout(bl)
    vertices = [(i, p) for i in range(1, k + 1) for p in range(1, bl[i - 1] + 1)]

    tg_domain = NONEMPTY_TYPES if with_gamma else (None,)
    for branch_types, tg in itertools.product(_branch_types(bl), tg_domain):
        ts = dict(enumerate(branch_types, start=1))

        types: dict = {}
        for i, p in vertices:
            u = idx(i, p)
            # pair with the shared source (position 0, even)
            if p % 2 == 0 and not with_gamma:
                types[(0, u)] = MUTUAL
        for a in range(len(vertices)):
            i, p = vertices[a]
            for b in range(a + 1, len(vertices)):
                j, q = vertices[b]
                u, v = idx(i, p), idx(j, q)
                if p % 2 == 0 and q % 2 == 0 and not with_gamma:
                    types[(u, v)] = MUTUAL
                elif i == j and p % 2 == 1 and q % 2 == 0 and p < q:
                    types[(u, v)] = ts[i]
        if with_gamma:
            types[(0, gamma)] = tg.reverse()
            for i, p in vertices:
                if p % 2 == 0:
                    types[(idx(i, p), gamma)] = tg.reverse()

        params = {
            "branches": list(bl),
            "with_gamma": with_gamma,
            "branch_types": [ts[i] for i in range(1, k + 1)],
        }
        if with_gamma:
            params["gamma_type"] = tg
        yield types, params


# -- order-indexed union ---------------------------------------------------------------


def _ascending_partitions(total: int, parts: int, minimum: int) -> Iterator[tuple]:
    """Ascending part lists of a fixed length summing to total."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _ascending_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _star_profiles_odd(total: int) -> Iterator[tuple]:
    """Branch profiles (odd first >= 3, ascending evens >= 2) summing to total."""
    if total % 2 == 0:
        return
    for first in range(3, total - 3, 2):
        rest = total - first
        for parts in range(2, rest // 2 + 1):
            for halves in _ascending_partitions(rest // 2, parts, 1):
                yield (first,) + tuple(2 * h for h in halves)


def _star_profiles_even(total: int) -> Iterator[tuple]:
    """Ascending all-even branch profiles (>= 3 branches) summing to total."""
    if total % 2 == 1:
        return
    for parts in range(3, total // 2 + 1):
        for halves in _ascending_partitions(total // 2, parts, 1):
            yield tuple(2 * h for h in halves)


def _closure_variants(g: Digraph) -> list:
    return [
        ("base", g),
        ("complement", complement(g)),
        ("dual", dual(g)),
        ("complement_dual", complement(dual(g))),
    ]


def _named(key: tuple, gen: Callable, params: dict) -> list:
    """The one base member of a named graph's parameterization; gen(*args)
    runs only once the key has passed its checks."""
    _, noncritical, shape = _key_claims(key)
    family = _KEY_KINDS[key[0]].family
    return [FamilyMember(gen(*key[1:]), family, params, noncritical, shape)]


# -- the family table ------------------------------------------------------------------


def _int_arg(value) -> bool:
    return type(value) is int


def _flag_arg(value) -> bool:
    return type(value) is bool


def _branches_arg(value) -> bool:
    return type(value) is tuple and all(type(b) is int for b in value)


class _KeyKind(NamedTuple):
    """One kind of family key, a key being the kind followed by one argument
    per predicate in args, each of which it must satisfy, and then every
    check(*args) in checks, a dict from the message raised when it fails.
    generate(*args) builds the parameterization's unchecked base members;
    claims(*args) gives their order, noncritical vertex and deletion-graph
    edges on literal vertices.  The two claims hold from the orders in since
    on; below them the family claims nothing."""

    family: str
    args: tuple
    checks: dict
    generate: Callable
    claims: Callable
    since: tuple = (0, 0)


_KEY_KINDS = {
    "H": _KeyKind(
        FAMILY_H, (_int_arg,),
        {"gen_H: need p >= 1": lambda p: p >= 1},
        lambda p: _named(("H", p), gen_H, {"p": p}),
        lambda p: (
            2 * p + 1, 0, itertools.chain(_path_edges(2 * p), [(0, 2 * p)])
        ),
    ),
    "R": _KeyKind(
        FAMILY_R, (_int_arg,),
        {"gen_R: need n >= 2": lambda n: n >= 2},
        lambda n: _named(("R", n), gen_R, {"n": n}),
        lambda n: (2 * n + 1, 2 * n, _path_edges(2 * n - 1)),
    ),
    "F": _KeyKind(
        FAMILY_F, (_int_arg, _int_arg),
        {
            "enum_class_F: need m >= 2": lambda m, _: m >= 2,
            "enum_class_F: ext_size must be 0, 1 or 2": lambda _, e: e in (0, 1, 2),
        },
        enum_class_F,
        lambda m, ext_size: (m + 1 + ext_size, m, _path_edges(m)),
        since=(4, 7),
    ),
    "G": _KeyKind(
        FAMILY_G, (_int_arg, _int_arg, _flag_arg),
        {"enum_class_G: need n >= 1 and 0 <= k <= n-1": lambda n, k, _: 0 <= k < n},
        enum_class_G,
        lambda n, k, with_alpha: (
            2 * n + 2 + int(with_alpha), 2 * k + 1, _path_edges(2 * n + 1)
        ),
        since=(7, 7),
    ),
    "Gp": _KeyKind(
        FAMILY_GP, (_int_arg, _int_arg),
        {"enum_class_Gprime: need n >= 1 and 0 <= k <= n-1": lambda n, k: 0 <= k < n},
        enum_class_Gprime,
        lambda n, k: (2 * n + 1, 2 * k + 1, _path_edges(2 * n)),
        since=(7, 7),
    ),
    "Gdp": _KeyKind(
        FAMILY_GDP, (_int_arg, _int_arg, _int_arg),
        {
            "enum_class_Gdprime: need n >= 2 and 1 <= k <= n-1":
                lambda n, k, _: 1 <= k < n,
            "enum_class_Gdprime: ext_size must be 0, 1 or 2":
                lambda n, k, e: e in (0, 1, 2),
        },
        enum_class_Gdprime,
        lambda n, k, ext_size: (2 * n + 1 + ext_size, 2 * k, _path_edges(2 * n)),
    ),
    "SO": _KeyKind(
        FAMILY_STAR_ODD, (_branches_arg,),
        {
            "enum_Hstar_odd: need at least 3 branches": lambda bl: len(bl) >= 3,
            "enum_Hstar_odd: first branch length must be odd >= 3":
                lambda bl: bl[0] % 2 == 1 and bl[0] >= 3,
            "enum_Hstar_odd: other branch lengths must be even >= 2":
                lambda bl: all(b % 2 == 0 and b >= 2 for b in bl[1:]),
        },
        enum_Hstar_odd,
        lambda bl: (1 + sum(bl), 0, _star_edges(bl)),
    ),
    "SE": _KeyKind(
        FAMILY_STAR_EVEN, (_branches_arg, _flag_arg),
        {
            "enum_Hstar_even: need at least 3 branches": lambda bl, _: len(bl) >= 3,
            "enum_Hstar_even: branch lengths must be even >= 2":
                lambda bl, _: all(b % 2 == 0 and b >= 2 for b in bl),
        },
        enum_Hstar_even,
        lambda bl, with_gamma: (1 + sum(bl) + int(with_gamma), 0, _star_edges(bl)),
    ),
}


def _key_kind(key: tuple) -> _KeyKind:
    """The table row of a family key that passes the row's checks;
    DigraphError when the key has an unknown kind, the wrong number of
    arguments or an argument of the wrong type, or fails a check."""
    kind = _KEY_KINDS.get(key[0]) if isinstance(key, tuple) and key else None
    if (
        kind is None
        or len(key) != 1 + len(kind.args)
        or not all(ok(arg) for ok, arg in zip(kind.args, key[1:]))
    ):
        raise DigraphError(f"malformed family key {key!r}")
    for message, ok in kind.checks.items():
        if not ok(*key[1:]):
            raise DigraphError(message)
    return kind


@lru_cache(maxsize=None)
def _key_claims(key: tuple) -> tuple:
    """(order, noncritical vertex, deletion-graph ShapeDescriptor) claimed
    for every member of one parameterization, None where the family claims
    nothing at that order; the shape is recognized once per key.  An order
    above MAX_ENUM_ORDER, where no member has a canonical code, raises
    DigraphError before any edge is laid out."""
    kind = _key_kind(key)
    order, noncritical, edges = kind.claims(*key[1:])
    if order > MAX_ENUM_ORDER:
        raise DigraphError(f"{kind.family}: order {order} is above {MAX_ENUM_ORDER}")
    noncritical_since, shape_since = kind.since
    if order < noncritical_since:
        noncritical = None
    shape = _shape_of_edges(order, edges) if order >= shape_since else None
    return order, noncritical, shape


def _family_keys(order: int) -> Iterator[tuple]:
    """Every family parameterization producing members of the given order,
    in enumeration order: H, R, F, G, G', G'', odd stars, even stars."""
    if order % 2 == 1:
        yield ("H", (order - 1) // 2)
        yield ("R", (order - 1) // 2)
    for ext_size in (0, 1, 2):
        m = order - 1 - ext_size
        if m >= 2:
            yield ("F", m, ext_size)
    for with_alpha in (False, True):
        rem = order - 2 - (1 if with_alpha else 0)
        if rem % 2 == 0 and rem >= 2:
            for k in range(rem // 2):
                yield ("G", rem // 2, k, with_alpha)
    if order % 2 == 1:
        for k in range((order - 1) // 2):
            yield ("Gp", (order - 1) // 2, k)
    for ext_size in (0, 1, 2):
        rem = order - 1 - ext_size
        if rem % 2 == 0 and rem >= 4:
            for k in range(1, rem // 2):
                yield ("Gdp", rem // 2, k, ext_size)
    for profile in _star_profiles_odd(order - 1):
        yield ("SO", profile)
    if order % 2 == 1:
        for profile in _star_profiles_even(order - 1):
            yield ("SE", profile, False)
    else:
        for profile in _star_profiles_even(order - 2):
            yield ("SE", profile, True)


def family_records(key: tuple) -> tuple:
    """The unchecked members of one family parameterization, closed under
    complement and dual: tuples (code, variant, params, member).

    Each base member is followed by those of its complement/dual twins whose
    canonical code differs from its own and from the earlier twins'.  params
    is the parameterization shared by a base member and its twins; a twin's
    member.params adds its "variant".  Built once per key and process, so
    the records and their members are shared: treat them as read-only.  A
    key of unknown kind, wrong arity or wrong-typed arguments, or one that
    fails its row's checks, raises DigraphError, checked before the memo is
    asked, so an unhashable key is refused the same way; so does a key
    claiming an order above MAX_ENUM_ORDER, before anything is built.
    cache_info and cache_clear are the memo's.
    """
    _key_kind(key)
    return _records_memo(key)[0]


def records_by_code(key: tuple) -> dict:
    """family_records(key) grouped by canonical code, in record order.

    Built once per key, next to the records, by the same memo, which is
    asked directly: key must be a valid key, as dispatch_keys returns."""
    return _records_memo(key)[1]


@lru_cache(maxsize=None)
def _records_memo(key: tuple) -> tuple:
    records = []
    index: dict = {}
    for base in _KEY_KINDS[key[0]].generate(*key[1:]):
        seen = set()
        for variant, graph in _closure_variants(base.graph):
            code = canonical_code(graph)
            if code in seen:
                continue
            seen.add(code)
            member = base
            if variant != "base":
                member = replace(
                    base, graph=graph, params={**base.params, "variant": variant}
                )
            records.append((code, variant, base.params, member))
            index.setdefault(code, []).append(records[-1])
    return tuple(records), index


family_records.cache_info = _records_memo.cache_info
family_records.cache_clear = _records_memo.cache_clear


def enum_family_members(order: int, *, checked: bool = False) -> list:
    """Every defect-one graph of the given order, up to isomorphism: the
    union of family_records over all parameterizations of the order,
    deduplicated by canonical code.

    The members come from the per-parameterization memo, so they and their
    params are shared between calls (and with classify): treat them as
    read-only.  The returned list itself is new on every call.  In checked
    mode every base member and every kept twin is verified on each call.
    """
    if not 7 <= order <= MAX_ENUM_ORDER:
        raise DigraphError(
            f"enum_family_members: order must be in 7..{MAX_ENUM_ORDER}"
        )
    out: list = []
    seen: set = set()
    for key in _family_keys(order):
        for code, variant, _, member in family_records(key):
            kept = code not in seen
            if checked and (kept or variant == "base"):
                verify_member_claims(member)
            if kept:
                seen.add(code)
                out.append(member)
    return out


# -- dispatch: the keys whose claims an observed shape fits ----------------------------


def _signature(shape: ShapeDescriptor, noncritical: int) -> tuple:
    """What of a deletion-graph shape and of the noncritical vertex's place
    on it survives relabelling: the kind, the shape's vertex count, its
    branch lengths, and the vertex's two distances to the path ends
    (sorted), or "source", "on" or "off"."""
    vs = shape.vertices
    if shape.kind == "path" and noncritical in vs:
        d = vs.index(noncritical)
        where = tuple(sorted((d, len(vs) - 1 - d)))
    elif shape.kind == "star_tree" and noncritical == shape.source:
        where = "source"
    else:
        where = "on" if noncritical in vs else "off"
    return shape.kind, len(vs), shape.branch_lengths, where


@lru_cache(maxsize=None)
def _dispatch_table(order: int) -> dict:
    """Signature of each claim of the order -> the keys making it, in
    _family_keys order."""
    table: dict = {}
    for key in _family_keys(order):
        _, noncritical, shape = _key_claims(key)
        table.setdefault(_signature(shape, noncritical), []).append(key)
    return table


def dispatch_keys(order: int, shape: ShapeDescriptor, noncritical: int) -> tuple:
    """The family_records keys of an order >= 7 whose claimed deletion-graph
    shape and noncritical vertex match the given ones up to relabelling, in
    enumeration order; empty when no family claims them."""
    return tuple(_dispatch_table(order).get(_signature(shape, noncritical), ()))
