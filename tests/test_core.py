"""Core digraph representation, pair types, isomorphism, .dg format."""

from __future__ import annotations

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from indecomp import core, families
from indecomp.core import (
    ABSENT,
    BACKWARD,
    CanonicalBoundError,
    DgFormatError,
    Digraph,
    DigraphError,
    FORWARD,
    MUTUAL,
    PairType,
    canonical_code,
    complement,
    dual,
    find_isomorphism,
    from_pair_types,
    homogeneous,
    induced,
    make_digraph,
    pair_type,
    pairs_equivalent,
    parse_dg,
    relabel,
    serialize_dg,
    to_dot,
)
from indecomp.families import (
    FAMILY_STAR_EVEN,
    FAMILY_STAR_ODD,
    enum_family_members,
    family_records,
)

# Small fixed graph used throughout: arcs 0->1 and 2->0.
H3_ARCS = [(0, 1), (2, 0)]
H3_DG = "3\n010\n000\n100\n"


def h3():
    return make_digraph(3, H3_ARCS)


def chain(n):
    """Transitive tournament on 0..n-1 (i -> j for i < j)."""
    return make_digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_digraph(n, rng):
    arcs = []
    for x, y in itertools.combinations(range(n), 2):
        t = rng.randrange(4)
        if t & 1:
            arcs.append((x, y))
        if t & 2:
            arcs.append((y, x))
    return make_digraph(n, arcs)


def random_typed_digraph(n, rng, allowed):
    """Every pair of 0..n-1 drawn from the allowed pair types only."""
    types = {
        p: rng.choice(allowed) for p in itertools.combinations(range(n), 2)
    }
    return from_pair_types(n, types)


def circulant(n, steps):
    return make_digraph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def paley_tournament(p):
    """i -> j iff j - i is a nonzero square mod p (a tournament for p = 3 mod 4)."""
    squares = {x * x % p for x in range(1, p)}
    return circulant(p, sorted(squares))


def copies(h, m, between):
    """m disjoint copies of h, every pair across two copies of type between."""
    s = h.n
    types = {}
    for a, b in itertools.combinations(range(m * s), 2):
        if a // s == b // s:
            types[(a, b)] = pair_type(h, a % s, b % s)
        else:
            types[(a, b)] = between
    return from_pair_types(m * s, types)


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def labelling_corpus():
    """The graphs whose canonical (code, ordering) pairs are pinned, in a
    fixed order: every family record of orders 7..10, rebuilt so that no
    cached search is read; seeded random digraphs of orders 2..12, uniform
    and drawn from two pair types; relabelled copies of small graphs; and
    circulants of orders 3..13, with Paley tournaments."""
    for order in range(7, 11):
        for key in families._family_keys(order):
            for _, _, _, member in family_records(key):
                yield Digraph(member.graph.n, member.graph.out_rows)
    rng = random.Random(2010)
    two_types = ((ABSENT, MUTUAL), (FORWARD, BACKWARD), (ABSENT, FORWARD))
    for n in range(2, 13):
        for i in range(30):
            yield random_digraph(n, rng)
            yield random_typed_digraph(n, rng, two_types[i % 3])
    for m, s in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)):
        for _ in range(6):
            h = random_digraph(s, rng)
            yield shuffled(copies(h, m, rng.choice(list(PairType))), rng)
    for n in range(3, 14):
        step_sets = [
            [s for s in range(1, n) if bits >> (s - 1) & 1]
            for bits in range(1 << (n - 1))
        ]
        if n > 8:
            step_sets = rng.sample(step_sets, 30)
        for steps in step_sets:
            yield circulant(n, steps)
    for p in (7, 11, 19):
        yield paley_tournament(p)
        yield shuffled(paley_tournament(p), rng)


# -- pair-type encoding (fixed contract) --------------------------------------


def test_pair_type_encoding_is_fixed():
    assert int(ABSENT) == 0
    assert int(FORWARD) == 1
    assert int(BACKWARD) == 2
    assert int(MUTUAL) == 3


def test_pair_type_reverse():
    assert FORWARD.reverse() is BACKWARD
    assert BACKWARD.reverse() is FORWARD
    assert MUTUAL.reverse() is MUTUAL
    assert ABSENT.reverse() is ABSENT


def test_pair_type_lookup():
    g = h3()
    assert pair_type(g, 0, 1) is FORWARD
    assert pair_type(g, 1, 0) is BACKWARD
    assert pair_type(g, 0, 2) is BACKWARD
    assert pair_type(g, 2, 0) is FORWARD
    assert pair_type(g, 1, 2) is ABSENT
    g2 = make_digraph(2, [(0, 1), (1, 0)])
    assert pair_type(g2, 0, 1) is MUTUAL
    with pytest.raises(DigraphError):
        pair_type(g, 1, 1)
    # out-of-range vertices once answered for vertex n - 1 or as ABSENT
    for x, y in ((-1, 0), (0, -1), (0, g.n), (g.n, 0)):
        with pytest.raises(DigraphError):
            pair_type(g, x, y)


def test_pairs_equivalent():
    g = chain(4)
    assert pairs_equivalent(g, (0, 1), (2, 3))
    assert not pairs_equivalent(g, (0, 1), (3, 2))


# -- construction and basic accessors -----------------------------------------


def test_make_digraph_validates():
    with pytest.raises(DigraphError):
        make_digraph(3, [(0, 3)])
    with pytest.raises(DigraphError):
        make_digraph(3, [(1, 1)])
    with pytest.raises(DigraphError):
        make_digraph(-1, [])


def test_digraph_rejects_bad_rows():
    for n, rows in (
        (2, [4, 0]),        # bit beyond the order
        (3, [1, 0, 0]),     # loop bit
        (2, [-1, 0]),       # negative row
        (3, [0, 0]),        # too few rows
        (1, [0, 0]),        # too many rows
        (-1, []),           # negative order
    ):
        with pytest.raises(DigraphError):
            Digraph(n, rows)
    with pytest.raises(DigraphError):
        from_pair_types(-1, {})
    assert Digraph(0, []).n == 0


def test_constructors_reject_non_integer_order_or_rows():
    for build in (
        lambda: Digraph(2, [0.5, 0]),
        lambda: Digraph(2.0, [0, 0]),
        lambda: Digraph(2, None),
        lambda: make_digraph(2.5, []),
        lambda: from_pair_types(2.5, {}),
    ):
        with pytest.raises(DigraphError):
            build()
    # numpy integers are integers
    g = Digraph(np.int64(3), [np.uint8(2), np.int64(0), 0])
    assert g == make_digraph(3, [(0, 1)])
    assert type(g.n) is int and all(type(row) is int for row in g.out_rows)


def test_constructors_reject_bad_endpoints():
    for build in (
        lambda: make_digraph(3, [(0.5, 1)]),
        lambda: make_digraph(3, [(0, 1, 2)]),
        lambda: make_digraph(3, [0]),
        lambda: from_pair_types(3, {(0.5, 1): 1}),
        lambda: from_pair_types(3, {(0, 1, 2): 1}),
    ):
        with pytest.raises(DigraphError, match="not a pair of integers"):
            build()
    # numpy integers are integers
    arcs = [(np.int64(0), np.uint8(1))]
    assert make_digraph(3, arcs) == from_pair_types(3, {arcs[0]: 1})
    assert make_digraph(3, arcs).out_rows == (2, 0, 0)


def test_arcs_and_counts():
    g = h3()
    assert sorted(g.arcs()) == sorted(H3_ARCS)
    assert g.arc_count() == 2
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
    for x, y in ((-1, 0), (0, -1), (0, g.n), (g.n, 0)):
        with pytest.raises(DigraphError):
            g.has_arc(x, y)


def test_in_rows_match_out_rows():
    rng = random.Random(7)
    for _ in range(50):
        g = random_digraph(8, rng)
        for x in range(8):
            for y in range(8):
                if x != y:
                    assert bool(g.in_rows[y] >> x & 1) == g.has_arc(x, y)


def test_type_matrix_is_fresh_on_each_call():
    g = make_digraph(3, [(0, 1), (1, 2), (2, 1)])
    first = g.type_matrix()
    assert first[0][1] == FORWARD and first[1][2] == MUTUAL
    first[0][1] = ABSENT
    first.append([])
    assert g.type_matrix() == [[0, 1, 0], [2, 0, 3], [0, 3, 0]]


def test_from_pair_types_matches_make_digraph():
    types = {(0, 1): FORWARD, (0, 2): BACKWARD, (1, 2): ABSENT}
    assert from_pair_types(3, types) == h3()
    types = {(0, 1): MUTUAL, (1, 2): FORWARD}
    g = from_pair_types(3, types)
    assert sorted(g.arcs()) == [(0, 1), (1, 0), (1, 2)]
    with pytest.raises(DigraphError):
        from_pair_types(3, {(1, 0): FORWARD})
    with pytest.raises(DigraphError):
        from_pair_types(3, {(0, 1): 4})


def test_equality_and_hash_are_labelled():
    assert h3() == h3()
    assert hash(h3()) == hash(h3())
    assert h3() != relabel(h3(), [1, 0, 2])


# -- homogeneity ---------------------------------------------------------------


def test_homogeneous_basic():
    g = chain(5)
    assert homogeneous(g, 0, [1, 2, 3, 4])   # all forward
    assert homogeneous(g, 4, [0, 1, 2])      # all backward
    assert not homogeneous(g, 2, [1, 3])     # backward vs forward
    with pytest.raises(DigraphError):
        homogeneous(g, 2, [2, 3])
    for x, ys in ((0, [1, g.n]), (-1, [1, 2]), (g.n, [1, 2])):
        with pytest.raises(DigraphError):
            homogeneous(g, x, ys)


def test_homogeneous_agrees_with_pair_types():
    rng = random.Random(11)
    for _ in range(200):
        g = random_digraph(7, rng)
        x = rng.randrange(7)
        ys = [v for v in range(7) if v != x and rng.random() < 0.6]
        if not ys:
            continue
        expect = len({pair_type(g, x, y) for y in ys}) == 1
        assert homogeneous(g, x, ys) == expect


# -- complement, dual, induced, relabel ----------------------------------------


def test_complement_types():
    g = complement(h3())
    assert pair_type(g, 0, 1) is BACKWARD
    assert pair_type(g, 0, 2) is FORWARD
    assert pair_type(g, 1, 2) is MUTUAL


def test_complement_involution():
    rng = random.Random(3)
    for _ in range(30):
        g = random_digraph(9, rng)
        assert complement(complement(g)) == g


def test_dual_swaps_forward_backward():
    g = dual(h3())
    assert pair_type(g, 0, 1) is BACKWARD
    assert pair_type(g, 0, 2) is FORWARD
    assert pair_type(g, 1, 2) is ABSENT
    rng = random.Random(4)
    for _ in range(30):
        h = random_digraph(9, rng)
        assert dual(dual(h)) == h


def test_complement_and_dual_commute():
    rng = random.Random(5)
    for _ in range(30):
        g = random_digraph(8, rng)
        assert complement(dual(g)) == dual(complement(g))


def test_induced():
    g = chain(5)
    sub, originals = induced(g, [4, 1, 3])
    assert originals == (1, 3, 4)
    assert sub == chain(3)
    empty, orig = induced(g, [])
    assert empty.n == 0 and orig == ()
    with pytest.raises(DigraphError):
        induced(g, [0, 9])


def test_induced_preserves_pair_types():
    rng = random.Random(6)
    for _ in range(50):
        g = random_digraph(9, rng)
        verts = sorted(rng.sample(range(9), 5))
        sub, originals = induced(g, verts)
        assert originals == tuple(verts)
        for i, j in itertools.combinations(range(5), 2):
            assert pair_type(sub, i, j) == pair_type(g, verts[i], verts[j])


def test_relabel():
    g = relabel(h3(), [2, 0, 1])
    # arc (0,1) -> (2,0); arc (2,0) -> (1,2)
    assert sorted(g.arcs()) == [(1, 2), (2, 0)]
    with pytest.raises(DigraphError):
        relabel(h3(), [0, 0, 1])


# -- isomorphism and canonical codes --------------------------------------------


def test_find_isomorphism_identity_and_witness():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = random_digraph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        found = find_isomorphism(g, h)
        assert found is not None
        assert relabel(g, list(found)) == h


def test_find_isomorphism_negative():
    assert find_isomorphism(chain(3), h3()) is None
    assert find_isomorphism(chain(3), chain(4)) is None
    # same arc count, same in/out degree multisets, different structure
    c3 = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert find_isomorphism(c3, chain(3)) is None


def test_find_isomorphism_reads_cached_canonical_orderings(monkeypatch):
    rng = random.Random(14)
    g = random_digraph(9, rng)
    perm = list(range(9))
    rng.shuffle(perm)
    h = relabel(g, perm)
    canonical_code(g)
    canonical_code(h)

    def no_refinement(*args):
        raise AssertionError("find_isomorphism searched again")

    monkeypatch.setattr(core, "_refine_colors", no_refinement)
    found = find_isomorphism(g, h)
    assert found is not None
    assert relabel(g, list(found)) == h


def test_find_isomorphism_on_members_with_automorphisms():
    # 126 of the 204 order-8 star members and twins have automorphisms (2 or
    # 6 each, counted by brute force), so their canonical search reaches the
    # least matrix on several orderings and must keep one consistently
    rng = random.Random(15)
    stars = [
        m for m in enum_family_members(8)
        if m.family in (FAMILY_STAR_ODD, FAMILY_STAR_EVEN)
    ]
    assert stars
    for m in stars:
        perm = list(range(8))
        rng.shuffle(perm)
        h = relabel(m.graph, perm)
        found = find_isomorphism(m.graph, h)
        assert found is not None
        assert relabel(m.graph, list(found)) == h


def test_canonical_code_invariant_under_relabelling():
    rng = random.Random(13)
    for n in (1, 2, 5, 8):
        g = random_digraph(n, rng)
        code = canonical_code(g)
        for _ in range(40):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == code


def test_canonical_code_separates_iso_classes():
    # all labelled digraphs on 3 and on 4 vertices (4,096): codes agree
    # exactly on the isomorphism classes found by trying every permutation
    for n in (3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        classes = set()
        for bits in itertools.product(range(4), repeat=len(pairs)):
            g = from_pair_types(n, dict(zip(pairs, bits)))
            least = min(relabel(g, perm).out_rows for perm in perms)
            classes.add((canonical_code(g), least))
        assert len({code for code, _ in classes}) == len(classes)
        assert len({least for _, least in classes}) == len(classes)


def test_canonical_code_bound():
    g = make_digraph(17, [])
    with pytest.raises(CanonicalBoundError):
        canonical_code(g)
    # constant matrices at the bound stay cheap
    assert canonical_code(make_digraph(16, []))[0] == 16
    # find_isomorphism searches past the bound, up to one vertex per byte
    with pytest.raises(CanonicalBoundError):
        find_isomorphism(make_digraph(256, []), make_digraph(256, []))


def test_canonical_code_symmetric_graphs():
    full = from_pair_types(
        6, {p: MUTUAL for p in itertools.combinations(range(6), 2)}
    )
    assert canonical_code(full) == canonical_code(relabel(full, [3, 1, 5, 0, 2, 4]))


# recorded with the canonical search that visited every leaf of its tree
LABELLING_SHA256 = "4718033a78bcadb5685b46ad7f17da14c44a56f326026504b0655f6eb755939b"


def test_canonical_labelling_pinned_sha256():
    # both the least matrix and the first ordering that spells it are pinned:
    # find_isomorphism and the family memo read the ordering
    h = hashlib.sha256()
    for g in labelling_corpus():
        code, ordering = core._canonical_labelling(g)
        h.update(code + ordering)
    assert h.hexdigest() == LABELLING_SHA256


def test_canonical_search_refinements_on_equal_branches(monkeypatch):
    # the first candidate of a star with six equal branches has 2 * 6!
    # automorphisms; a search visiting every leaf refines 1,237 times
    bl = (3,) + (2,) * 6
    types, _ = next(families._Hstar_odd(bl))
    g = from_pair_types(1 + sum(bl), types)
    calls = []
    refine = core._refine_colors
    monkeypatch.setattr(
        core, "_refine_colors", lambda *args: calls.append(1) or refine(*args)
    )
    canonical_code(g)
    assert 0 < len(calls) <= 100


def test_find_isomorphism_on_relabelled_paley_43():
    # vertex-transitive with 903 automorphisms: a search visiting every leaf
    # takes about 9 s here
    g = paley_tournament(43)
    assert all(
        pair_type(g, x, y) in (FORWARD, BACKWARD)
        for x, y in itertools.combinations(range(43), 2)
    )
    h = shuffled(g, random.Random(43))
    started = time.perf_counter()
    found = find_isomorphism(g, h)
    elapsed = time.perf_counter() - started
    assert found is not None
    assert relabel(g, list(found)) == h
    assert elapsed < 3.0, elapsed


# -- .dg format -----------------------------------------------------------------


def test_serialize_frozen_example():
    assert serialize_dg(h3()) == H3_DG


def test_parse_serialize_roundtrip():
    assert parse_dg(H3_DG) == h3()
    rng = random.Random(14)
    for _ in range(60):
        g = random_digraph(rng.randrange(0, 11), rng)
        assert parse_dg(serialize_dg(g)) == g


def test_parse_rejects_bad_input():
    for text in (
        "3\n010\n000\n100",          # missing final newline
        "",                          # empty
        "x\n",                       # malformed header
        "-1\n",                      # malformed header
        "3\n010\n000\n",             # wrong row count
        "3\n010\n000\n100\n111\n",   # wrong row count
        "3\n01\n000\n100\n",         # wrong row length
        "3\n010\n0a0\n100\n",        # invalid character
        "3\n110\n000\n100\n",        # diagonal set
    ):
        with pytest.raises(DgFormatError):
            parse_dg(text)


def test_to_dot_mentions_every_pair_once():
    g = from_pair_types(
        3, {(0, 1): FORWARD, (0, 2): MUTUAL, (1, 2): ABSENT}
    )
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "0 -> 1;" in dot
    assert "0 -> 2 [dir=none];" in dot
    assert "1 -> 2" not in dot and "2 -> 1" not in dot
