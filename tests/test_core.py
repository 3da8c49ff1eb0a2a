"""Core digraph representation, pair types, isomorphism, .dg format."""

from __future__ import annotations

import itertools
import random

import pytest

from indecomp import core
from indecomp.core import (
    ABSENT,
    BACKWARD,
    CanonicalBoundError,
    DgFormatError,
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
from indecomp.families import FAMILY_STAR_EVEN, FAMILY_STAR_ODD, enum_family_members

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
    # all labelled digraphs on 3 vertices: codes agree exactly on iso classes
    graphs = []
    for bits in itertools.product(range(4), repeat=3):
        types = dict(zip([(0, 1), (0, 2), (1, 2)], map(PairType, bits)))
        graphs.append(from_pair_types(3, types))
    for g, h in itertools.combinations(graphs, 2):
        same_code = canonical_code(g) == canonical_code(h)
        isomorphic = any(
            relabel(g, perm) == h for perm in itertools.permutations(range(3))
        )
        assert same_code == isomorphic


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
