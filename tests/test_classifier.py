"""Verdict dispatch and shape-directed family matching."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from indecomp.classifier import (
    CRITICAL,
    DECOMPOSABLE,
    Classification,
    FamilyMatch,
    MINUS_K_CRITICAL,
    MINUS_ONE_CRITICAL,
    OUT_OF_SCOPE_ORDER,
    classify,
    match_family,
)
from indecomp.core import (
    DigraphError,
    PairType,
    canonical_code,
    complement,
    dual,
    from_pair_types,
    make_digraph,
    relabel,
)
from indecomp.criticality import (
    ShapeDescriptor,
    critical_vertices,
    indecomposability_graph,
    recognize_shape,
    support,
)
from indecomp.families import (
    enum_class_F,
    enum_class_Gdprime,
    enum_family_members,
    enum_Hstar_even,
    family_records,
    gen_H,
    gen_Q5,
    gen_R,
    gen_T,
    gen_U,
    gen_V,
)
from indecomp.modular import (
    _interval_witness,
    _is_interval_mask,
    _prime_mask,
    is_indecomposable,
)


def transitive_tournament(n):
    return make_digraph(n, [(x, y) for x in range(n) for y in range(x + 1, n)])


# -- verdicts ---------------------------------------------------------------------


def test_decomposable_verdict():
    res = classify(transitive_tournament(6))
    assert res.verdict == DECOMPOSABLE
    assert res.defect is None
    assert res.match is None


def test_critical_verdict():
    for g in (gen_T(2), gen_U(2), gen_V(2), gen_V(3)):
        res = classify(g)
        assert res.verdict == CRITICAL
        assert res.defect == 0


def test_out_of_scope_verdict():
    res = classify(gen_Q5())
    assert res.verdict == OUT_OF_SCOPE_ORDER
    assert res.defect == 1
    assert res.noncritical == (2,)


def test_minus_k_verdict():
    # search a small seeded pool for a graph with two or more noncritical
    # vertices; such graphs are plentiful at order 6
    rng = random.Random(133)
    pairs = [(x, y) for x in range(6) for y in range(x + 1, 6)]
    found = None
    for _ in range(4000):
        g = from_pair_types(
            6, {p: PairType(rng.randrange(4)) for p in pairs}
        )
        res = classify(g)
        if res.verdict == MINUS_K_CRITICAL:
            found = res
            break
    assert found is not None
    assert found.defect >= 2
    assert len(found.noncritical) == found.defect


def test_gen_r_classifies_to_family_r():
    res = classify(gen_R(3))
    assert res.verdict == MINUS_ONE_CRITICAL
    assert res.match.family == "gen_R"
    assert res.noncritical == (6,)


def test_gen_h_and_complement_classify_to_family_h():
    for g in (gen_H(3), complement(gen_H(3))):
        res = classify(g)
        assert res.verdict == MINUS_ONE_CRITICAL
        assert res.match.family == "gen_H"


# -- matches carry verified witnesses ------------------------------------------------


def test_match_witness_reverifies():
    rng = random.Random(517)
    members = enum_family_members(8)
    for m in rng.sample(members, 10):
        res = classify(m.graph)
        assert res.verdict == MINUS_ONE_CRITICAL
        assert relabel_match_graph(res.match, m.graph)


def relabel_match_graph(match, g):
    """Find the matched candidate again and check the witness relabels it
    onto the classified graph."""
    from indecomp.classifier import _candidate_records
    from indecomp.families import dispatch_keys as _dispatch_keys

    code = canonical_code(g)
    for key in _dispatch_keys(g.n, match.shape, match.noncritical):
        for rec_code, variant, params, member in _candidate_records(key):
            family, vg = member.family, member.graph
            if rec_code == code and family == match.family:
                return relabel(vg, list(match.witness)) == g
    return False


def test_classify_reads_the_enumeration_memo():
    from indecomp.classifier import _candidate_records

    assert _candidate_records is family_records
    family_records.cache_clear()
    members = enum_family_members(7) + enum_family_members(8)
    misses = family_records.cache_info().misses
    for m in members:
        assert classify(m.graph).verdict == MINUS_ONE_CRITICAL
    # dispatch keys spelled differently from the enumeration's would miss
    assert family_records.cache_info().misses == misses


def test_classify_makes_few_witness_misses():
    # the pairwise sweep reads the one-vertex deletions' witnesses back from
    # the memo and tests at most two partners per critical vertex; the
    # all-pairs sweep made 1 + n + n(n - 1)/2 = 56 misses here
    g = family_records(("F", 9, 0))[0][3].graph
    n = g.n
    _prime_mask.cache_clear()
    assert classify(g).verdict == MINUS_ONE_CRITICAL
    assert _prime_mask.cache_info().misses <= 1 + n + 2 * (n - 1)


def test_match_family_none_for_wrong_position():
    g = gen_R(3)
    ig = indecomposability_graph(g)
    shape = recognize_shape(ig, restricted_to=support(ig).component)
    # vertex 0 lies on the path, so the isolated-vertex dispatch of family R
    # never fires and the path-end candidates do not match
    assert match_family(g, shape, 0) is None


def test_match_family_preconditions():
    g = gen_R(3)
    ig = indecomposability_graph(g)
    shape = recognize_shape(ig, restricted_to=support(ig).component)
    with pytest.raises(DigraphError):
        match_family(gen_Q5(), shape, 2)
    with pytest.raises(DigraphError):
        match_family(g, shape, 9)


def test_match_family_other_shape_matches_nothing():
    g = gen_R(3)
    shape = ShapeDescriptor(kind="other", vertices=tuple(range(7)))
    assert match_family(g, shape, 6) is None


# -- the candidate-only pairwise sweep ------------------------------------------------


def all_pairs_edges(g):
    """I(G) by one primality test per vertex pair; every nonzero witness
    met on the way must be a nontrivial interval of its universe."""
    out, inn = g.out_rows, g.in_rows
    full = (1 << g.n) - 1
    edges = set()
    universes = [full ^ (1 << x) for x in range(g.n)]
    for x, y in itertools.combinations(range(g.n), 2):
        universes.append(full ^ (1 << x) ^ (1 << y))
        if _prime_mask(out, inn, universes[-1]):
            edges.add((x, y))
    for u in universes:
        w = _interval_witness(out, inn, u)
        if w:
            assert w & ~u == 0 and w != u and w & (w - 1), (g, u, w)
            assert _is_interval_mask(out, inn, w, u), (g, u, w)
    return frozenset(edges)


def test_ig_equals_the_all_pairs_sweep():
    graphs = [
        h
        for order in (7, 8, 9, 10)
        for m in enum_family_members(order)
        for h in (m.graph, complement(m.graph), dual(m.graph))
    ]
    graphs += [gen(n) for gen in (gen_T, gen_U, gen_V) for n in range(3, 9)]
    rng = random.Random(17)
    for order in range(5, 12):
        found = 0
        while found < 12:
            g = from_pair_types(order, {
                p: PairType(rng.randrange(4))
                for p in itertools.combinations(range(order), 2)
            })
            if is_indecomposable(g):
                graphs.append(g)
                found += 1
    shapes = set()
    for g in graphs:
        ig = indecomposability_graph(g)
        assert ig.edges == all_pairs_edges(g), g
        shapes.add(recognize_shape(ig).kind)
    assert {"path", "cycle", "star_tree", "other"} <= shapes


# -- round trips ----------------------------------------------------------------------


def test_round_trip_order_seven():
    for m in enum_family_members(7):
        res = classify(m.graph)
        assert res.verdict == MINUS_ONE_CRITICAL, (m.family, m.params)
        assert canonical_code(m.graph) == canonical_code(m.graph)


def test_round_trip_survives_relabeling():
    rng = random.Random(90321)
    members = enum_family_members(7)
    for m in rng.sample(members, 40):
        perm = list(range(7))
        rng.shuffle(perm)
        g = relabel(m.graph, perm)
        res = classify(g)
        assert res.verdict == MINUS_ONE_CRITICAL, (m.family, m.params, perm)


def test_complement_dual_verdicts_agree():
    rng = random.Random(2718)
    graphs = [gen_R(3), gen_H(3), gen_T(3), gen_Q5(), transitive_tournament(7)]
    members = enum_family_members(7)
    graphs += [m.graph for m in rng.sample(members, 8)]
    for g in graphs:
        base = classify(g)
        for h in (complement(g), dual(g)):
            other = classify(h)
            assert other.verdict == base.verdict
            assert other.defect == base.defect


def test_family_specific_members_roundtrip():
    for m in enum_class_F(6, 1):
        res = classify(m.graph)
        assert res.verdict == MINUS_ONE_CRITICAL
        assert res.match.family == "class_F"
    for m in enum_Hstar_even((2, 2, 2), False):
        res = classify(m.graph)
        assert res.verdict == MINUS_ONE_CRITICAL
        assert res.match.family == "hstar_even"
    for m in enum_class_Gdprime(3, 1, 1):
        res = classify(m.graph)
        assert res.verdict == MINUS_ONE_CRITICAL
        assert res.match.family == "class_Gdprime"


def test_multi_hits_recorded_not_fatal():
    res = classify(gen_H(3))
    assert len(res.match.all_hits) >= 1
    assert all(len(hit) == 2 for hit in res.match.all_hits)


def classify_sha256(order):
    h = hashlib.sha256()
    for m in enum_family_members(order):
        res = classify(m.graph)
        match = res.match
        for part in (
            res.verdict,
            match.family,
            json.dumps(match.params, sort_keys=True),
            match.variant,
            repr(match.witness),
            repr(match.all_hits),
            repr(match.shape),
        ):
            h.update(part.encode() + b"\n")
    return h.hexdigest()


# recorded with the hand-written shape dispatch that the family table replaced
CLASSIFY_SHA256 = {
    7: "d6e94e0e1dcf1214957b3042ee85432ccd0be1678dc37b2483515e0b6faed0e0",
    8: "c3e9d94e185842a7c9e78aa594c23c199b9f775da8ef333c5c7fc9202aa3c3d1",
    9: "380673e2469248ebbfbdb52b1a320ce7b537b5af7c474dcbef8ae0b2629cc7d8",
}


def test_classify_members_pinned_sha256():
    for order, digest in CLASSIFY_SHA256.items():
        assert classify_sha256(order) == digest, order
