"""Critical vertices, I(G), support component, shape recognition."""

from __future__ import annotations

import itertools
import random

import pytest

from indecomp.core import (
    DigraphError,
    MUTUAL,
    PairType,
    complement,
    dual,
    from_pair_types,
    make_digraph,
)
from indecomp.criticality import (
    check_lemma21,
    critical_vertices,
    indecomposability_graph,
    make_symgraph,
    recognize_shape,
    support,
    symgraph_to_dot,
)
from indecomp.modular import is_indecomposable, nontrivial_intervals

# Named graphs pinned as raw arc data so this file does not depend on the
# generator module it helps validate.

# 7 vertices; x < y: even->odd forward, same parity backward, odd<even absent
H7_ARCS = [
    (x, y)
    for x in range(7)
    for y in range(x + 1, 7)
    if x % 2 == 0 and y % 2 == 1
] + [
    (y, x)
    for x in range(7)
    for y in range(x + 1, 7)
    if x % 2 == y % 2
]

R7_ARCS = [
    (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5),
    (1, 6), (3, 6), (5, 6), (6, 0), (6, 2), (6, 4),
]

T5_ARCS = [
    (0, 1), (0, 2), (1, 2), (3, 4),
    (1, 3), (2, 3), (3, 0),
    (2, 4), (4, 0), (4, 1),
]

Q5_MUTUAL_PAIRS = [(0, 1), (0, 2), (0, 4), (2, 4), (3, 4)]


def h7():
    return make_digraph(7, H7_ARCS)


def r7():
    return make_digraph(7, R7_ARCS)


def t5():
    return make_digraph(5, T5_ARCS)


def q5():
    return from_pair_types(5, {p: MUTUAL for p in Q5_MUTUAL_PAIRS})


def random_digraph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    return from_pair_types(n, {p: PairType(rng.randrange(4)) for p in pairs})


def path_sym(n):
    return make_symgraph(n, [(i, i + 1) for i in range(n - 1)])


# -- critical_vertices ----------------------------------------------------------


def test_named_graphs_are_indecomposable():
    for g in (h7(), r7(), t5(), q5()):
        assert is_indecomposable(g)
        assert nontrivial_intervals(g) == []


def test_critical_vertices_frozen_examples():
    assert critical_vertices(h7()).noncritical == (0,)
    assert critical_vertices(h7()).defect == 1
    assert critical_vertices(r7()).noncritical == (6,)
    assert critical_vertices(t5()).noncritical == ()
    rep = critical_vertices(q5())
    assert rep.noncritical == (2,) and rep.defect == 1


def test_critical_vertices_against_oracle():
    rng = random.Random(31)
    done = 0
    while done < 30:
        g = random_digraph(rng.randrange(5, 8), rng)
        if nontrivial_intervals(g):
            continue
        done += 1
        rep = critical_vertices(g)
        assert sorted(rep.critical + rep.noncritical) == list(range(g.n))
        for x in range(g.n):
            kept = [v for v in range(g.n) if v != x]
            sub = make_digraph(
                g.n - 1,
                [
                    (kept.index(a), kept.index(b))
                    for a, b in g.arcs()
                    if a != x and b != x
                ],
            )
            decomposable = bool(nontrivial_intervals(sub))
            assert (x in rep.critical) == decomposable


def test_critical_vertices_rejects_decomposable():
    tt4 = make_digraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(DigraphError):
        critical_vertices(tt4)


# -- indecomposability graph -------------------------------------------------------


def test_ig_h7_is_the_full_cycle():
    ig = indecomposability_graph(h7())
    expected = {(i, i + 1) for i in range(6)} | {(0, 6)}
    assert ig.edges == frozenset(expected)
    shape = recognize_shape(ig)
    assert shape.kind == "cycle" and shape.cycle_vertices == 7
    assert shape.vertices == (0, 1, 2, 3, 4, 5, 6)


def test_ig_r7_path_plus_isolated_vertex():
    ig = indecomposability_graph(r7())
    assert ig.edges == frozenset((i, i + 1) for i in range(5))
    res = support(ig)
    assert res.component == (0, 1, 2, 3, 4, 5)
    assert res.isolated == (6,)
    shape = recognize_shape(ig, restricted_to=res.component)
    assert shape.kind == "path" and shape.path_edges == 5


def test_ig_q5_is_edgeless():
    ig = indecomposability_graph(q5())
    assert ig.edges == frozenset()
    res = support(ig)
    assert res.component is None and res.big_components == ()
    assert res.isolated == (0, 1, 2, 3, 4)
    assert recognize_shape(ig).kind == "edgeless"


def test_ig_matches_pairwise_deletion_oracle():
    rng = random.Random(32)
    done = 0
    while done < 20:
        g = random_digraph(rng.randrange(5, 8), rng)
        if nontrivial_intervals(g):
            continue
        done += 1
        ig = indecomposability_graph(g)
        for x, y in itertools.combinations(range(g.n), 2):
            kept = [v for v in range(g.n) if v not in (x, y)]
            sub = make_digraph(
                g.n - 2,
                [
                    (kept.index(a), kept.index(b))
                    for a, b in g.arcs()
                    if a in kept and b in kept
                ],
            )
            assert ig.has_edge(x, y) == (not nontrivial_intervals(sub))


def test_ig_preconditions():
    with pytest.raises(DigraphError):
        indecomposability_graph(make_digraph(3, [(0, 1), (2, 0)]))
    with pytest.raises(DigraphError):
        indecomposability_graph(make_digraph(5, []))


def test_ig_invariant_under_complement_and_dual():
    for g in (h7(), r7(), t5(), q5()):
        ig = indecomposability_graph(g)
        assert indecomposability_graph(complement(g)).edges == ig.edges
        assert indecomposability_graph(dual(g)).edges == ig.edges
        rep = critical_vertices(g)
        assert critical_vertices(complement(g)) == rep
        assert critical_vertices(dual(g)) == rep


# -- support ------------------------------------------------------------------------


def test_support_multiplicity_diagnostic():
    sg = make_symgraph(6, [(0, 1), (2, 3)])
    res = support(sg)
    assert res.component is None
    assert res.big_components == ((0, 1), (2, 3))
    assert res.isolated == (4, 5)


# -- shape recognition ----------------------------------------------------------------


def test_shape_path():
    shape = recognize_shape(path_sym(6))
    assert shape.kind == "path"
    assert shape.path_edges == 5
    assert shape.vertices == (0, 1, 2, 3, 4, 5)
    scrambled = make_symgraph(4, [(2, 3), (3, 1), (1, 0)])
    assert recognize_shape(scrambled).vertices == (0, 1, 3, 2)


def test_shape_cycle():
    edges = [(i, i + 1) for i in range(6)] + [(0, 6)]
    shape = recognize_shape(make_symgraph(7, edges))
    assert shape.kind == "cycle" and shape.cycle_vertices == 7
    assert shape.vertices[0] == 0 and shape.vertices[1] == 1


def test_shape_star_tree():
    # source 0 with branch edge-lengths 3, 2, 2
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)]
    shape = recognize_shape(make_symgraph(8, edges))
    assert shape.kind == "star_tree"
    assert shape.source == 0
    assert shape.branch_lengths == (2, 2, 3)
    assert shape.vertices == (0, 4, 5, 6, 7, 1, 2, 3)


def test_shape_other_cases():
    # two nontrivial components
    assert recognize_shape(make_symgraph(4, [(0, 1), (2, 3)])).kind == "other"
    # triangle with a tail: one high-degree vertex but not a tree
    tri_tail = make_symgraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert recognize_shape(tri_tail).kind == "other"
    # two branch points
    twin_star = make_symgraph(
        8,
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7)],
    )
    assert recognize_shape(twin_star).kind == "other"


def test_shape_edgeless_and_restriction():
    assert recognize_shape(make_symgraph(3, [])).kind == "edgeless"
    sg = make_symgraph(7, [(0, 1), (1, 2), (3, 4)])
    sub = recognize_shape(sg, restricted_to=[0, 1, 2])
    assert sub.kind == "path" and sub.path_edges == 2
    assert recognize_shape(sg, restricted_to=[3, 4]).kind == "path"
    assert recognize_shape(sg, restricted_to=[5, 6]).kind == "edgeless"


# -- lemma audit ------------------------------------------------------------------------


def test_check_lemma21_named_graphs():
    for g in (h7(), r7(), t5()):
        results = check_lemma21(g)
        crit = critical_vertices(g).critical
        assert sorted(results) == sorted(crit)
        assert all(results.values())


def test_check_lemma21_random_indecomposable():
    rng = random.Random(33)
    done = 0
    while done < 25:
        g = random_digraph(rng.randrange(5, 8), rng)
        if nontrivial_intervals(g):
            continue
        done += 1
        results = check_lemma21(g)
        assert tuple(results) == critical_vertices(g).critical
        assert all(results.values())


def test_check_lemma21_preconditions():
    with pytest.raises(DigraphError):
        check_lemma21(make_digraph(4, []))
    with pytest.raises(DigraphError):
        check_lemma21(make_digraph(6, []))


# -- export ------------------------------------------------------------------------------


def test_symgraph_to_dot():
    sg = make_symgraph(3, [(0, 1)])
    dot = symgraph_to_dot(sg, highlight=2)
    assert dot.startswith("graph")
    assert "0 -- 1;" in dot
    assert "2 [style=filled" in dot
