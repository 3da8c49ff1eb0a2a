"""Intervals, closure, indecomposability, outside-vertex partition."""

from __future__ import annotations

import itertools
import random

import pytest

from indecomp import modular
from indecomp.core import (
    DigraphError,
    PairType,
    bits_of,
    complement,
    from_pair_types,
    induced,
    make_digraph,
    mask_of,
    pair_type,
)
from indecomp.families import enum_family_members, family_records
from indecomp.modular import (
    OutsidePartition,
    TheoremViolation,
    _anchor_matches,
    _interval_witness,
    _is_interval_mask,
    _prime_mask,
    check_outside_rules,
    extend_by_two,
    is_indecomposable,
    is_interval,
    minimal_interval_containing,
    nontrivial_intervals,
    outside_partition,
    small_indecomposable_around,
)

# Frozen from the subset-enumeration oracle (both routes agreed exhaustively).
LABELLED_INDECOMPOSABLE = {3: 26, 4: 2460}


def chain(n):
    return make_digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def dirpath(n):
    """Arcs i -> i+1 only; indecomposable for every n >= 3."""
    return make_digraph(n, [(i, i + 1) for i in range(n - 1)])


def c3():
    return make_digraph(3, [(0, 1), (1, 2), (2, 0)])


def random_digraph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    return from_pair_types(
        n, {p: PairType(rng.randrange(4)) for p in pairs}
    )


def all_digraphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product(range(4), repeat=len(pairs)):
        yield from_pair_types(n, dict(zip(pairs, map(PairType, bits))))


# -- is_interval / nontrivial_intervals ------------------------------------------


def test_trivial_sets_are_intervals():
    g = random_digraph(6, random.Random(0))
    assert is_interval(g, [])
    for v in range(6):
        assert is_interval(g, [v])
    assert is_interval(g, range(6))


def test_chain_intervals_are_runs():
    g = chain(5)
    assert is_interval(g, [1, 2, 3])
    assert not is_interval(g, [1, 3])
    runs = [
        tuple(range(i, j))
        for i in range(5)
        for j in range(i + 2, 6)
        if j - i < 5
    ]
    assert nontrivial_intervals(g) == sorted(runs, key=lambda t: (len(t), t))


def test_nontrivial_intervals_bound():
    with pytest.raises(DigraphError):
        nontrivial_intervals(make_digraph(13, []))


# -- closure ------------------------------------------------------------------------


def test_minimal_interval_small_seeds():
    g = chain(5)
    assert minimal_interval_containing(g, []) == frozenset()
    assert minimal_interval_containing(g, [2]) == {2}
    assert minimal_interval_containing(g, [1, 3]) == {1, 2, 3}
    assert minimal_interval_containing(g, [0, 4]) == {0, 1, 2, 3, 4}


def test_closure_is_minimal_against_oracle():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randrange(3, 8)
        g = random_digraph(n, rng)
        intervals = [set(range(n))] + [set(t) for t in nontrivial_intervals(g)]
        u, v = rng.sample(range(n), 2)
        closed = minimal_interval_containing(g, [u, v])
        assert is_interval(g, closed)
        for candidate in intervals:
            if u in candidate and v in candidate:
                assert closed <= candidate


# -- indecomposability, two routes ----------------------------------------------------


def test_small_orders_are_indecomposable_by_convention():
    assert is_indecomposable(make_digraph(0, []))
    assert is_indecomposable(make_digraph(1, []))
    assert is_indecomposable(make_digraph(2, [(0, 1)]))


def test_known_small_graphs():
    assert is_indecomposable(c3())
    assert is_indecomposable(make_digraph(3, [(0, 1), (2, 0)]))
    assert not is_indecomposable(chain(3))
    assert not is_indecomposable(chain(6))
    for n in range(3, 9):
        assert is_indecomposable(dirpath(n))


def test_labelled_counts_match_oracle_exhaustively():
    for n, expected in LABELLED_INDECOMPOSABLE.items():
        count = 0
        for g in all_digraphs(n):
            via_oracle = not nontrivial_intervals(g)
            assert is_indecomposable(g) == via_oracle
            count += via_oracle
        assert count == expected


def test_routes_agree_on_random_samples():
    rng = random.Random(22)
    for _ in range(250):
        g = random_digraph(rng.randrange(5, 8), rng)
        assert is_indecomposable(g) == (not nontrivial_intervals(g))


# -- _prime_mask against the oracle ----------------------------------------------------


def oracle_prime(g, universe):
    return not nontrivial_intervals(induced(g, bits_of(universe))[0])


def planted_digraph(n, rng):
    """A random digraph in which a random subset of 2..n-1 vertices is made
    an interval: every outside vertex sees all of it as it sees the first."""
    g = random_digraph(n, rng)
    inside = rng.sample(range(n), rng.randrange(2, n))
    first = inside[0]
    types = {}
    for x, y in itertools.combinations(range(n), 2):
        if x in inside and y not in inside:
            types[(x, y)] = pair_type(g, first, y)
        elif y in inside and x not in inside:
            types[(x, y)] = pair_type(g, x, first)
        else:
            types[(x, y)] = pair_type(g, x, y)
    return from_pair_types(n, types)


def test_prime_mask_matches_oracle_on_every_order4_universe():
    _prime_mask.cache_clear()
    for g in all_digraphs(4):
        for u in range(1 << 4):
            assert _prime_mask(g.out_rows, g.in_rows, u) == oracle_prime(g, u), (g, u)


def test_interval_witness_is_a_nontrivial_interval_on_every_order4_universe():
    _prime_mask.cache_clear()
    for g in all_digraphs(4):
        for u in range(1 << 4):
            w = _interval_witness(g.out_rows, g.in_rows, u)
            assert (not w) == _prime_mask(g.out_rows, g.in_rows, u), (g, u)
            if w:
                assert w & ~u == 0 and w != u and w & (w - 1), (g, u, w)
                assert _is_interval_mask(g.out_rows, g.in_rows, w, u), (g, u, w)


def test_prime_mask_matches_oracle_on_random_graphs_and_deletions():
    # random digraphs are almost all prime from order 6 on; the planted ones
    # are decomposable, and so are many of their deletions
    rng = random.Random(41)
    _prime_mask.cache_clear()
    verdicts = set()
    for n, count in ((5, 60), (6, 60), (7, 40), (8, 24), (9, 10), (10, 4),
                     (11, 2), (12, 1)):
        full = (1 << n) - 1
        for _ in range(count):
            for g in (random_digraph(n, rng), planted_digraph(n, rng)):
                for u in [full] + [full ^ (1 << x) for x in range(n)]:
                    want = oracle_prime(g, u)
                    assert _prime_mask(g.out_rows, g.in_rows, u) == want, (g, u)
                    verdicts.add((n, want))
    assert all((n, want) in verdicts for n in range(5, 13) for want in (False, True))


def test_prime_mask_matches_oracle_on_member_deletions():
    # every one- and two-vertex deletion of the members of orders 7..9; the
    # complement and dual of a graph have its intervals, so the oracle runs
    # once per such class of induced subgraphs
    _prime_mask.cache_clear()
    verdicts = {}
    for order in (7, 8, 9):
        full = (1 << order) - 1
        for member in enum_family_members(order):
            g = member.graph
            for k in (1, 2):
                for xs in itertools.combinations(range(order), k):
                    u = full ^ mask_of(xs)
                    sub = induced(g, bits_of(u))[0]
                    flip = complement(sub)
                    key = min(sub.out_rows, sub.in_rows, flip.out_rows, flip.in_rows)
                    if key not in verdicts:
                        verdicts[key] = not nontrivial_intervals(sub)
                    got = _prime_mask(g.out_rows, g.in_rows, u)
                    assert got == verdicts[key], (g, xs)
    assert set(verdicts.values()) == {False, True}


def test_prime_mask_closes_once_on_a_prime_universe(monkeypatch):
    # a prime universe costs one closure at any order; the two refinements
    # decide the rest
    g = family_records(("F", 9, 0))[0][3].graph
    calls = []
    closure = modular._closure_mask
    monkeypatch.setattr(
        modular, "_closure_mask", lambda *args: calls.append(args) or closure(*args)
    )
    _prime_mask.cache_clear()
    assert _prime_mask(g.out_rows, g.in_rows, (1 << 10) - 1)
    assert len(calls) == 1


# -- outside partition -----------------------------------------------------------------


def test_partition_bracket_and_twin_cell():
    # triangle 0 -> 1 -> 2 -> 0; vertex 3 sees all of it forward;
    # vertex 4 is a twin of 0 (same types from 1 and 2).
    g = make_digraph(
        5,
        [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2), (4, 1), (2, 4)],
    )
    part = outside_partition(g, [0, 1, 2])
    assert part.subset == (0, 1, 2)
    assert part.bracket == (3,)
    assert part.cells == {0: (4,), 1: (), 2: ()}
    assert part.ext == ()
    assert part.class_of(3) == ("bracket",)
    assert part.class_of(4) == ("cell", 0)
    with pytest.raises(DigraphError):
        part.class_of(0)


def test_partition_ext():
    # hand-checked: adding vertex 3 keeps the graph indecomposable
    g = make_digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1)])
    part = outside_partition(g, [0, 1, 2])
    assert part.ext == (3,)
    assert part.bracket == ()
    assert all(not members for members in part.cells.values())
    sub, _ = induced(g, [0, 1, 2, 3])
    assert nontrivial_intervals(sub) == []


def test_partition_rejects_bad_subsets():
    g = random_digraph(6, random.Random(1))
    with pytest.raises(DigraphError):
        outside_partition(g, [0, 1])
    with pytest.raises(DigraphError):
        outside_partition(chain(6), [0, 1, 2])  # decomposable subset


def test_negative_vertex_rejected():
    g = dirpath(6)
    with pytest.raises(DigraphError, match="negative"):
        mask_of([0, -1])
    with pytest.raises(DigraphError, match="negative"):
        outside_partition(g, (-1, 0, 1))
    with pytest.raises(DigraphError, match="negative"):
        is_interval(g, [-1, 2])
    with pytest.raises(DigraphError, match="negative"):
        minimal_interval_containing(g, [-2])
    with pytest.raises(DigraphError, match="negative"):
        extend_by_two(g, [-1, 0, 1])


def _anchor_reference(g, subset, x):
    return [
        u for u in subset
        if all(pair_type(g, z, u) == pair_type(g, z, x)
               for z in subset if z != u)
    ]


def test_anchor_matches_mask_form_equals_pair_types():
    rng = random.Random(31)
    compared = found = 0
    for n in (5, 6, 7, 8):
        for _ in range(3):
            g = random_digraph(n, rng)
            for size in (3, 4):
                for subset in itertools.combinations(range(n), size):
                    xmask = mask_of(subset)
                    for x in range(n):
                        if x in subset:
                            continue
                        got = _anchor_matches(g.out_rows, g.in_rows, xmask, x)
                        want = _anchor_reference(g, subset, x)
                        assert got == want, (g, subset, x)
                        compared += 1
                        found += len(want)
    assert compared > 0 and found > 0


def test_prime_mask_memo_keys_on_rows():
    # two graphs of one order, asked about every universe in turn: a memo
    # keyed on the universe alone would hand one graph's verdicts to the
    # other
    rng = random.Random(32)
    n = 6
    g, h = random_digraph(n, rng), random_digraph(n, rng)
    universes = [
        mask_of(s) for size in range(3, n + 1)
        for s in itertools.combinations(range(n), size)
    ]
    want = {
        (k, u): not nontrivial_intervals(induced(graph, bits_of(u))[0])
        for k, graph in enumerate((g, h)) for u in universes
    }
    assert any(want[(0, u)] != want[(1, u)] for u in universes)
    _prime_mask.cache_clear()
    for label in ("cold", "warm"):
        for u in universes:
            for k, graph in enumerate((g, h)):
                got = _prime_mask(graph.out_rows, graph.in_rows, u)
                assert got == want[(k, u)], (label, k, u)
    info = _prime_mask.cache_info()
    assert info.misses == 2 * len(universes)
    assert info.hits == 2 * len(universes)


def test_check_outside_rules_needs_a_partition():
    g = dirpath(7)
    with pytest.raises(DigraphError):
        check_outside_rules(g, (0, 1, 2))
    assert check_outside_rules(g, outside_partition(g, (0, 1, 2))) >= 0


def test_partition_membership_matches_definitions():
    # class_of agrees with the definitional tests done via the oracle
    rng = random.Random(23)
    sampled = 0
    while sampled < 60:
        n = rng.randrange(5, 8)
        g = random_digraph(n, rng)
        subset = tuple(sorted(rng.sample(range(n), 3)))
        sub, _ = induced(g, subset)
        if nontrivial_intervals(sub):
            continue
        sampled += 1
        part = outside_partition(g, subset)
        for x in range(n):
            if x in subset:
                continue
            ext_sub, verts = induced(g, subset + (x,))
            prime = not nontrivial_intervals(ext_sub)
            kind = part.class_of(x)
            if kind == ("ext",):
                assert prime
            else:
                assert not prime
                pos = {v: i for i, v in enumerate(verts)}
                if kind == ("bracket",):
                    assert is_interval(ext_sub, [pos[v] for v in subset])
                else:
                    u = kind[1]
                    assert is_interval(ext_sub, [pos[u], pos[x]])


def test_outside_rules_hold_on_random_graphs():
    rng = random.Random(24)
    done = 0
    while done < 40:
        n = rng.randrange(6, 9)
        g = random_digraph(n, rng)
        subset = tuple(sorted(rng.sample(range(n), rng.choice((3, 4)))))
        sub, _ = induced(g, subset)
        if nontrivial_intervals(sub):
            continue
        done += 1
        assert check_outside_rules(g, outside_partition(g, subset)) >= 0


# -- growth lemmas ------------------------------------------------------------------------


def test_extend_by_two_on_directed_path():
    assert extend_by_two(dirpath(7), [0, 1, 2]) == (3, 4)
    assert extend_by_two(dirpath(7), [2, 3, 4]) == (0, 1)


def test_extend_by_two_returns_lex_least_and_valid():
    rng = random.Random(25)
    done = 0
    while done < 40:
        n = rng.randrange(6, 9)
        g = random_digraph(n, rng)
        if nontrivial_intervals(g):
            continue
        subset = tuple(sorted(rng.sample(range(n), 3)))
        sub, _ = induced(g, subset)
        if nontrivial_intervals(sub):
            continue
        done += 1
        x, y = extend_by_two(g, subset)
        outside = [v for v in range(n) if v not in subset]
        for a, b in itertools.combinations(outside, 2):
            grown, _ = induced(g, subset + (a, b))
            prime = not nontrivial_intervals(grown)
            if (a, b) == (x, y):
                assert prime
                break
            assert not prime


def test_extend_by_two_misuse():
    with pytest.raises(DigraphError):
        extend_by_two(dirpath(7), [0, 1])
    with pytest.raises(DigraphError):
        extend_by_two(dirpath(5), [0, 1, 2, 3])  # only one vertex outside
    with pytest.raises(DigraphError):
        extend_by_two(chain(7), [0, 1, 2])  # decomposable subset
    # decomposable whole graph with no working pair: misuse, not a violation
    g = make_digraph(7, [(0, 1), (1, 2)])  # four isolated vertices
    with pytest.raises(DigraphError):
        extend_by_two(g, [0, 1, 2])


def test_small_indecomposable_around_directed_path():
    assert small_indecomposable_around(dirpath(5), 0) == (0, 1, 2, 3)
    # earlier companion triples leave 5 (or a tail run) split off
    assert small_indecomposable_around(dirpath(6), 5) == (2, 3, 4, 5)


def test_small_indecomposable_around_properties():
    rng = random.Random(26)
    done = 0
    while done < 40:
        n = rng.randrange(5, 8)
        g = random_digraph(n, rng)
        if nontrivial_intervals(g):
            continue
        done += 1
        a = rng.randrange(n)
        found = small_indecomposable_around(g, a)
        assert a in found and len(found) in (4, 5)
        sub, _ = induced(g, found)
        assert nontrivial_intervals(sub) == []
        if len(found) == 5:
            others = [v for v in range(n) if v != a]
            for rest in itertools.combinations(others, 3):
                four, _ = induced(g, (a,) + rest)
                assert nontrivial_intervals(four) != []


def test_small_indecomposable_around_misuse():
    with pytest.raises(DigraphError):
        small_indecomposable_around(dirpath(4), 0)
    with pytest.raises(DigraphError):
        small_indecomposable_around(chain(6), 0)
    with pytest.raises(DigraphError):
        small_indecomposable_around(dirpath(5), 9)
