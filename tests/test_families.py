"""Named generators, parametric class enumerations, and their claims."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from indecomp import families
from indecomp.core import (
    DigraphError,
    MUTUAL,
    canonical_code,
    dual,
    find_isomorphism,
    from_pair_types,
    make_digraph,
    relabel,
    serialize_dg,
)
from indecomp.criticality import (
    ShapeDescriptor,
    critical_vertices,
    indecomposability_graph,
    make_symgraph,
    recognize_shape,
    shape_edges,
    support,
)
from indecomp.families import (
    FamilyMember,
    enum_class_F,
    enum_class_G,
    enum_class_Gdprime,
    enum_class_Gprime,
    enum_family_members,
    enum_Hstar_even,
    enum_Hstar_odd,
    dispatch_keys,
    family_records,
    gen_H,
    gen_Q5,
    gen_R,
    gen_T,
    gen_U,
    gen_V,
    verify_member_claims,
)
from indecomp.modular import TheoremViolation, is_indecomposable

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


def path_edges(count):
    return frozenset((i, i + 1) for i in range(count))


# -- named generators ---------------------------------------------------------------


def test_gen_h_smallest():
    assert gen_H(1) == make_digraph(3, [(0, 1), (2, 0)])


def test_gen_h_seven_matches_pinned_arcs():
    assert gen_H(3) == make_digraph(7, H7_ARCS)


def test_gen_r_seven_matches_pinned_arcs():
    assert gen_R(3) == make_digraph(7, R7_ARCS)


def test_gen_t_five_matches_pinned_arcs():
    assert gen_T(2) == make_digraph(5, T5_ARCS)


def test_tournaments_are_fully_critical():
    for g in (gen_T(2), gen_U(2), gen_V(2), gen_T(3), gen_U(3), gen_V(3)):
        assert is_indecomposable(g)
        report = critical_vertices(g)
        assert report.defect == 0
        assert report.noncritical == ()


def test_large_tournament_is_fully_critical():
    # order 81: the deletion sweep decides 82 universes of about 80 vertices
    report = critical_vertices(gen_T(40))
    assert report.defect == 0
    assert report.critical == tuple(range(81))


def test_gen_u_not_isomorphic_to_gen_t():
    assert find_isomorphism(gen_T(2), gen_U(2)) is None
    assert find_isomorphism(gen_T(3), gen_U(3)) is None


def test_gen_r_claims():
    g = gen_R(3)
    report = critical_vertices(g)
    assert report.noncritical == (6,)
    ig = indecomposability_graph(g)
    assert ig.edges == path_edges(5)


def test_gen_h_claims():
    g = gen_H(3)
    report = critical_vertices(g)
    assert report.noncritical == (0,)
    ig = indecomposability_graph(g)
    assert ig.edges == path_edges(6) | {(0, 6)}


def test_gen_r_and_gen_h_are_self_dual():
    for g in (gen_R(3), gen_R(4), gen_H(3), gen_H(4)):
        assert find_isomorphism(g, dual(g)) is not None


def test_gen_q5_claims():
    g = gen_Q5()
    assert g.n == 5
    report = critical_vertices(g)
    assert report.noncritical == (2,)
    assert indecomposability_graph(g).edges == frozenset()


def test_generator_preconditions():
    for fn in (gen_T, gen_U, gen_V, gen_R):
        with pytest.raises(DigraphError):
            fn(1)
    with pytest.raises(DigraphError):
        gen_H(0)


# -- class enumerations: membership counts pinned after a verified first run ---------


def test_enumeration_counts():
    assert len(enum_class_F(6, 0)) == 20
    assert len(enum_class_F(5, 1)) == 24
    assert len(enum_class_F(4, 2)) == 30
    assert len(enum_class_G(2, 0, True)) == 16
    assert len(enum_class_G(2, 1, True)) == 70
    assert len(enum_class_Gprime(3, 0)) == 12
    assert len(enum_class_Gprime(3, 1)) == 45
    assert len(enum_class_Gprime(3, 2)) == 12
    assert len(enum_class_Gdprime(3, 1, 0)) == 72
    assert len(enum_class_Gdprime(3, 2, 0)) == 72
    assert len(enum_class_Gdprime(2, 1, 2)) == 27
    assert len(enum_Hstar_even((2, 2, 2), False)) == 10
    assert len(enum_Hstar_odd((3, 2, 2))) == 72


def test_members_are_pairwise_nonisomorphic():
    members = enum_class_Gprime(3, 1)
    codes = {canonical_code(m.graph) for m in members}
    assert len(codes) == len(members)


def test_q5_appears_in_class_f():
    q5 = gen_Q5()
    hits = [m for m in enum_class_F(2, 2) if find_isomorphism(q5, m.graph)]
    assert len(hits) == 1


def test_class_gprime_empty_at_order_three():
    assert enum_class_Gprime(1, 0) == []


def test_enumeration_preconditions():
    with pytest.raises(DigraphError):
        enum_class_F(1, 0)
    with pytest.raises(DigraphError):
        enum_class_F(4, 3)
    with pytest.raises(DigraphError):
        enum_class_G(0, 0, False)
    with pytest.raises(DigraphError):
        enum_class_G(2, 2, False)
    with pytest.raises(DigraphError):
        enum_class_Gprime(2, 2)
    with pytest.raises(DigraphError):
        enum_class_Gdprime(1, 0, 0)
    with pytest.raises(DigraphError):
        enum_class_Gdprime(3, 0, 0)
    with pytest.raises(DigraphError):
        enum_Hstar_odd((2, 2, 2))
    with pytest.raises(DigraphError):
        enum_Hstar_odd((3, 2))
    with pytest.raises(DigraphError):
        enum_Hstar_odd((3, 3, 2))
    with pytest.raises(DigraphError):
        enum_Hstar_even((3, 2, 2), False)
    with pytest.raises(DigraphError):
        enum_Hstar_even((2, 2), True)


# -- claims carried by members --------------------------------------------------------


def test_class_f_claim_fields():
    for m in enum_class_F(6, 0):
        assert m.claimed_noncritical == 6
        assert m.claimed_shape.kind == "path"
        assert m.claimed_shape.vertices == tuple(range(7))
    for m in enum_class_F(2, 0):
        assert m.claimed_noncritical is None
        assert m.claimed_shape is None


def test_class_g_claim_fields():
    for m in enum_class_G(2, 1, True):
        assert m.claimed_noncritical == 3
        assert m.claimed_shape.kind == "path"
        assert m.claimed_shape.vertices == tuple(range(6))
    for m in enum_class_G(2, 0, False):
        assert m.claimed_noncritical is None


def test_class_gdprime_claim_fields():
    for m in enum_class_Gdprime(2, 1, 0):
        assert m.claimed_noncritical == 2
        assert m.claimed_shape.kind == "path"


def test_star_claim_fields():
    for m in enum_Hstar_odd((3, 2, 2)):
        assert m.claimed_noncritical == 0
        assert m.claimed_shape.kind == "star_tree"
        assert m.claimed_shape.source == 0
        assert m.claimed_shape.branch_lengths == (2, 2, 3)
    for m in enum_Hstar_even((2, 2, 4), True):
        assert m.claimed_noncritical == 0
        assert m.claimed_shape.branch_lengths == (2, 2, 4)


def test_checked_mode_verifies_whole_classes():
    for members in (
        enum_class_F(6, 0),
        enum_class_F(5, 1),
        enum_class_F(4, 2),
        enum_class_G(2, 0, True),
        enum_class_Gprime(3, 1),
        enum_class_Gdprime(3, 2, 0),
        enum_Hstar_even((2, 2, 2), False),
        enum_Hstar_odd((3, 2, 2)),
    ):
        for member in members:
            verify_member_claims(member)


def test_claims_hold_by_direct_recomputation():
    rng = random.Random(4721)
    pool = (
        enum_class_F(5, 1)
        + enum_class_G(2, 1, True)
        + enum_class_Gdprime(3, 1, 0)
        + enum_Hstar_odd((3, 2, 2))
    )
    for m in rng.sample(pool, 12):
        report = critical_vertices(m.graph)
        assert report.noncritical == (m.claimed_noncritical,)
        ig = indecomposability_graph(m.graph)
        got = {e for e in ig.edges}
        claimed_vertices = set(m.claimed_shape.vertices)
        for a, b in got:
            assert a in claimed_vertices and b in claimed_vertices


def test_verify_member_claims_catches_wrong_claims():
    good = enum_class_Gdprime(2, 1, 0)[0]
    bad = FamilyMember(
        graph=good.graph,
        family=good.family,
        params=good.params,
        claimed_noncritical=0,
        claimed_shape=good.claimed_shape,
    )
    with pytest.raises(TheoremViolation):
        verify_member_claims(bad)


def test_reversal_symmetry_maps_classes_to_themselves():
    for n, k in ((3, 0), (3, 1), (4, 2)):
        codes = {
            canonical_code(m.graph)
            for kk in range(n)
            for m in enum_class_Gprime(n, kk)
        }
        perm = [2 * n - x for x in range(2 * n + 1)]
        for m in enum_class_Gprime(n, k):
            assert canonical_code(relabel(m.graph, perm)) in codes
    for n, k, e in ((3, 1, 0), (2, 1, 2)):
        codes = {
            canonical_code(m.graph)
            for kk in range(1, n)
            for m in enum_class_Gdprime(n, kk, e)
        }
        perm = [2 * n - x for x in range(2 * n + 1)]
        if e == 2:
            perm += [2 * n + 2, 2 * n + 1]
        for m in enum_class_Gdprime(n, k, e):
            assert canonical_code(relabel(m.graph, perm)) in codes


# -- the order-indexed union -----------------------------------------------------------


def test_enum_family_members_order_seven_golden_count():
    members = enum_family_members(7)
    assert len(members) == 340
    codes = {canonical_code(m.graph) for m in members}
    assert len(codes) == 340
    assert all(m.graph.n == 7 for m in members)


def test_enum_family_members_counts():
    assert len(enum_family_members(8)) == 574
    assert len(enum_family_members(9)) == 582


def test_enum_family_members_checked_small_orders():
    enum_family_members(7, checked=True)
    enum_family_members(8, checked=True)


def test_enum_family_members_includes_closure_variants():
    members = enum_family_members(7)
    variants = {m.params.get("variant") for m in members}
    assert "complement" in variants
    assert "dual" in variants or "complement_dual" in variants


def test_enum_family_members_contains_named_graphs():
    members = enum_family_members(7)
    codes = {canonical_code(m.graph) for m in members}
    assert canonical_code(gen_H(3)) in codes
    assert canonical_code(gen_R(3)) in codes


def test_enum_family_members_deterministic():
    first = [serialize_dg(m.graph) for m in enum_family_members(7)]
    family_records.cache_clear()
    second = [serialize_dg(m.graph) for m in enum_family_members(7)]
    assert first == second


def members_sha256(order):
    h = hashlib.sha256()
    for m in enum_family_members(order):
        for part in (
            m.family,
            json.dumps(m.params, sort_keys=True),
            repr(m.claimed_noncritical),
            repr(m.claimed_shape),
            serialize_dg(m.graph),
        ):
            h.update(part.encode() + b"\n")
    return h.hexdigest()


# recorded with the enumeration that built every member list without a memo
MEMBERS_SHA256 = {
    7: "3baf8ac5afa2cf835bed7077cc3c4774b347b43f4cccd2262dc014d2e7969c7d",
    8: "df327254cc4118fcd8f309a10208470b5d7dc992043a907ef39f29402ebab8ee",
    9: "56b4fb14cb652c9b116ffbaa60cb2b6805de1edb98c5a4a11aae94e5ee1b549d",
    10: "d93e1c247241d9954f8b287f4f48720b0011674ac4b990ff615d79802e6573cb",
}


def test_enum_family_members_pinned_sha256():
    for order, digest in MEMBERS_SHA256.items():
        assert members_sha256(order) == digest, order


def star_records_sha256(order):
    h = hashlib.sha256()
    for key in families._family_keys(order):
        if key[0] not in ("SO", "SE"):
            continue
        for code, variant, params, member in family_records(key):
            for part in (
                repr(key),
                code.hex(),
                variant,
                json.dumps(params, sort_keys=True),
                serialize_dg(member.graph),
            ):
                h.update(part.encode() + b"\n")
    return h.hexdigest()


# recorded with the star generators that yielded every branch-type tuple
STAR_RECORDS_SHA256 = {
    7: "f3bbbee51294bbf8d9e901ebaa260efd71854d2bb9c6dfb6b9819e7f1e5250c1",
    8: "6c7f78d6d42e474e8d946b42098991795344c69133e43cfe74991eeaaccc8f29",
    9: "695b7a94bfdf5d884a8d11e9a2a0079b0625b7ca5be9fae24e1f120f650d88a2",
    10: "fa673e1d06c2c91f7c8c5d1d7a296b2537e44b2613578883ea0aef3cb4bf589c",
    11: "6d66935528279d017be81a339dc58c72f46590885f9556367518cc2ad1eab9cb",
    12: "52f875fed9abb17592d82a63da1063a89b70b40e5616d4473e27e129ad33eded",
}


def test_star_records_pinned_sha256():
    # swapping two equal branches is an isomorphism, so the branch-type
    # tuples that decrease along a run of equal lengths add no member
    for order, digest in STAR_RECORDS_SHA256.items():
        assert star_records_sha256(order) == digest, order


def test_checked_mode_verifies_on_cold_and_warm_memo(monkeypatch):
    # every base member plus every kept twin, as many as without a memo
    calls = []
    verify = families.verify_member_claims
    monkeypatch.setattr(
        families, "verify_member_claims", lambda m: calls.append(m) or verify(m)
    )
    family_records.cache_clear()
    for order, expected in ((7, 657), (8, 988)):
        for _ in ("cold", "warm"):
            calls.clear()
            enum_family_members(order, checked=True)
            assert len(calls) == expected, order


def test_enum_family_members_returns_fresh_lists():
    first = enum_family_members(7)
    expected = list(first)
    first.clear()
    first.append(None)
    assert enum_family_members(7) == expected


def test_family_records_rejects_unknown_key():
    for key in (
        ("X", 3), ("F", 5), ("G", 2, 0), ("SO",), (),
        ("SO", 5), ("F", "a", 0), ("H", 2.5), ("G", 2, 0, "x"),
        ("SO", [3, 2, 2]), ["H", 2], ("H", {}),
    ):
        with pytest.raises(DigraphError):
            family_records(key)


def test_family_records_checks_branch_lengths():
    # the key fails its branch rule before any edge of its layout is drawn
    with pytest.raises(DigraphError, match="other branch lengths must be even >= 2"):
        family_records(("SO", (3, 2, 2, -2)))
    with pytest.raises(DigraphError, match="branch lengths must be even >= 2"):
        family_records(("SE", (2, -2, 2), False))


def test_family_records_bounds_the_order_before_any_work(monkeypatch):
    # each key claims an order above MAX_ENUM_ORDER (21 and up): refused
    # before its shape is recognized or a candidate is built, whatever the
    # key's arguments would cost
    def no_work(*args):
        raise AssertionError("work done for an order above the bound")

    families._key_claims.cache_clear()
    monkeypatch.setattr(families, "_shape_of_edges", no_work)
    monkeypatch.setattr(families, "from_pair_types", no_work)
    for key in (("F", 20, 0), ("F", 10**9, 0), ("H", 10**6), ("SO", (3, 2, 10**9))):
        with pytest.raises(DigraphError, match="above"):
            family_records(key)


def test_enum_family_members_order_bounds():
    with pytest.raises(DigraphError):
        enum_family_members(6)
    with pytest.raises(DigraphError):
        enum_family_members(17)


def test_members_all_have_defect_one():
    rng = random.Random(90125)
    members = enum_family_members(7)
    for m in rng.sample(members, 25):
        report = critical_vertices(m.graph)
        assert report.defect == 1


# -- dispatch: keys looked up from the family table's claims ---------------------------


def relabelled_claim(order, shape, noncritical, perm):
    """The claimed shape and noncritical vertex after relabelling by perm."""
    edges = [(perm[a], perm[b]) for a, b in shape_edges(shape)]
    sym = make_symgraph(order, edges)
    return recognize_shape(sym, restricted_to=support(sym).component), perm[noncritical]


def test_dispatch_finds_every_key_from_its_claims():
    rng = random.Random(6101)
    for order in range(7, 17):
        # reverses every path, rotates every cycle, and an arbitrary relabelling
        reverse = list(range(order - 1, -1, -1))
        rotate = [(v + 3) % order for v in range(order)]
        shuffle = list(range(order))
        rng.shuffle(shuffle)
        for key in families._family_keys(order):
            _, noncritical, shape = families._key_claims(key)
            assert key in dispatch_keys(order, shape, noncritical), key
            for perm in (reverse, rotate, shuffle):
                relabelled = relabelled_claim(order, shape, noncritical, perm)
                assert key in dispatch_keys(order, *relabelled), (key, perm)


def test_dispatch_gives_no_keys_off_the_claims():
    for order in (7, 8, 9, 12):
        for kind in ("edgeless", "other"):
            shape = ShapeDescriptor(kind=kind, vertices=tuple(range(order)))
            for x in range(order):
                assert dispatch_keys(order, shape, x) == ()
        for key in families._family_keys(order):
            _, noncritical, shape = families._key_claims(key)
            if shape.kind == "star_tree":
                for x in shape.vertices[1:]:
                    assert dispatch_keys(order, shape, x) == (), (key, x)
