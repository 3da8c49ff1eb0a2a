"""Tests for the survey harness: exhaustive kernels, random sampling,
mutation passes, determinism, and the generator round trip."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from indecomp.classifier import (
    DECOMPOSABLE,
    MINUS_ONE_CRITICAL,
    THEOREM_VIOLATION,
    classify,
)
from indecomp.core import (
    DigraphError,
    canonical_code,
    from_pair_types,
    mask_of,
    pair_type,
)
from indecomp.criticality import check_lemma21
from indecomp.families import enum_family_members
from indecomp.harness import (
    AUDIT_NAMES,
    EXHAUSTIVE_BOUND,
    RANDOM_ORDER_BOUND,
    roundtrip_check,
    survey_exhaustive,
    survey_random,
)
from indecomp.modular import (
    TheoremViolation,
    _prime_mask,
    check_outside_rules,
    extend_by_two,
    is_indecomposable,
    nontrivial_intervals,
    outside_partition,
    small_indecomposable_around,
)
import indecomp.harness as harness


def report_key(report):
    """Deterministic portion of a report (elapsed and workers excluded)."""
    return (
        report.order,
        report.mode,
        report.visited,
        tuple(sorted(report.verdict_counts.items())),
        tuple(sorted((k, v["checked"], v["failed"]) for k, v in report.audits.items())),
        report.defect_one_codes,
        report.seeds,
        report.samples,
        report.mutants,
    )


def exhaustive_kernel(order):
    """Kernel over every labeled graph of the order, row i being the graph
    whose base-4 pair-digit integer is i."""
    npairs = order * (order - 1) // 2
    idx = np.arange(4 ** npairs)
    digits = (idx[:, None] >> (2 * np.arange(npairs))) & 3
    return harness._Kernel(order, digits.astype(np.uint8))


def random_kernel(order, rows, seed):
    npairs = order * (order - 1) // 2
    rng = np.random.default_rng(seed)
    return harness._Kernel(order, rng.integers(0, 4, (rows, npairs), dtype=np.uint8))


# -- exhaustive kernel --------------------------------------------------------------


@pytest.mark.parametrize("order", [3, 4])
def test_closure_prime_matches_subset_prime_on_every_row(order):
    k = exhaustive_kernel(order)
    assert np.array_equal(k.closure_prime(), k.subset_prime(range(order)))


@pytest.mark.parametrize("order, seed", [(5, 55), (6, 66)])
def test_closure_prime_matches_subset_prime_on_random_rows(order, seed):
    k = random_kernel(order, 20_000, seed)
    closure = k.closure_prime()
    assert np.array_equal(closure, k.subset_prime(range(order)))
    assert 0 < k.rows(closure).sum() < k.count


def twin_planted_kernel(order, rows, seed):
    """Kernel over seeded random rows, where every second row has a random
    vertex pair made twins (each other vertex relates to both alike), so
    both verdicts occur at every order."""
    pairs = list(itertools.combinations(range(order), 2))
    column = {pair: p for p, pair in enumerate(pairs)}
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 4, (rows, len(pairs)), dtype=np.uint8)
    for row in range(0, rows, 2):
        a, b = (int(v) for v in rng.choice(order, 2, replace=False))
        for z in range(order):
            if z in (a, b):
                continue
            # the digit of (z, a), read as the type of the ordered pair
            digit = digits[row, column[tuple(sorted((z, a)))]]
            kind = digit if z < a else (digit & 1) << 1 | digit >> 1
            copied = kind if z < b else (kind & 1) << 1 | kind >> 1
            digits[row, column[tuple(sorted((z, b)))]] = copied
    return harness._Kernel(order, digits)


@pytest.mark.parametrize("order, seed", [(8, 81), (9, 91), (12, 121)])
def test_closure_prime_matches_reference_above_uint8(order, seed):
    # orders past the exhaustive sweep's, up to RANDOM_ORDER_BOUND (12)
    k = twin_planted_kernel(order, 120, seed)
    closure = k.rows(k.closure_prime())
    reference = [is_indecomposable(k.graph_at(row)) for row in range(k.count)]
    assert closure.tolist() == reference
    assert 0 < closure.sum() < k.count


def test_dual_route_catches_a_wrong_closure_route(monkeypatch):
    # every one of the 4096 - 2460 decomposable order-4 rows must fail
    monkeypatch.setattr(harness._Kernel, "closure_prime", lambda self: self.ones)
    report = survey_exhaustive(4)
    assert report.audits["indec_dual_route"] == {"checked": 4096, "failed": 1636}


def test_isomorphism_keys_are_brute_force_minima():
    k = exhaustive_kernel(4)
    rows = np.arange(0, k.count, 37)
    keys = harness._isomorphism_keys(k, rows)
    for row, key in zip(rows, keys):
        g = k.graph_at(int(row))
        assert key == min(
            sum(int(pair_type(g, s[x], s[y])) << (2 * p) for p, (x, y) in enumerate(k.pairs))
            for s in itertools.permutations(range(4))
        )
        assert key <= row


def test_isomorphism_keys_agree_with_canonical_codes():
    # two order-4 graphs share a canonical code exactly when they share a
    # permutation-minimum key
    k = exhaustive_kernel(4)
    keys = harness._isomorphism_keys(k, np.arange(k.count))
    codes = [canonical_code(k.graph_at(row)) for row in range(k.count)]
    pairs = set(zip(keys.tolist(), codes))
    assert len(pairs) == len(set(keys.tolist())) == len(set(codes))


def test_isomorphism_keys_refuse_orders_above_their_bound():
    # an order-9 key needs 72 bits; numpy has no integer that wide
    with pytest.raises(DigraphError, match="order 9 above bound 8"):
        harness._isomorphism_keys(random_kernel(9, 4, 9), np.arange(4))


def per_graph_audits(g, tallies):
    """The per-graph audit loop random mode ran before its audits moved
    onto the kernel, kept as the reference for the kernel's tallies.
    outside_partition is checked once per prime subset, and a
    TheoremViolation there fails both it and extension_rules."""
    prime = is_indecomposable(g)
    out, inn = g.out_rows, g.in_rows
    for size in (3, 4):
        if size > g.n - 1:
            continue
        for xs in itertools.combinations(range(g.n), size):
            if not _prime_mask(out, inn, mask_of(xs)):
                continue
            tallies["outside_partition"]["checked"] += 1
            try:
                part = outside_partition(g, xs)
            except TheoremViolation:
                tallies["outside_partition"]["failed"] += 1
                tallies["extension_rules"]["failed"] += 1
                continue
            try:
                tallies["extension_rules"]["checked"] += check_outside_rules(g, part)
            except TheoremViolation:
                tallies["extension_rules"]["failed"] += 1
    if not prime:
        return
    for size in (3, 4):
        if g.n - size < 2:
            continue
        for xs in itertools.combinations(range(g.n), size):
            if not _prime_mask(out, inn, mask_of(xs)):
                continue
            tallies["two_vertex_extension"]["checked"] += 1
            try:
                extend_by_two(g, xs)
            except TheoremViolation:
                tallies["two_vertex_extension"]["failed"] += 1
    if g.n >= 5:
        for a in range(g.n):
            tallies["small_indecomposable"]["checked"] += 1
            try:
                small_indecomposable_around(g, a)
            except TheoremViolation:
                tallies["small_indecomposable"]["failed"] += 1
        results = check_lemma21(g)
        tallies["critical_vertex_rules"]["checked"] += len(results)
        tallies["critical_vertex_rules"]["failed"] += sum(
            not ok for ok in results.values()
        )


def seeded_digits(order, rows, seed):
    npairs = order * (order - 1) // 2
    return np.random.default_rng(seed).integers(0, 4, (rows, npairs)).astype(np.uint8)


def mutant_digits(order, seed):
    pairs = list(itertools.combinations(range(order), 2))
    return harness._mutant_digits(order, pairs, np.random.default_rng(seed))


@pytest.mark.parametrize("order, make", [
    (6, lambda: seeded_digits(6, 300, 606)),
    (7, lambda: seeded_digits(7, 200, 707)),
    (8, lambda: seeded_digits(8, 120, 808)),
    (7, lambda: mutant_digits(7, 77)),
], ids=["order6", "order7", "order8", "mutants7"])
def test_kernel_audits_match_the_per_graph_routines(order, make):
    digits = make()
    pairs = list(itertools.combinations(range(order), 2))
    graphs = [from_pair_types(order, dict(zip(pairs, t))) for t in digits.tolist()]
    want = harness._new_tallies()
    for g in graphs:
        per_graph_audits(g, want)
    got = harness._new_tallies()
    k, closure, oracle, _ = harness._audit_block(
        order, digits, AUDIT_NAMES, got, per_subset=True
    )
    names = ("outside_partition", "extension_rules", "two_vertex_extension",
             "small_indecomposable", "critical_vertex_rules")
    assert {n: got[n] for n in names} == {n: want[n] for n in names}
    assert all(want[n]["checked"] > 0 for n in names)
    prime = [is_indecomposable(g) for g in graphs]
    assert k.rows(closure).tolist() == prime
    assert k.rows(oracle).tolist() == prime


@pytest.mark.parametrize("rows", [1, 63, 65, 1000])
def test_kernel_row_sets_are_packed_with_a_zero_tail(rows):
    k = random_kernel(5, rows, rows)
    whole = k.subset_prime(range(5))
    noncrit = [k.subset_prime([v for v in range(5) if v != x]) for x in range(5)]
    sets = [k.closure_prime(), whole, *noncrit, k.subset_prime((0, 2, 3)),
            k.same((0, 1), (0, 2)), *harness._verdict_bits(k, whole, noncrit)]
    for bits in [k.ones, *sets]:
        assert type(bits) is int and bits >= 0 and bits >> rows == 0
    assert k.ones.bit_count() == rows and k.rows(k.ones).all()
    graphs = [k.graph_at(row) for row in range(k.count)]
    assert k.rows(sets[0]).tolist() == [is_indecomposable(g) for g in graphs]
    assert k.rows(whole).tolist() == [not nontrivial_intervals(g) for g in graphs]
    verdicts = np.stack([k.rows(bits) for bits in sets[-4:]])
    assert (verdicts.sum(axis=0) == 1).all()
    names = [harness._EXHAUSTIVE_VERDICTS[i] for i in np.argmax(verdicts, axis=0)]
    assert names == [classify(g).verdict for g in graphs]


def test_one_canonical_search_per_class(monkeypatch):
    # 127 defect-one classes of order 5; each chunk searched its own again
    # (444 searches) before the codes were memoized on the isomorphism key
    calls = []
    real = harness.canonical_code
    monkeypatch.setattr(harness, "canonical_code", lambda g: calls.append(g) or real(g))
    harness._class_code.cache_clear()
    report = survey_exhaustive(5)
    assert len(calls) == len(report.defect_one_codes) == 127


def test_negated_three_subsets_fail_pinned_tallies(monkeypatch):
    # every tally recorded at the commit before the row sets were packed,
    # so the packed counters count failed rows as the bool arrays did
    real = harness._Kernel.subset_prime

    def negated(self, subset):
        got = real(self, subset)
        return self.ones ^ got if len(set(subset)) == 3 else got

    monkeypatch.setattr(harness._Kernel, "subset_prime", negated)
    assert survey_exhaustive(5).audits == {
        "indec_dual_route": {"checked": 1048576, "failed": 0},
        "outside_partition": {"checked": 15600640, "failed": 4034560},
        "extension_rules": {"checked": 1560480, "failed": 782400},
        "two_vertex_extension": {"checked": 4732560, "failed": 0},
        "small_indecomposable": {"checked": 4213320, "failed": 0},
        "critical_vertex_rules": {"checked": 1310520, "failed": 1310520},
        "family_classification": {"checked": 0, "failed": 0},
        "kernel_reference": {"checked": 256, "failed": 0},
    }


@pytest.mark.parametrize("order, digest", [
    (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, "7c7c12f48e8b98db403c4696dd752d9a56f7599fc14075cca0735e3800a38829"),
])
def test_exhaustive_defect_one_codes_pinned(order, digest):
    # recorded while canonical_code still ran on every defect-one row
    codes = survey_exhaustive(order).defect_one_codes
    assert hashlib.sha256("\n".join(codes).encode()).hexdigest() == digest


@pytest.mark.parametrize("order, digest", [
    (3, "125a3d3f9e3741a146c5682955f77c03a804fc6822c10c7e59411d29ffcb5be2"),
    (4, "fdf3365d06ff06ee21e8b7c65da90b1a9e57e2674c27ce39772637d03bd4d887"),
    (5, "9184be8cedeb32ba4027a8cabf3ea821dc82660d946d93716da37748005ae1da"),
])
def test_exhaustive_reports_pinned(order, digest):
    # recorded before the kernel stored its type tensor pair-major: verdicts,
    # every audit tally and the defect-one codes, elapsed left out
    report = survey_exhaustive(order).to_json()
    del report["elapsed"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- exhaustive mode ----------------------------------------------------------------


def test_exhaustive_order3_counts():
    report = survey_exhaustive(3)
    assert report.visited == 64
    assert report.verdict_counts["decomposable"] == 64 - 26
    assert sum(report.verdict_counts.values()) == 64
    assert report.ok


def test_exhaustive_order4_counts():
    report = survey_exhaustive(4)
    assert report.visited == 4096
    assert report.verdict_counts["decomposable"] == 4096 - 2460
    assert report.verdict_counts["critical"] == 60
    assert report.verdict_counts["out_of_scope_order"] == 576
    assert report.verdict_counts["minus_k_critical"] == 1824
    assert sum(report.verdict_counts.values()) == 4096
    assert report.audits["indec_dual_route"]["checked"] == 4096
    assert report.failures == 0
    assert report.defect_one_codes
    assert list(report.defect_one_codes) == sorted(set(report.defect_one_codes))


def test_exhaustive_audit_tallies_present():
    report = survey_exhaustive(4)
    assert set(report.audits) == set(AUDIT_NAMES)
    assert report.audits["outside_partition"]["checked"] > 0
    assert report.audits["kernel_reference"]["checked"] > 0


def test_exhaustive_rejects_bad_orders():
    with pytest.raises(DigraphError):
        survey_exhaustive(2)
    with pytest.raises(DigraphError):
        survey_exhaustive(EXHAUSTIVE_BOUND + 1)
    with pytest.raises(DigraphError, match=r"in 3\.\.5$"):
        survey_exhaustive(6)


def test_exhaustive_deterministic():
    first = survey_exhaustive(4)
    second = survey_exhaustive(4)
    assert report_key(first) == report_key(second)


def test_exhaustive_worker_count_invisible(monkeypatch):
    monkeypatch.setattr(harness, "EXHAUSTIVE_CHUNK", 1024)
    solo = survey_exhaustive(4, workers=1)
    duo = survey_exhaustive(4, workers=2)
    assert report_key(solo) == report_key(duo)
    assert duo.workers == 2


def test_exhaustive_chunk_callback():
    records = []
    survey_exhaustive(3, on_chunk=records.append)
    assert len(records) == 1
    assert records[0]["visited"] == 64
    assert records[0]["failures"] == 0


def test_exhaustive_chunk_records_pinned(monkeypatch):
    # recorded before both survey modes shared one chunk runner
    monkeypatch.setattr(harness, "EXHAUSTIVE_CHUNK", 1024)
    records = []
    survey_exhaustive(4, on_chunk=records.append)
    assert records == [
        {"chunk": [0, 1024], "visited": 1024, "failures": 0},
        {"chunk": [1024, 2048], "visited": 1024, "failures": 0},
        {"chunk": [2048, 3072], "visited": 1024, "failures": 0},
        {"chunk": [3072, 4096], "visited": 1024, "failures": 0},
    ]
    assert all(list(r) == ["chunk", "visited", "failures"] for r in records)


def test_kernel_reference_agrees_on_every_row(monkeypatch):
    monkeypatch.setattr(harness, "KERNEL_SAMPLE_STRIDE", 1)
    report = survey_exhaustive(4)
    assert report.audits["kernel_reference"] == {"checked": 4096, "failed": 0}


def record_classify(monkeypatch):
    """Patch harness.classify to keep every outcome it returns."""
    seen = []
    real = harness.classify

    def recording(g):
        seen.append(real(g))
        return seen[-1]

    monkeypatch.setattr(harness, "classify", recording)
    return seen


@pytest.mark.parametrize("order", [3, 4])
def test_kernel_reference_samples_a_prime_row(monkeypatch, order):
    seen = record_classify(monkeypatch)
    report = survey_exhaustive(order)
    assert report.audits["kernel_reference"] == {"checked": 1, "failed": 0}
    assert len(seen) == 1 and seen[0].verdict != DECOMPOSABLE


def test_kernel_reference_windows_alternate(monkeypatch):
    # prime-row and decomposable-row windows take turns
    seen = record_classify(monkeypatch)
    monkeypatch.setattr(harness, "KERNEL_SAMPLE_STRIDE", 512)
    report = survey_exhaustive(4)
    assert report.audits["kernel_reference"] == {"checked": 8, "failed": 0}
    assert [o.verdict == DECOMPOSABLE for o in seen] == [False, True] * 4


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("classify", lambda real: lambda g: dataclasses.replace(
            real(g), verdict=THEOREM_VIOLATION)),
        ("classify", lambda real: lambda g: dataclasses.replace(real(g), defect=-1)),
        ("is_indecomposable", lambda real: lambda g: not real(g)),
    ],
    ids=["wrong_verdict", "wrong_defect", "negated_primality"],
)
def test_kernel_reference_catches_disagreement(monkeypatch, name, wrong):
    monkeypatch.setattr(harness, name, wrong(getattr(harness, name)))
    tally = survey_exhaustive(3).audits["kernel_reference"]
    assert tally["checked"] > 0
    assert tally["failed"] == tally["checked"]


def test_pool_sized_by_chunk_count(monkeypatch):
    requested = []

    class FakePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, chunks):
            return map(fn, chunks)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(harness, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(harness, "EXHAUSTIVE_CHUNK", 16)
    solo = survey_exhaustive(3)
    assert requested == []
    assert report_key(survey_exhaustive(3, workers=64)) == report_key(solo)
    assert report_key(survey_exhaustive(3, workers=2)) == report_key(solo)
    assert requested == [4, 2]


@pytest.mark.parametrize("workers", [0, -3])
def test_surveys_reject_worker_count_below_one(workers):
    with pytest.raises(DigraphError, match="workers"):
        survey_exhaustive(3, workers=workers)
    with pytest.raises(DigraphError, match="workers"):
        survey_random(5, 3, 0, workers=workers)


def test_report_json_shape():
    report = survey_exhaustive(3)
    data = report.to_json()
    for key in ("order", "mode", "visited", "verdicts", "audits",
                "defect_one_codes", "elapsed", "ok"):
        assert key in data
    assert data["ok"] is True
    assert data["mode"] == "exhaustive"


# -- random mode ------------------------------------------------------------------


def test_random_counts_and_mutants():
    report = survey_random(7, 100, 4321)
    assert report.samples == 100
    assert report.mutants == 340
    assert report.visited == 100 + 340
    assert sum(report.verdict_counts.values()) == report.visited
    assert report.ok


def test_random_deterministic():
    first = survey_random(7, 150, 98765)
    second = survey_random(7, 150, 98765)
    assert report_key(first) == report_key(second)


def test_random_seed_changes_outcome():
    first = survey_random(8, 80, 1, mutate_members=False)
    second = survey_random(8, 80, 2, mutate_members=False)
    assert report_key(first) != report_key(second)


def test_random_no_mutants_below_enum_range():
    report = survey_random(5, 60, 11)
    assert report.mutants == 0
    assert report.visited == 60


def test_random_mutants_only():
    report = survey_random(7, 0, 2024)
    assert report.samples == 0
    assert report.mutants == 340
    assert report.visited == 340
    assert report.ok


def test_random_mutants_can_be_disabled():
    report = survey_random(7, 40, 77, mutate_members=False)
    assert report.mutants == 0
    assert report.visited == 40


def test_random_audit_subset():
    report = survey_random(6, 60, 5150, audits=("indec_dual_route",))
    assert report.audits["indec_dual_route"]["checked"] == 60
    assert report.audits["outside_partition"]["checked"] == 0
    assert report.audits["two_vertex_extension"]["checked"] == 0
    assert report.audits["critical_vertex_rules"]["checked"] == 0


def test_random_rejects_bad_input():
    with pytest.raises(DigraphError):
        survey_random(RANDOM_ORDER_BOUND + 1, 10, 0)
    with pytest.raises(DigraphError):
        survey_random(2, 10, 0)
    with pytest.raises(DigraphError):
        survey_random(7, -1, 0)


def test_random_rejects_unknown_audit():
    with pytest.raises(DigraphError, match="bogus"):
        survey_random(6, 5, 0, audits=("bogus",))
    with pytest.raises(DigraphError):
        survey_random(6, 5, 0, audits=("extension_rules", "extension_rule"))


def test_random_rejects_negative_seed():
    with pytest.raises(DigraphError, match="seed"):
        survey_random(6, 5, -1)
    with pytest.raises(DigraphError, match="seed"):
        survey_random(7, 0, -3)  # mutants only: still rejected


def test_extension_rules_alone_match_all_audits():
    # the audit shares one outside partition per subset with the
    # outside_partition audit; running it alone must count the same
    alone = survey_random(7, 60, 4242, audits=("extension_rules",),
                          mutate_members=False)
    full = survey_random(7, 60, 4242, mutate_members=False)
    assert alone.audits["extension_rules"]["checked"] > 0
    assert alone.audits["extension_rules"] == full.audits["extension_rules"]
    assert alone.audits["outside_partition"] == {"checked": 0, "failed": 0}


def test_random_defect_one_codes_recorded():
    # mutants of family members frequently stay defect one, so the code
    # list is nonempty and deduplicated
    report = survey_random(7, 0, 31337)
    assert report.defect_one_codes
    assert list(report.defect_one_codes) == sorted(set(report.defect_one_codes))


def test_random_chunk_records_pinned(monkeypatch):
    # recorded before the sample and mutant chunks shared one chunk function
    monkeypatch.setattr(harness, "RANDOM_CHUNK", 40)
    records = []
    report = survey_random(7, 100, 5, on_chunk=records.append)
    assert records == [
        {"chunk": 0, "visited": 40, "mutants": 0, "failures": 0},
        {"chunk": 1, "visited": 40, "mutants": 0, "failures": 0},
        {"chunk": 2, "visited": 20, "mutants": 0, "failures": 0},
        {"chunk": 3, "visited": 340, "mutants": 340, "failures": 0},
    ]
    assert all(list(r) == ["chunk", "visited", "mutants", "failures"] for r in records)
    assert report.verdict_counts == {
        "critical": 1,
        "decomposable": 35,
        "minus_k_critical": 384,
        "minus_one_critical": 20,
    }
    assert report.audits == {
        "critical_vertex_rules": {"checked": 1326, "failed": 0},
        "extension_rules": {"checked": 13295, "failed": 0},
        "family_classification": {"checked": 20, "failed": 0},
        "indec_dual_route": {"checked": 440, "failed": 0},
        "kernel_reference": {"checked": 0, "failed": 0},
        "outside_partition": {"checked": 8149, "failed": 0},
        "small_indecomposable": {"checked": 2835, "failed": 0},
        "two_vertex_extension": {"checked": 7832, "failed": 0},
    }
    assert len(report.defect_one_codes) == 19


def test_theorem_violation_counts_once(monkeypatch):
    # a theorem_violation verdict is a failed family_classification audit;
    # failures must not count it a second time from the verdicts
    real = harness.classify

    def demoted(g):
        outcome = real(g)
        if outcome.verdict == MINUS_ONE_CRITICAL:
            return dataclasses.replace(outcome, verdict=THEOREM_VIOLATION)
        return outcome

    monkeypatch.setattr(harness, "classify", demoted)
    records = []
    report = survey_random(7, 0, 2024, on_chunk=records.append)
    assert report.verdict_counts[THEOREM_VIOLATION] == 18
    assert report.audits["family_classification"]["failed"] == 18
    assert report.failures == 18
    assert sum(r["failures"] for r in records) == 18
    assert not report.ok


def record_audited_graphs(monkeypatch):
    """Patch harness._audit_graph to keep every graph random mode visits."""
    seen = []
    real = harness._audit_graph

    def recording(g, *args):
        seen.append(g)
        return real(g, *args)

    monkeypatch.setattr(harness, "_audit_graph", recording)
    return seen


def chunk_rng(seed, chunk_index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )


def test_sample_block_is_the_scalar_stream(monkeypatch):
    # criterion 10 draws graphs one at a time with _random_graph; a sample
    # chunk draws its digit block from the same stream
    monkeypatch.setattr(harness, "RANDOM_CHUNK", 30)
    seen = record_audited_graphs(monkeypatch)
    survey_random(7, 50, 321, mutate_members=False)
    pairs = list(itertools.combinations(range(7), 2))
    want = []
    for index, count in ((0, 30), (1, 20)):
        rng = chunk_rng(321, index)
        want += [harness._random_graph(7, pairs, rng) for _ in range(count)]
    assert seen == want


def scalar_mutant(g, pairs, rng):
    """g with one random pair set to a random type other than its own, one
    member at a time, as random mode drew mutants before it drew them as a
    digit block."""
    x, y = pairs[int(rng.integers(0, len(pairs)))]
    old = int(pair_type(g, x, y))
    new = int(rng.integers(0, 3))
    if new >= old:
        new += 1
    types = {p: pair_type(g, *p) for p in pairs}
    types[(x, y)] = new
    return from_pair_types(g.n, types)


@pytest.mark.parametrize("order", [7, 8])
def test_mutant_block_is_the_scalar_stream(monkeypatch, order):
    seen = record_audited_graphs(monkeypatch)
    survey_random(order, 0, 99, audits=())
    pairs = list(itertools.combinations(range(order), 2))
    rng = chunk_rng(99, 0)
    members = enum_family_members(order)
    assert seen == [scalar_mutant(m.graph, pairs, rng) for m in members]


@pytest.mark.parametrize("args, audits, digest", [
    ((5, 300, 11), None, "c7b02c6d0a5c3039756883313ded8ebef40b1d8295ccd9282083c78a89e6f885"),
    ((6, 500, 3), None, "17bc21a3740200dd78bc44635132ac407df62905e3b0716340e773670404b09b"),
    ((7, 100, 5), None, "2b183500484324315735d8fdc7d6a72245a4c03a88c85990d8a5b16aef291c61"),
    ((7, 0, 2024), None, "f6a317387f2fcdd23f98fe73e59bf347acaf309765d9b1254f8421054763e1e6"),
    ((8, 150, 9), None, "a3e025851f9baec33da5cc753af821236d1069365891142eee262ac5f4c358d8"),
    ((9, 60, 2), None, "280df5e3d43d2289f7d3d23d3303578da50cef91bd00386ab66f0b1f513a0649"),
    ((7, 60, 4242), ("extension_rules",),
     "1db76b26a6dea4a5ca7e9a2a519149ebcf033e040a746f1ae629d9d3a051a99f"),
    # recorded while the kernel's row sets were uint64 arrays; the last
    # case's sample block of 2,000 rows filled 31 words and part of a 32nd
    ((10, 50, 1, False), None,
     "7a7b89b5972f48c9801c8883965b2892644aa5189dadcc2c067784cb6d0201a2"),
    ((12, 5, 1, False), None,
     "a4093c9b723f55796ab35db92f145149394baf6f60ef63d38a8806cf4a4728d0"),
    ((8, 2000, 1), None, "b6f25069e1187a90a0213e743d7c902a025cdf083c7b995640a965b7d6d10cd6"),
])
def test_random_reports_pinned(args, audits, digest):
    # recorded while random mode still ran its audits one graph at a time:
    # verdicts, every audit tally and the defect-one codes, elapsed left out;
    # args is (order, samples, seed), with mutate_members as a fourth item
    # when it is not the default
    order, samples, seed, mutate = (*args, True)[:4]
    report = survey_random(
        order, samples, seed, audits=audits, mutate_members=mutate
    ).to_json()
    del report["elapsed"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("audits", [(), ("family_classification",)])
def test_random_builds_no_kernel_without_kernel_audits(monkeypatch, audits):
    def refuse(*args):
        raise AssertionError("built a kernel")

    monkeypatch.setattr(harness, "_Kernel", refuse)
    report = survey_random(7, 40, 5, audits=audits)
    assert report.visited == 40 + 340
    assert report.audits["indec_dual_route"] == {"checked": 0, "failed": 0}
    assert report.audits["family_classification"]["checked"] > 0


def test_dual_route_catches_a_wrong_classify_verdict(monkeypatch):
    # classify calls the first prime graph decomposable; the kernel's two
    # primality routes still agree with each other, and the three-way check
    # fails for that graph alone
    real = harness.classify
    demoted = []

    def wrong(g):
        outcome = real(g)
        if outcome.verdict != DECOMPOSABLE and not demoted:
            demoted.append(g)
            return dataclasses.replace(outcome, verdict=DECOMPOSABLE)
        return outcome

    monkeypatch.setattr(harness, "classify", wrong)
    report = survey_random(6, 50, 17, mutate_members=False)
    assert len(demoted) == 1
    assert report.audits["indec_dual_route"] == {"checked": 50, "failed": 1}
    assert report.failures == 1


# An order-5 graph that survey_random(5, 20, 4) samples: it is decomposable,
# {0, 1, 2} induces a prime subgraph, and the outside vertices 3 and 4 are
# twins of 2 and 0 over it, each in a cell of the outside partition.
PLANT_DIGITS = [3, 0, 0, 1, 1, 1, 3, 2, 0, 0]
PLANT_SUBSET = (0, 1, 2)


def plant_uniform_row(monkeypatch):
    """Make _Kernel.uniform(z, PLANT_SUBSET) also hold the row of
    PLANT_DIGITS for both outside vertices z, so that each of them lies in
    the bracket as well as in its cell.  Adding the row, not dropping one,
    is what breaks the partition: a vertex dropped from the bracket lands
    in ext instead, since ext is decided through uniform too."""
    real = harness._Kernel.uniform
    target = np.array(PLANT_DIGITS, dtype=np.uint8)

    def planted(self, z, members):
        got = real(self, z, members)
        if members == PLANT_SUBSET:
            for row in np.flatnonzero((self.digits == target).all(axis=1)):
                got |= 1 << int(row)
        return got

    monkeypatch.setattr(harness._Kernel, "uniform", planted)


def test_planted_partition_failure_counts_per_subset_in_random_mode(monkeypatch):
    pairs = list(itertools.combinations(range(5), 2))
    g = from_pair_types(5, dict(zip(pairs, PLANT_DIGITS)))
    part = outside_partition(g, PLANT_SUBSET)
    assert not is_indecomposable(g)
    assert part.class_of(3) == ("cell", 2) and part.class_of(4) == ("cell", 0)
    clean = survey_random(5, 20, 4)
    seen = record_audited_graphs(monkeypatch)
    plant_uniform_row(monkeypatch)
    report = survey_random(5, 20, 4)
    assert seen.count(g) == 1
    assert report.audits["outside_partition"] == {
        "checked": clean.audits["outside_partition"]["checked"], "failed": 1}
    assert report.failures == 1


def test_planted_partition_failure_counts_per_outside_vertex_in_exhaustive_mode(
    monkeypatch,
):
    plant_uniform_row(monkeypatch)
    report = survey_exhaustive(5)
    assert report.audits["outside_partition"] == {"checked": 11668480, "failed": 2}
    assert report.failures == 2


def test_random_worker_count_invisible(monkeypatch):
    monkeypatch.setattr(harness, "RANDOM_CHUNK", 80)
    solo = survey_random(6, 220, 808, workers=1, mutate_members=False)
    duo = survey_random(6, 220, 808, workers=2, mutate_members=False)
    assert report_key(solo) == report_key(duo)


# -- round trip -------------------------------------------------------------------


def test_roundtrip_order_seven():
    report = roundtrip_check(range(7, 8))
    assert report.members == {7: 340}
    assert report.matched == {7: 340}
    assert report.violations == ()
    assert report.ok


def test_roundtrip_empty():
    report = roundtrip_check(())
    assert report.ok
    assert report.members == {}
    assert report.to_json()["ok"] is True


def test_roundtrip_rejects_bad_orders():
    with pytest.raises(DigraphError):
        roundtrip_check([6])
    with pytest.raises(DigraphError):
        roundtrip_check([17])
