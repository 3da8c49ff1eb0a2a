"""Exhaustive and randomized verification surveys over small digraphs.

Both modes audit a chunk the same way: its graphs are a block of pair-type
digits, and one kernel over row sets held as Python ints (bit r for row
r) runs the structural audits on every row at once.  Indecomposability is
decided twice (splitter closure and subset enumeration, which must agree),
and the partition, extension, existence and critical-vertex audits run on
top.
Exhaustive mode sweeps every labeled pair-type assignment of a given order
and takes each row's verdict from the kernel; every defect-one find is
recorded by canonical code, computed once per isomorphism class and process
(rows are grouped by a brute-force permutation-minimum key first), and on a
fixed sample of rows, prime and decomposable in turn, the kernel_reference
audit compares the verdict with classify() and the per-graph primality
routines.  Random mode samples assignments from a seeded generator, plus
one-pair mutants of the family members of that order, and takes every
graph's verdict from classify(), one graph at a time, so the verdict ladder
lives only in the classifier.

Both modes cut the work into chunks fixed by sample count, never by worker
count, so reports are reproducible at any parallelism.  One runner computes
the chunks, in a fork pool of at most one process per chunk when workers >
1, and one loop merges them in chunk order.  A report's failures count is
the sum of the failed audit tallies.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from multiprocessing import get_context
from operator import or_
from typing import Callable, Iterable, Optional

import numpy as np

from .classifier import (
    CRITICAL,
    DECOMPOSABLE,
    MINUS_K_CRITICAL,
    MINUS_ONE_CRITICAL,
    OUT_OF_SCOPE_ORDER,
    THEOREM_VIOLATION,
    classify,
)
from .core import Digraph, DigraphError, canonical_code, from_pair_types, pair_type
from .families import MAX_ENUM_ORDER, enum_family_members
from .modular import SUBSET_ORACLE_BOUND, is_indecomposable, nontrivial_intervals

EXHAUSTIVE_BOUND = 5
RANDOM_ORDER_BOUND = 12
EXHAUSTIVE_CHUNK = 1 << 18
RANDOM_CHUNK = 2000
# one row per KERNEL_SAMPLE_STRIDE-row window of an exhaustive chunk is
# re-decided by the per-graph reference routines (the kernel_reference audit)
KERNEL_SAMPLE_STRIDE = 4096
# _isomorphism_keys packs a key into one numpy integer of 2 * C(n, 2) bits
_ISOMORPHISM_KEY_BOUND = 8

AUDIT_NAMES = (
    "indec_dual_route",
    "outside_partition",
    "extension_rules",
    "two_vertex_extension",
    "small_indecomposable",
    "critical_vertex_rules",
    "family_classification",
    "kernel_reference",
)
# the audits the kernel runs on a whole chunk at once; the other two are
# tallied one classified graph at a time
_KERNEL_AUDITS = frozenset(AUDIT_NAMES) - {"family_classification", "kernel_reference"}

# Exhaustive orders stay below 7, where family matching begins, so a
# defect-one graph is out of scope there.  An exhaustive chunk's row verdict
# indexes this tuple: 0 when decomposable, else 1 + min(defect, 2).
_EXHAUSTIVE_VERDICTS = (DECOMPOSABLE, CRITICAL, OUT_OF_SCOPE_ORDER, MINUS_K_CRITICAL)


@dataclass
class SurveyReport:
    """Aggregated survey outcome.

    Every field except elapsed is deterministic for a fixed (order, mode,
    samples, seed) regardless of worker count.  verdict_counts always sums
    to visited; audits maps audit name to {'checked': n, 'failed': n};
    defect_one_codes lists the canonical codes (hex, deduplicated, sorted)
    of every defect-one graph encountered.  failures sums the failed audit
    counts; a theorem_violation verdict is one of them, a failed
    family_classification.
    """

    order: int
    mode: str
    visited: int
    verdict_counts: dict
    audits: dict
    defect_one_codes: tuple
    seeds: tuple
    samples: int
    mutants: int
    workers: int
    elapsed: float

    @property
    def failures(self) -> int:
        return sum(t["failed"] for t in self.audits.values())

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "mode": self.mode,
            "visited": self.visited,
            "verdicts": dict(sorted(self.verdict_counts.items())),
            "audits": {k: dict(v) for k, v in sorted(self.audits.items())},
            "defect_one_codes": list(self.defect_one_codes),
            "seeds": list(self.seeds),
            "samples": self.samples,
            "mutants": self.mutants,
            "workers": self.workers,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }


def _new_tallies() -> dict:
    return {name: {"checked": 0, "failed": 0} for name in AUDIT_NAMES}


# -- vectorized exhaustive kernel ---------------------------------------------------


def _pack(values: np.ndarray) -> list:
    """One row set per line of a 2-D array of 0/1 values: the int whose bit
    r is the line's value at row r."""
    packed = np.packbits(values, axis=-1, bitorder="little")
    return [int.from_bytes(line.tobytes(), "little") for line in packed]


def _at_least(planes: Iterable[int], levels: int) -> list:
    """Saturating bit counters: item i holds the rows where at least i + 1
    of the planes are set."""
    counts = [0] * levels
    for plane in planes:
        for i in range(levels - 1, 0, -1):
            counts[i] |= counts[i - 1] & plane
        counts[0] |= plane
    return counts


class _Kernel:
    """Pair types over a block of same-order graphs, one bit per row.

    Every row set is a nonnegative Python int, row r being bit r, with no
    bit at or past count set (ones holds every row).  "Not in b" is written
    ones ^ b, never ~b, which goes through negative ints and is several
    times slower on large sets.  Each ordered pair (x, y) has two bit
    planes, the low and the high bit of its type digit; the reversed pair
    swaps them.  Rows where two ordered pairs have one type are same(a, b),
    and subset primality is decided by interval enumeration over those
    sets.  The whole-graph closure route, closure_prime(), shares nothing
    with it: it builds its own arc planes from digits and grows the closure
    of each seed pair bit-sliced.
    """

    def __init__(self, order: int, digits: np.ndarray):
        self.n = order
        self.count = digits.shape[0]
        self.pairs = list(itertools.combinations(range(order), 2))
        self.digits = digits
        self.ones = (1 << self.count) - 1
        low, high = _pack(digits.T & 1), _pack(digits.T >> 1)
        self.planes = {}
        for p, (x, y) in enumerate(self.pairs):
            self.planes[(x, y)] = (low[p], high[p])
            self.planes[(y, x)] = (high[p], low[p])
        self._same: dict = {}
        self._uniform: dict = {}
        self._prime: dict = {}

    def rows(self, bits: int) -> np.ndarray:
        """The row set as bool[count]."""
        packed = np.frombuffer(bits.to_bytes(-(-self.count // 8), "little"), np.uint8)
        return np.unpackbits(packed, count=self.count, bitorder="little").view(bool)

    def same(self, a: tuple, b: tuple) -> int:
        """Rows where the ordered pairs a and b have one type."""
        key = (a, b) if a <= b else (b, a)
        got = self._same.get(key)
        if got is None:
            (lo_a, hi_a), (lo_b, hi_b) = self.planes[a], self.planes[b]
            got = self.ones ^ ((lo_a ^ lo_b) | (hi_a ^ hi_b))
            self._same[key] = got
        return got

    def uniform(self, z: int, members: tuple) -> int:
        """Rows where vertex z relates identically to every member."""
        key = (z, members)
        got = self._uniform.get(key)
        if got is None:
            got = self.ones
            for s in members[1:]:
                got &= self.same((z, members[0]), (z, s))
            self._uniform[key] = got
        return got

    def interval_within(self, universe: tuple, members: tuple) -> int:
        """Rows where members form an interval of the graph induced on
        universe."""
        acc = self.ones
        inside = set(members)
        for z in universe:
            if z not in inside:
                acc &= self.uniform(z, members)
                if not acc:
                    break
        return acc

    def subset_prime(self, subset: Iterable[int]) -> int:
        """Subset-enumeration route: no nontrivial interval inside."""
        key = tuple(sorted(subset))
        got = self._prime.get(key)
        if got is None:
            if len(key) <= 2:
                got = self.ones
            else:
                decomposable = 0
                for size in range(2, len(key)):
                    for members in itertools.combinations(key, size):
                        decomposable |= self.interval_within(key, members)
                got = self.ones ^ decomposable
            self._prime[key] = got
        return got

    def closure_prime(self) -> int:
        """Splitter-closure route for the whole graph: indecomposable iff
        the closure of every seed pair reaches all vertices.

        Works on arc planes packed from digits alone, arc[(v, w)] holding
        the rows with an arc v -> w.  split[(x, v, w)] holds the rows where
        w relates to x and to v differently, that is where w splits {x, v}.
        A vertex splits a set holding x exactly when it splits {x, v} for
        some member v, so the closure of {x, y} is x plus everything y
        reaches through split.  It is grown bit-sliced, one plane per
        vertex w of the rows where w is not in the closure yet, frontier by
        frontier: each round adds w to the rows where a vertex added in the
        last round reaches it, and the closure is done when a round adds
        nothing.  Every row is closed from every seed pair."""
        n, ones = self.n, self.ones
        fwd, bwd = _pack(self.digits.T & 1), _pack(self.digits.T >> 1)
        arc = {}
        for p, (x, y) in enumerate(self.pairs):
            arc[(x, y)], arc[(y, x)] = fwd[p], bwd[p]
        split = {}
        for x, v in self.pairs:
            for w in range(n):
                if w != x and w != v:
                    split[(x, v, w)] = split[(v, x, w)] = (
                        (arc[(x, w)] ^ arc[(v, w)]) | (arc[(w, x)] ^ arc[(w, v)])
                    )
        result = ones
        for x, y in self.pairs:
            outside = {w: ones for w in range(n) if w != x and w != y}
            frontier = {y: ones}
            while frontier:
                added = {}
                for w, rows in outside.items():
                    reach = 0
                    for v, new in frontier.items():
                        if v != w:
                            reach |= split[(x, v, w)] & new
                    reach &= rows
                    if reach:
                        added[w] = reach
                        outside[w] = rows ^ reach
                frontier = added
            for rows in outside.values():
                result &= ones ^ rows
        return result

    def graph_at(self, row: int) -> Digraph:
        types = dict(zip(self.pairs, self.digits[row].tolist()))
        return from_pair_types(self.n, types)


def _kernel_partition_audit(k: _Kernel, tallies: dict, *, per_subset: bool) -> None:
    """Vectorized partition-uniqueness and extension-bullet audits over
    every subset of size 3 or 4 inducing an indecomposable subgraph.

    outside_partition is checked once per (prime subset, outside vertex),
    or with per_subset once per prime subset, failing when any outside
    vertex lies in zero or several classes; random mode counts that unit."""
    n, ones = k.n, k.ones
    partition, rules = tallies["outside_partition"], tallies["extension_rules"]
    for size in (3, 4):
        if size > n - 1:
            continue
        for xs in itertools.combinations(range(n), size):
            eligible = k.subset_prime(xs)
            if not eligible:
                continue
            count = eligible.bit_count()
            outside = tuple(v for v in range(n) if v not in xs)
            bracket = {}
            cells = {}
            ext = {}
            misplaced = []
            for z in outside:
                bracket[z] = k.uniform(z, xs)
                for u in xs:
                    match = ones
                    for w in xs:
                        if w != u:
                            match &= k.same((w, u), (w, z))
                    cells[(z, u)] = match
                ext[z] = k.subset_prime(xs + (z,))
                # exactly one of the classes must hold z
                one, two = _at_least(
                    [bracket[z], *(cells[(z, u)] for u in xs), ext[z]], 2
                )
                misplaced.append(eligible & (two | (ones ^ one)))
            if per_subset:
                partition["checked"] += count
                partition["failed"] += reduce(or_, misplaced).bit_count()
            else:
                partition["checked"] += count * len(outside)
                partition["failed"] += sum(bits.bit_count() for bits in misplaced)
            for x, y in itertools.permutations(outside, 2):
                uni = tuple(sorted(xs + (x, y)))
                hyp_base = eligible & (ones ^ k.subset_prime(uni))
                if not hyp_base:
                    continue
                for u in xs:
                    hyp = hyp_base & cells[(x, u)] & (ones ^ cells[(y, u)])
                    if hyp:
                        ok = k.interval_within(uni, tuple(sorted((u, x))))
                        rules["checked"] += hyp.bit_count()
                        rules["failed"] += (hyp & (ones ^ ok)).bit_count()
                hyp = hyp_base & bracket[x] & (ones ^ bracket[y])
                if hyp:
                    ok = k.interval_within(uni, tuple(sorted(xs + (y,))))
                    rules["checked"] += hyp.bit_count()
                    rules["failed"] += (hyp & (ones ^ ok)).bit_count()
            for x, y in itertools.combinations(outside, 2):
                uni = tuple(sorted(xs + (x, y)))
                hyp = eligible & (ones ^ k.subset_prime(uni)) & ext[x] & ext[y]
                if hyp:
                    ok = k.interval_within(uni, tuple(sorted((x, y))))
                    rules["checked"] += hyp.bit_count()
                    rules["failed"] += (hyp & (ones ^ ok)).bit_count()


def _kernel_existence_audits(k: _Kernel, whole: int, tallies: dict) -> None:
    """Vectorized audits of the two existence statements: a two-vertex
    extension keeping a subset indecomposable, and a small indecomposable
    subgraph around each vertex."""
    n, ones = k.n, k.ones
    for size in (3, 4):
        if n - size < 2:
            continue
        for xs in itertools.combinations(range(n), size):
            eligible = whole & k.subset_prime(xs)
            if not eligible:
                continue
            outside = tuple(v for v in range(n) if v not in xs)
            success = 0
            for x, y in itertools.combinations(outside, 2):
                success |= k.subset_prime(tuple(sorted(xs + (x, y))))
            tallies["two_vertex_extension"]["checked"] += eligible.bit_count()
            tallies["two_vertex_extension"]["failed"] += (
                eligible & (ones ^ success)
            ).bit_count()
    if n >= 5:
        prime_count = whole.bit_count()
        for a in range(n):
            success = 0
            others = [v for v in range(n) if v != a]
            for extra in (3, 4):
                if extra > len(others):
                    continue
                for rest in itertools.combinations(others, extra):
                    success |= k.subset_prime(tuple(sorted((a,) + rest)))
            if n == 5:
                success |= whole
            tallies["small_indecomposable"]["checked"] += prime_count
            tallies["small_indecomposable"]["failed"] += (
                whole & (ones ^ success)
            ).bit_count()


def _kernel_critical_audit(k: _Kernel, whole: int, noncrit: list, tallies: dict) -> None:
    """Vectorized degree and forced-interval audit for critical vertices.

    Every vertex pair is decided by subset_prime on purpose: the scalar
    indecomposability_graph tests only the pairs its interval witnesses
    leave open, so its degree bound holds by construction, and this audit
    checks the bound independently of that shortcut."""
    n, ones = k.n, k.ones
    if n < 5:
        return
    edge = {}
    for x, y in itertools.combinations(range(n), 2):
        edge[(x, y)] = edge[(y, x)] = k.subset_prime(
            tuple(v for v in range(n) if v not in (x, y))
        )
    for x in range(n):
        critical = whole & (ones ^ noncrit[x])
        if not critical:
            continue
        nbrs = [y for y in range(n) if y != x]
        one, two, three = _at_least((edge[(x, y)] for y in nbrs), 3)
        failed = critical & three
        degree_one = critical & one & (ones ^ two)
        degree_two = critical & two & (ones ^ three)
        rest = tuple(v for v in range(n) if v != x)
        for y in nbrs:
            cond = degree_one & edge[(x, y)]
            if cond:
                claim = tuple(v for v in rest if v != y)
                failed |= cond & (ones ^ k.interval_within(rest, claim))
        for y, z in itertools.combinations(nbrs, 2):
            cond = degree_two & edge[(x, y)] & edge[(x, z)]
            if cond:
                ok = k.interval_within(rest, tuple(sorted((y, z))))
                failed |= cond & (ones ^ ok)
        tallies["critical_vertex_rules"]["checked"] += critical.bit_count()
        tallies["critical_vertex_rules"]["failed"] += failed.bit_count()


def _isomorphism_keys(k: _Kernel, rows: np.ndarray) -> np.ndarray:
    """Brute-force isomorphism key of each given row: the least base-4
    pair-digit integer over all n! relabelings of its vertices, so two rows
    share a key exactly when their graphs are isomorphic.  Orders above
    _ISOMORPHISM_KEY_BOUND have no numpy integer wide enough."""
    if k.n > _ISOMORPHISM_KEY_BOUND:
        raise DigraphError(
            f"_isomorphism_keys: order {k.n} above bound {_ISOMORPHISM_KEY_BOUND}"
        )
    dtype = np.min_scalar_type((1 << 2 * len(k.pairs)) - 1)
    sub = np.asfortranarray(k.digits[rows], dtype=dtype)
    column = {}
    for p, (x, y) in enumerate(k.pairs):
        column[(x, y)] = sub[:, p]
        column[(y, x)] = (sub[:, p] & 1) << 1 | sub[:, p] >> 1
    # the type of each ordered pair, shifted to each pair's digit
    shifted = {
        (pair, p): col << (2 * p)
        for pair, col in column.items()
        for p in range(len(k.pairs))
    }
    keys = np.full(rows.shape[0], np.iinfo(dtype).max, dtype=dtype)
    for perm in itertools.permutations(range(k.n)):
        key = np.zeros(rows.shape[0], dtype=dtype)
        for p, (x, y) in enumerate(k.pairs):
            key |= shifted[((perm[x], perm[y]), p)]
        np.minimum(keys, key, out=keys)
    return keys


@lru_cache(maxsize=None)
def _class_code(order: int, key: int) -> str:
    """Canonical code (hex) of the class whose isomorphism key is key."""
    pairs = itertools.combinations(range(order), 2)
    types = {pair: key >> (2 * p) & 3 for p, pair in enumerate(pairs)}
    return canonical_code(from_pair_types(order, types)).hex()


def _verdict_bits(k: _Kernel, whole: int, noncrit: list) -> tuple:
    """Row sets of each exhaustive verdict, in _EXHAUSTIVE_VERDICTS order:
    decomposable, then prime with defect 0, 1 and at least 2."""
    ones = k.ones
    one, two = _at_least(noncrit, 2)
    return (ones ^ whole, whole & (ones ^ one), whole & one & (ones ^ two), whole & two)


def _audit_block(
    order: int, digits: np.ndarray, audits: tuple, tallies: dict, *, per_subset: bool
) -> Optional[tuple]:
    """The chunk body of both survey modes: build a _Kernel over a block of
    pair-type digits, one graph per row, and run the selected kernel audits
    on every row at once.  Tallies of unselected audits stay untouched, and
    per_subset is the outside_partition unit (see _kernel_partition_audit).

    Returns None, building nothing, when audits selects none of
    _KERNEL_AUDITS.  Otherwise returns (k, closure, oracle, noncrit): the
    kernel, the rows the closure route finds prime (the audits' primality),
    the subset oracle's prime rows when indec_dual_route is selected (else
    None; the caller tallies it) and each one-vertex deletion's prime rows."""
    if _KERNEL_AUDITS.isdisjoint(audits):
        return None
    k = _Kernel(order, digits)
    closure = k.closure_prime()
    oracle = k.subset_prime(range(order)) if "indec_dual_route" in audits else None
    noncrit = [
        k.subset_prime(tuple(v for v in range(order) if v != x)) for x in range(order)
    ]
    found = _new_tallies()
    if not {"outside_partition", "extension_rules"}.isdisjoint(audits):
        _kernel_partition_audit(k, found, per_subset=per_subset)
    if not {"two_vertex_extension", "small_indecomposable"}.isdisjoint(audits):
        _kernel_existence_audits(k, closure, found)
    if "critical_vertex_rules" in audits:
        _kernel_critical_audit(k, closure, noncrit, found)
    for name in _KERNEL_AUDITS.intersection(audits) - {"indec_dual_route"}:
        tallies[name] = found[name]
    return k, closure, oracle, noncrit


def _exhaustive_chunk(args: tuple) -> dict:
    order, lo, hi = args
    pairs = list(itertools.combinations(range(order), 2))
    idx = np.arange(lo, hi, dtype=np.uint32)  # 4^10 rows at order 5
    # column-major, so that each pair's digit column is contiguous
    digits = np.empty((idx.shape[0], len(pairs)), dtype=np.uint8, order="F")
    for p in range(len(pairs)):
        digits[:, p] = (idx >> (2 * p)) & 3
    tallies = _new_tallies()
    k, whole, oracle, noncrit = _audit_block(
        order, digits, AUDIT_NAMES, tallies, per_subset=False
    )
    tallies["indec_dual_route"]["checked"] += k.count
    tallies["indec_dual_route"]["failed"] += (whole ^ oracle).bit_count()

    verdict_bits = _verdict_bits(k, whole, noncrit)
    verdicts = {
        name: bits.bit_count() for name, bits in zip(_EXHAUSTIVE_VERDICTS, verdict_bits)
    }

    # canonical_code once per isomorphism class
    rows = np.flatnonzero(k.rows(verdict_bits[2]))
    keys = np.unique(_isomorphism_keys(k, rows))
    codes = {_class_code(order, int(key)) for key in keys}

    # tie the kernels back to the per-graph reference implementations on a
    # deterministic sample of rows: the first prime row of each even window
    # of KERNEL_SAMPLE_STRIDE rows, the first decomposable row of each odd
    # one (the window's first row when none is)
    prime_rows = k.rows(whole)
    noncrit_rows = [k.rows(bits) for bits in noncrit]
    for start in range(0, k.count, KERNEL_SAMPLE_STRIDE):
        want = start // KERNEL_SAMPLE_STRIDE % 2 == 0
        hits = np.flatnonzero(prime_rows[start : start + KERNEL_SAMPLE_STRIDE] == want)
        row = start + (int(hits[0]) if hits.size else 0)
        g = k.graph_at(row)
        ref_prime = is_indecomposable(g)
        outcome = classify(g)
        prime = bool(prime_rows[row])
        defect = sum(bool(bits[row]) for bits in noncrit_rows)
        verdict = (min(defect, 2) + 1) if prime else 0
        ok = (
            ref_prime == prime
            and outcome.verdict == _EXHAUSTIVE_VERDICTS[verdict]
            and outcome.defect == (defect if prime else None)
        )
        if order <= SUBSET_ORACLE_BOUND:
            if (len(nontrivial_intervals(g)) == 0) != ref_prime:
                ok = False
        tallies["kernel_reference"]["checked"] += 1
        tallies["kernel_reference"]["failed"] += 0 if ok else 1

    return {
        "visited": k.count,
        "verdicts": verdicts,
        "audits": tallies,
        "codes": codes,
        "mutants": 0,
    }


def survey_exhaustive(
    order: int,
    *,
    workers: int = 1,
    on_chunk: Optional[Callable[[dict], None]] = None,
) -> SurveyReport:
    """Audit every labeled pair-type assignment of the given order; workers
    must be at least 1."""
    if not 3 <= order <= EXHAUSTIVE_BOUND:
        raise DigraphError(f"survey_exhaustive: order must be in 3..{EXHAUSTIVE_BOUND}")
    total = 4 ** (order * (order - 1) // 2)
    chunks = [
        (order, lo, min(lo + EXHAUSTIVE_CHUNK, total))
        for lo in range(0, total, EXHAUSTIVE_CHUNK)
    ]
    return _survey(order, "exhaustive", _exhaustive_chunk, chunks, workers, on_chunk)


# -- random mode ---------------------------------------------------------------------


def _audit_graph(
    g: Digraph, tallies: dict, codes: set, dual: Optional[tuple] = None
) -> str:
    """Classify one random-mode graph and return its verdict name.

    Records the canonical code of a defect-one graph and tallies
    family_classification for every graph that reaches family matching,
    whatever audits selects.  dual, given when indec_dual_route is
    selected, holds the graph's kernel bits from the closure route and the
    subset oracle; the check passes when both agree with classify's verdict
    being other than decomposable."""
    outcome = classify(g)
    if dual is not None:
        tallies["indec_dual_route"]["checked"] += 1
        if len({*dual, outcome.verdict != DECOMPOSABLE}) > 1:
            tallies["indec_dual_route"]["failed"] += 1
    if outcome.defect == 1:
        codes.add(canonical_code(g).hex())
    if outcome.verdict in (MINUS_ONE_CRITICAL, THEOREM_VIOLATION):
        tallies["family_classification"]["checked"] += 1
        if outcome.verdict == THEOREM_VIOLATION:
            tallies["family_classification"]["failed"] += 1
    return outcome.verdict


def _random_graph(order: int, pairs: list, rng) -> Digraph:
    """One random-mode sample drawn on its own: a sample chunk draws the
    same stream as one (count, len(pairs)) block."""
    return from_pair_types(order, {p: int(rng.integers(0, 4)) for p in pairs})


def _mutant_digits(order: int, pairs: list, rng) -> np.ndarray:
    """The digits of one one-pair mutant of every family member of the
    order, in enumeration order.  Member by member, a pair index is drawn,
    then a new type other than the pair's own."""
    members = enum_family_members(order)
    digits = np.array(
        [[pair_type(m.graph, x, y) for x, y in pairs] for m in members], dtype=np.uint8
    )
    for row in digits:
        p = int(rng.integers(0, len(pairs)))
        new = int(rng.integers(0, 3))
        row[p] = new + (new >= row[p])
    return digits


def _random_chunk(args: tuple) -> dict:
    """Audit one random-mode chunk: count seeded samples, or, when count is
    None, one seeded one-pair mutant of every family member of the order."""
    order, seed, chunk_index, count, audits = args
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    )
    pairs = list(itertools.combinations(range(order), 2))
    if count is None:
        digits = _mutant_digits(order, pairs, rng)
    else:
        digits = rng.integers(0, 4, size=(count, len(pairs))).astype(np.uint8)
    tallies = _new_tallies()
    block = _audit_block(order, digits, audits, tallies, per_subset=True)
    duals = itertools.repeat(None)
    if block is not None and "indec_dual_route" in audits:
        k, closure, oracle, _ = block
        duals = zip(k.rows(closure).tolist(), k.rows(oracle).tolist())
    verdicts: dict = {}
    codes: set = set()
    for types, dual in zip(digits.tolist(), duals):
        g = from_pair_types(order, dict(zip(pairs, types)))
        verdict = _audit_graph(g, tallies, codes, dual)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    return {
        "visited": len(digits),
        "verdicts": verdicts,
        "audits": tallies,
        "codes": codes,
        "mutants": len(digits) if count is None else 0,
    }


def survey_random(
    order: int,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
    audits: Optional[tuple] = None,
    mutate_members: bool = True,
    on_chunk: Optional[Callable[[dict], None]] = None,
) -> SurveyReport:
    """Audit seeded random assignments, plus one-pair mutants of every
    family member of the order (when any exist).

    The seed must be nonnegative and workers at least 1; audits, when
    given, names a subset of AUDIT_NAMES (all of them by default).
    family_classification is tallied whatever audits selects, because every
    survey classifies its graphs to get their verdicts; a theorem_violation
    verdict is its failure and counts once in the report's failures."""
    if not 3 <= order <= RANDOM_ORDER_BOUND:
        raise DigraphError(f"survey_random: order must be in 3..{RANDOM_ORDER_BOUND}")
    if samples < 0:
        raise DigraphError("survey_random: samples must be nonnegative")
    if seed < 0:
        raise DigraphError("survey_random: seed must be nonnegative")
    if audits is None:
        audits = AUDIT_NAMES
    unknown = sorted(set(audits) - set(AUDIT_NAMES))
    if unknown:
        raise DigraphError(
            f"survey_random: unknown audits {unknown} (choose from: "
            + ", ".join(AUDIT_NAMES) + ")"
        )
    audits = tuple(audits)
    chunks = [
        (order, seed, index, min(RANDOM_CHUNK, samples - lo), audits)
        for index, lo in enumerate(range(0, samples, RANDOM_CHUNK))
    ]
    if mutate_members and 7 <= order <= MAX_ENUM_ORDER:
        chunks.append((order, seed, len(chunks), None, audits))
    return _survey(
        order, "random", _random_chunk, chunks, workers, on_chunk,
        seeds=(seed,), samples=samples,
    )


# -- chunk running, shared by both modes -------------------------------------------------


def _run_chunks(fn: Callable, chunks: list, workers: int):
    """Yield fn(chunk) for each chunk in order; with workers > 1 a fork pool
    of at most one process per chunk computes them."""
    if workers <= 1 or len(chunks) <= 1:
        yield from map(fn, chunks)
        return
    with get_context("fork").Pool(min(workers, len(chunks))) as pool:
        yield from pool.imap(fn, chunks)


def _survey(
    order: int,
    mode: str,
    fn: Callable,
    chunks: list,
    workers: int,
    on_chunk: Optional[Callable[[dict], None]],
    *,
    seeds: tuple = (),
    samples: int = 0,
) -> SurveyReport:
    """Run the chunks, merge their tallies in chunk order, and pass one
    record per chunk to on_chunk: its [lo, hi) row range in exhaustive
    mode, its index and mutant count in random mode."""
    if workers < 1:
        raise DigraphError(f"survey_{mode}: workers must be at least 1")
    started = time.time()
    visited, mutants, verdicts, codes = 0, 0, {}, set()
    audits = _new_tallies()
    for spec, part in zip(chunks, _run_chunks(fn, chunks, workers)):
        visited += part["visited"]
        mutants += part["mutants"]
        for verdict, count in part["verdicts"].items():
            verdicts[verdict] = verdicts.get(verdict, 0) + count
        for name, tally in part["audits"].items():
            audits[name]["checked"] += tally["checked"]
            audits[name]["failed"] += tally["failed"]
        codes |= part["codes"]
        if on_chunk is not None:
            failures = sum(t["failed"] for t in part["audits"].values())
            if mode == "exhaustive":
                record = {"chunk": [spec[1], spec[2]], "visited": part["visited"],
                          "failures": failures}
            else:
                record = {"chunk": spec[2], "visited": part["visited"],
                          "mutants": part["mutants"], "failures": failures}
            on_chunk(record)
    return SurveyReport(
        order=order,
        mode=mode,
        visited=visited,
        verdict_counts=verdicts,
        audits=audits,
        defect_one_codes=tuple(sorted(codes)),
        seeds=seeds,
        samples=samples,
        mutants=mutants,
        workers=workers,
        elapsed=time.time() - started,
    )


# -- generator/classifier round trip -----------------------------------------------------


@dataclass
class RoundtripReport:
    """Per-order tallies of members whose classification matched."""

    orders: tuple
    members: dict = field(default_factory=dict)
    matched: dict = field(default_factory=dict)
    violations: tuple = ()
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and all(
            self.matched[o] == self.members[o] for o in self.members
        )

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "members": {str(o): c for o, c in sorted(self.members.items())},
            "matched": {str(o): c for o, c in sorted(self.matched.items())},
            "violations": [list(v) for v in self.violations],
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }


def roundtrip_check(orders: Iterable[int]) -> RoundtripReport:
    """Classify every generated member of each order; report mismatches."""
    wanted = tuple(orders)
    for order in wanted:
        if not 7 <= order <= MAX_ENUM_ORDER:
            raise DigraphError(
                f"roundtrip_check: order {order} outside 7..{MAX_ENUM_ORDER}"
            )
    started = time.time()
    report = RoundtripReport(orders=wanted)
    violations = []
    for order in wanted:
        members = enum_family_members(order)
        matched = 0
        for member in members:
            outcome = classify(member.graph)
            if outcome.verdict == MINUS_ONE_CRITICAL:
                matched += 1
            else:
                violations.append(
                    (order, member.family, repr(member.params), outcome.verdict)
                )
        report.members[order] = len(members)
        report.matched[order] = matched
    report.violations = tuple(violations)
    report.elapsed = time.time() - started
    return report
