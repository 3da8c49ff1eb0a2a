"""Criticality status and family identification for arbitrary digraphs.

classify() settles the cheap verdicts (decomposable, fully critical, more
than one noncritical vertex, too small) directly from the deletion sweeps.
For a defect-one graph of order >= 7 it reads the shape of the pairwise
deletion graph and matches the input, by canonical code, against the few
family parameterizations that could produce that order, shape, and
noncritical position.  The candidates are families.family_records, the one
memo per parameterization that enum_family_members also reads, so a process
that enumerates and then classifies builds each parameterization once.  A
verified isomorphism witness accompanies every family verdict; its params
are the memo's shared dict, to be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Digraph,
    DigraphError,
    canonical_code,
    find_isomorphism,
)
from .criticality import (
    ShapeDescriptor,
    critical_vertices,
    indecomposability_graph,
    recognize_shape,
    support,
)
from .families import family_records
from .modular import is_indecomposable

DECOMPOSABLE = "decomposable"
CRITICAL = "critical"
MINUS_K_CRITICAL = "minus_k_critical"
MINUS_ONE_CRITICAL = "minus_one_critical"
OUT_OF_SCOPE_ORDER = "out_of_scope_order"
THEOREM_VIOLATION = "theorem_violation"

VERDICTS = (
    DECOMPOSABLE,
    CRITICAL,
    MINUS_K_CRITICAL,
    MINUS_ONE_CRITICAL,
    OUT_OF_SCOPE_ORDER,
    THEOREM_VIOLATION,
)


@dataclass(frozen=True)
class FamilyMatch:
    """A family member isomorphic to the classified graph.

    witness maps the matched member's vertices onto the input's, so
    relabel(member_graph, witness) equals the input.  all_hits lists every
    (family, variant) whose candidate matched; overlapping families are
    recorded, not treated as errors.
    """

    family: str
    params: dict = field(compare=False)
    witness: tuple = ()
    shape: Optional[ShapeDescriptor] = None
    noncritical: Optional[int] = None
    variant: str = "base"
    all_hits: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class Classification:
    """Verdict plus the data that justifies it."""

    verdict: str
    order: int
    defect: Optional[int] = None
    noncritical: tuple = ()
    match: Optional[FamilyMatch] = None


# -- candidate dispatch ------------------------------------------------------------

# The candidate memo is families.family_records itself; this name is where
# perfbench/tracer.py reads its hit and miss counts.
_candidate_records = family_records


def _dispatch_keys(order: int, shape: ShapeDescriptor, noncritical: int) -> list:
    """Family parameterizations compatible with the observed order, shape,
    and position of the noncritical vertex within the shape, spelled as
    families.family_records keys."""
    keys: list = []
    kind = shape.kind
    if kind == "cycle":
        if order % 2 == 1 and len(shape.vertices) == order:
            keys.append(("H", (order - 1) // 2))
        return keys
    if kind == "star_tree":
        if noncritical != shape.source:
            return keys
        profile = shape.branch_lengths
        isolated = order - len(shape.vertices)
        odd = sorted(b for b in profile if b % 2 == 1)
        even = sorted(b for b in profile if b % 2 == 0)
        if len(profile) < 3 or min(profile) < 2:
            return keys
        if len(odd) == 1 and odd[0] >= 3 and isolated == 0:
            keys.append(("SO", (odd[0],) + tuple(even)))
        elif not odd and isolated in (0, 1):
            if (isolated == 1) == (order % 2 == 0):
                keys.append(("SE", tuple(even), isolated == 1))
        return keys
    if kind != "path":
        return keys
    pv = shape.vertices
    isolated = order - len(pv)
    if noncritical not in pv:
        if order % 2 == 1 and isolated == 1:
            keys.append(("R", (order - 1) // 2))
        return keys
    if noncritical in (pv[0], pv[-1]):
        m = len(pv) - 1
        if m >= 2 and isolated in (0, 1, 2):
            keys.append(("F", m, isolated))
        return keys
    d0 = pv.index(noncritical)
    d1 = len(pv) - 1 - d0
    if (len(pv) - 1) % 2 == 1:
        # odd number of path edges: exactly one end-distance is odd
        if isolated in (0, 1) and len(pv) >= 4:
            n = (len(pv) - 2) // 2
            k = ((d0 if d0 % 2 == 1 else d1) - 1) // 2
            if n >= 1 and 0 <= k <= n - 1:
                keys.append(("G", n, k, isolated == 1))
        return keys
    n = (len(pv) - 1) // 2
    if d0 % 2 == 1:
        # even edge count, both end-distances odd
        if isolated == 0 and n >= 1:
            for k in sorted({(d0 - 1) // 2, (d1 - 1) // 2}):
                if 0 <= k <= n - 1:
                    keys.append(("Gp", n, k))
        return keys
    if isolated in (0, 1, 2) and n >= 2:
        for k in sorted({d0 // 2, d1 // 2}):
            if 1 <= k <= n - 1:
                keys.append(("Gdp", n, k, isolated))
    return keys


def match_family(
    g: Digraph, shape: ShapeDescriptor, noncritical: int
) -> Optional[FamilyMatch]:
    """Match a defect-one graph of order >= 7 against the families whose
    members could produce the given shape; None when nothing matches."""
    if g.n < 7:
        raise DigraphError("match_family: need order >= 7")
    if not 0 <= noncritical < g.n:
        raise DigraphError(f"match_family: vertex {noncritical} out of range")
    code = canonical_code(g)
    hits = [
        record
        for key in _dispatch_keys(g.n, shape, noncritical)
        for record in family_records(key)
        if record[0] == code
    ]
    if not hits:
        return None
    _, variant, params, member = hits[0]
    witness = find_isomorphism(member.graph, g)
    if witness is None:
        raise DigraphError("match_family: canonical code matched without isomorphism")
    return FamilyMatch(
        family=member.family,
        params=params,
        witness=witness,
        shape=shape,
        noncritical=noncritical,
        variant=variant,
        all_hits=tuple((m.family, v) for _, v, _, m in hits),
    )


def classify(g: Digraph) -> Classification:
    """Full dispatch: decomposable / fully critical / defect k >= 2 /
    defect-one small order / defect-one family match / no family found."""
    if not is_indecomposable(g):
        return Classification(verdict=DECOMPOSABLE, order=g.n)
    report = critical_vertices(g)
    if report.defect == 0:
        return Classification(verdict=CRITICAL, order=g.n, defect=0)
    if report.defect >= 2:
        return Classification(
            verdict=MINUS_K_CRITICAL,
            order=g.n,
            defect=report.defect,
            noncritical=report.noncritical,
        )
    noncritical = report.noncritical[0]
    if g.n < 7:
        return Classification(
            verdict=OUT_OF_SCOPE_ORDER,
            order=g.n,
            defect=1,
            noncritical=report.noncritical,
        )
    ig = indecomposability_graph(g)
    sup = support(ig)
    shape = recognize_shape(ig, restricted_to=sup.component)
    match = match_family(g, shape, noncritical)
    if match is None:
        return Classification(
            verdict=THEOREM_VIOLATION,
            order=g.n,
            defect=1,
            noncritical=report.noncritical,
        )
    return Classification(
        verdict=MINUS_ONE_CRITICAL,
        order=g.n,
        defect=1,
        noncritical=report.noncritical,
        match=match,
    )
