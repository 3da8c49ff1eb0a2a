"""Criticality status and family identification for arbitrary digraphs.

classify() settles the cheap verdicts (decomposable, fully critical, more
than one noncritical vertex, too small) directly from the deletion sweeps.
For a defect-one graph of order >= 7 it reads the shape of the pairwise
deletion graph and matches the input, by canonical code, against the few
family parameterizations whose claimed shape and noncritical position fit
it.  families.dispatch_keys looks those up in the family table, where each
parameterization's claims are written once.  The candidates are the
records with the input's code in families.family_records, the one memo per
parameterization that enum_family_members also reads, so a process that
enumerates and then classifies builds each parameterization once; the same
memo holds an index from code to records (families.records_by_code), which
finds them without scanning every record.  A verified isomorphism
witness accompanies every family verdict, read off the canonical orderings
that the code match has already computed for the member and the input; its
params are the memo's shared dict, to be treated as read-only.
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
from .families import dispatch_keys, family_records, records_by_code
from .modular import is_indecomposable

DECOMPOSABLE = "decomposable"
CRITICAL = "critical"
MINUS_K_CRITICAL = "minus_k_critical"
MINUS_ONE_CRITICAL = "minus_one_critical"
OUT_OF_SCOPE_ORDER = "out_of_scope_order"
THEOREM_VIOLATION = "theorem_violation"


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

# The candidate memo is families.family_records itself, which also holds
# each key's code index; this name is where perfbench/tracer.py reads its
# hit and miss counts.
_candidate_records = family_records


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
        for key in dispatch_keys(g.n, shape, noncritical)
        for record in records_by_code(key).get(code, ())
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
