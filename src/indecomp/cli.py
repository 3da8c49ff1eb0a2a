"""Command-line front end: generate fixtures, inspect .dg files, and run
the verification surveys.

Subcommands: gen (emit a named graph, a member of a family table row's
parameterization or of an order's members), check (decomposition and
criticality report), classify (defect-one family matching), ig (pairwise-
deletion graph and its shape), survey (exhaustive or seeded random audits,
one JSON line per chunk then a summary line), roundtrip (generate-then-
classify consistency), selftest (quick end-to-end fixture audit).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Optional

from .classifier import OUT_OF_SCOPE_ORDER, classify
from .core import (
    CANONICAL_BOUND,
    DgFormatError,
    Digraph,
    DigraphError,
    bits_of,
    canonical_code,
    parse_dg,
    serialize_dg,
    to_dot,
)
from .criticality import (
    ShapeDescriptor,
    critical_vertices,
    indecomposability_graph,
    recognize_shape,
    support,
)
from .families import (
    FAMILY_STAR_EVEN,
    _KEY_KINDS,
    _branches_arg,
    _flag_arg,
    enum_family_members,
    gen_H,
    gen_Q5,
    gen_R,
    gen_T,
    gen_U,
    gen_V,
)
from .harness import roundtrip_check, survey_exhaustive, survey_random
from .modular import (
    SUBSET_ORACLE_BOUND,
    _interval_witness,
    _is_interval_mask,
    is_indecomposable,
    nontrivial_intervals,
)

SINGLE_FAMILIES = {
    "gen_T": (gen_T, 1, "n"),
    "gen_U": (gen_U, 1, "n"),
    "gen_V": (gen_V, 1, "n"),
    "gen_R": (gen_R, 1, "n"),
    "gen_H": (gen_H, 1, "p"),
    "gen_Q5": (gen_Q5, 0, ""),
}

# The family table's rows by family name, less the named graphs above
TABLE_FAMILIES = {
    kind.family: kind
    for kind in _KEY_KINDS.values()
    if kind.family not in SINGLE_FAMILIES
}


def _shape_json(shape: Optional[ShapeDescriptor]) -> Optional[dict]:
    if shape is None:
        return None
    return {k: v for k, v in dataclasses.asdict(shape).items() if v is not None}


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _load(path: str) -> Digraph:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DgFormatError(
                f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII"
            ) from None
    return parse_dg(text)


# -- gen -----------------------------------------------------------------------


def _indexed_members(family: str, params: list, gamma: bool) -> list:
    """The members --index picks from: enum_family_members(order) for
    members, else the base members of the family table row's key, which
    takes one integer per int argument and 0 or 1 per flag, or every integer
    as its branch tuple with --gamma as the flag after it."""
    if family == "members":
        if len(params) != 1:
            raise DigraphError("members takes: order")
        return enum_family_members(params[0])
    kind = TABLE_FAMILIES[family]
    if kind.args[0] is _branches_arg:
        args = (tuple(params), gamma)[: len(kind.args)]
    elif len(params) == len(kind.args):
        args = tuple(
            {0: False, 1: True}.get(p, p) if ok is _flag_arg else p
            for ok, p in zip(kind.args, params)
        )
    else:
        raise DigraphError(f"{family} takes {len(kind.args)} integers")
    return kind.generate(*args)


def _cmd_gen(args) -> int:
    family = args.family
    if args.gamma and family != FAMILY_STAR_EVEN:
        raise DigraphError(f"--gamma applies to {FAMILY_STAR_EVEN} only")
    if family in SINGLE_FAMILIES:
        fn, arity, names = SINGLE_FAMILIES[family]
        if len(args.params) != arity:
            raise DigraphError(
                f"{family} takes {arity} parameter(s){': ' + names if names else ''}"
            )
        if args.index:
            raise DigraphError(f"{family} generates a single graph; --index must be 0")
        graph = fn(*args.params)
    elif family == "members" or family in TABLE_FAMILIES:
        members = _indexed_members(family, args.params, args.gamma)
        if not members:
            raise DigraphError(f"{family}{tuple(args.params)} has no members")
        if not 0 <= args.index < len(members):
            raise DigraphError(
                f"--index {args.index} out of range; {family} has {len(members)} members"
            )
        graph = members[args.index].graph
    else:
        known = ", ".join(sorted([*SINGLE_FAMILIES, "members", *TABLE_FAMILIES]))
        raise DigraphError(f"unknown family '{family}' (choose from: {known})")

    if args.format == "dg":
        sys.stdout.write(serialize_dg(graph))
    elif args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        _emit({"order": graph.n, "arcs": [list(a) for a in graph.arcs()]})
    return 0


# -- check / classify / ig --------------------------------------------------------


def _cmd_check(args) -> int:
    g = _load(args.file)
    data: dict = {"order": g.n, "arcs": g.arc_count()}
    prime = is_indecomposable(g)
    data["indecomposable"] = prime
    if not prime:
        full = (1 << g.n) - 1
        witness = _interval_witness(g.out_rows, g.in_rows, full)
        if not (witness & (witness - 1) and witness != full
                and _is_interval_mask(g.out_rows, g.in_rows, witness, full)):
            raise DigraphError(
                f"check: witness {witness:#x} is not a nontrivial interval")
        data["interval"] = list(bits_of(witness))
    if g.n <= SUBSET_ORACLE_BOUND:
        intervals = nontrivial_intervals(g)
        data["nontrivial_intervals"] = len(intervals)
        if len(intervals) <= 32:
            data["intervals"] = [list(t) for t in intervals]
    if prime:
        report = critical_vertices(g)
        data["critical"] = list(report.critical)
        data["noncritical"] = list(report.noncritical)
        data["defect"] = report.defect
        if g.n <= CANONICAL_BOUND:
            data["canonical_code"] = canonical_code(g).hex()
    _emit(data)
    return 0


def _cmd_classify(args) -> int:
    g = _load(args.file)
    outcome = classify(g)
    data: dict = {"verdict": outcome.verdict, "order": outcome.order}
    if outcome.defect is not None:
        data["defect"] = outcome.defect
    if outcome.noncritical:
        data["noncritical"] = list(outcome.noncritical)
    if outcome.match is not None:
        m = outcome.match
        data["match"] = {
            "family": m.family,
            "params": {k: v for k, v in m.params.items()},
            "variant": m.variant,
            "witness": list(m.witness),
            "noncritical": m.noncritical,
            "shape": _shape_json(m.shape),
            "all_hits": [list(h) for h in m.all_hits],
        }
    _emit(data)
    return 0


def _cmd_ig(args) -> int:
    g = _load(args.file)
    ig = indecomposability_graph(g)
    sup = support(ig)
    data = {
        "order": ig.n,
        "edges": sorted(list(e) for e in ig.edges),
        "isolated": list(sup.isolated),
        "component": list(sup.component) if sup.component else None,
        "shape": _shape_json(recognize_shape(ig, restricted_to=sup.component)),
    }
    _emit(data)
    return 0


# -- survey / roundtrip ------------------------------------------------------------


def _cmd_survey(args) -> int:
    if args.exhaustive:
        report = survey_exhaustive(
            args.order,
            workers=args.workers,
            on_chunk=_emit,
        )
    else:
        report = survey_random(
            args.order,
            args.samples,
            args.seed,
            workers=args.workers,
            on_chunk=_emit,
        )
    _emit(report.to_json())
    return 0 if report.ok else 1


def _parse_orders(text: str) -> range:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise DigraphError(f"bad order range '{text}' (want N or LO..HI)") from None
    if hi < lo:
        raise DigraphError(f"empty order range '{text}'")
    return range(lo, hi + 1)


def _cmd_roundtrip(args) -> int:
    report = roundtrip_check(_parse_orders(args.orders))
    _emit(report.to_json())
    return 0 if report.ok else 1


# -- selftest -----------------------------------------------------------------


def _selftest_named_graphs() -> None:
    for n in (2, 3, 4):
        for fn in (gen_T, gen_U, gen_V):
            if critical_vertices(fn(n)).defect != 0:
                raise DigraphError(f"{fn.__name__}({n}) is not a critical graph")
        r = gen_R(n)
        report = critical_vertices(r)
        if report.noncritical != (2 * n,):
            raise DigraphError(f"gen_R({n}) noncritical set is wrong")
        shape = recognize_shape(
            indecomposability_graph(r), restricted_to=range(2 * n)
        )
        if shape.kind != "path" or shape.path_edges != 2 * n - 1:
            raise DigraphError(f"gen_R({n}) deletion graph is not the claimed path")
    for p in (2, 3):
        h = gen_H(p)
        report = critical_vertices(h)
        if report.noncritical != (0,):
            raise DigraphError(f"gen_H({p}) noncritical set is wrong")
        shape = recognize_shape(indecomposability_graph(h))
        if shape.kind != "cycle" or shape.cycle_vertices != 2 * p + 1:
            raise DigraphError(f"gen_H({p}) deletion graph is not a full cycle")


def _selftest_q5_boundary() -> None:
    q = gen_Q5()
    if critical_vertices(q).defect != 1:
        raise DigraphError("gen_Q5 defect is not 1")
    if indecomposability_graph(q).edges:
        raise DigraphError("gen_Q5 deletion graph is not edgeless")
    if classify(q).verdict != OUT_OF_SCOPE_ORDER:
        raise DigraphError("gen_Q5 does not classify as out of scope")


def _selftest_enum_checked() -> None:
    members = enum_family_members(7, checked=True)
    if len(members) != 340:
        raise DigraphError(f"order-7 member count {len(members)} != 340")


def _selftest_roundtrip() -> None:
    report = roundtrip_check(range(7, 8))
    if not report.ok:
        raise DigraphError(f"roundtrip violations: {report.violations[:3]}")


def _selftest_exhaustive() -> None:
    report = survey_exhaustive(4)
    if not report.ok:
        raise DigraphError("order-4 exhaustive survey reported failures")
    if report.visited != 4096 or report.verdict_counts["decomposable"] != 1636:
        raise DigraphError("order-4 exhaustive counts are off")


def _selftest_random() -> None:
    report = survey_random(7, 200, 20260819)
    if not report.ok:
        raise DigraphError("random survey reported failures")


def _cmd_selftest(args) -> int:
    steps = (
        ("named_graph_claims", _selftest_named_graphs),
        ("q5_boundary", _selftest_q5_boundary),
        ("enum_checked_order7", _selftest_enum_checked),
        ("roundtrip_order7", _selftest_roundtrip),
        ("exhaustive_order4", _selftest_exhaustive),
        ("random_survey_order7", _selftest_random),
    )
    failures = 0
    for name, step in steps:
        started = time.time()
        try:
            step()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"ok {name} ({time.time() - started:.1f}s)")
    return 1 if failures else 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indecomp",
        description="generate, inspect, and verify indecomposable digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph")
    p.add_argument("family", help="generator or class name (see docs)")
    p.add_argument("params", nargs="*", type=int, help="integer parameters")
    p.add_argument("--index", type=int, default=0, help="member index for classes")
    p.add_argument("--gamma", action="store_true",
                   help="hstar_even: add the extra isolated vertex")
    p.add_argument("--format", choices=("dg", "dot", "json"), default="dg")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("check", help="decomposition and criticality report")
    p.add_argument("file", help="path to a .dg file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify", help="match a defect-one graph to a family")
    p.add_argument("file", help="path to a .dg file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("ig", help="pairwise-deletion graph and its shape")
    p.add_argument("file", help="path to a .dg file")
    p.set_defaults(fn=_cmd_ig)

    p = sub.add_parser("survey", help="exhaustive or random verification sweep")
    p.add_argument("--order", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("roundtrip", help="generate-then-classify consistency")
    p.add_argument("--orders", default="7..10", help="order range, e.g. 7..10")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("selftest", help="quick end-to-end fixture audit")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DigraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
