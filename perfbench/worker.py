"""One repetition of a benchmark workload, in a fresh interpreter.

Run by run.py, never by hand.  Prints one JSON object as its last line:

  mode "run"    set-up time, timed-phase time, per-operation latencies,
                peak RSS, attempted/failed counts, the outputs the gate
                compares, and (with --trace 1) the per-layer trace;
  mode "setup"  set-up time only;
  mode "audits" random-audit ms/graph with one audit enabled at a time.

Set-up time runs from the moment run.py spawned this process (passed as a
CLOCK_MONOTONIC reading in --spawned) until the inputs are ready: interpreter
start, the indecomp import, and member enumeration for roundtrip.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("random-audit", "exhaustive-5", "roundtrip")

# "tiny" is for selftest.py; benchmark runs use "full"
SIZES = {
    "full": {"random_order": 8, "random_samples": 300, "exhaustive_order": 5,
             "roundtrip_orders": (7, 8, 9, 10)},
    "tiny": {"random_order": 8, "random_samples": 5, "exhaustive_order": 4,
             "roundtrip_orders": (7,)},
}

# random-audit samples with one of these survey seeds, so that every run is
# gated against recorded outputs: --seed s maps to 1 + (s - 1) % 16
REFERENCE_SEEDS = 16


def survey_seed(seed: int) -> int:
    return 1 + (seed - 1) % REFERENCE_SEEDS


def _codes_sha256(codes) -> str:
    return hashlib.sha256("\n".join(codes).encode()).hexdigest()


def _survey_outputs(report) -> dict:
    return {
        "visited": report.visited,
        "verdicts": dict(sorted(report.verdict_counts.items())),
        "audits": {k: dict(v) for k, v in sorted(report.audits.items())},
        "codes_sha256": _codes_sha256(report.defect_one_codes),
    }


def make_inputs(indecomp, workload: str, seed: int, size: dict):
    """The workload's inputs; only roundtrip has any to build."""
    if workload != "roundtrip":
        return None
    members = [
        m.graph
        for order in size["roundtrip_orders"]
        for m in indecomp.enum_family_members(order)
    ]
    random.Random(seed).shuffle(members)
    return members


def run_random_audit(indecomp, seed: int, size: dict, inputs) -> dict:
    """survey_random with every audit on.  Latency is per audited graph,
    timed around harness._audit_graph, survey_random's per-graph step."""
    from indecomp import harness

    samples = size["random_samples"]
    latencies = []
    audit_graph = harness._audit_graph

    def timed_audit(*args):
        start = time.perf_counter()
        try:
            return audit_graph(*args)
        finally:
            latencies.append(time.perf_counter() - start)

    harness._audit_graph = timed_audit
    start = time.perf_counter()
    try:
        report = indecomp.survey_random(
            size["random_order"], samples, survey_seed(seed),
            workers=1, mutate_members=False,
        )
    except (indecomp.DigraphError, indecomp.TheoremViolation) as exc:
        report, error = None, repr(exc)
    else:
        error = None
    finally:
        harness._audit_graph = audit_graph
    timed_s = time.perf_counter() - start
    return _survey_result(report, error, samples, timed_s, latencies)


def run_exhaustive(indecomp, seed: int, size: dict, inputs) -> dict:
    """survey_exhaustive; latency is per streamed chunk of graphs."""
    order = size["exhaustive_order"]
    total = 4 ** (order * (order - 1) // 2)
    latencies = []
    last = [time.perf_counter()]

    def on_chunk(_info):
        now = time.perf_counter()
        latencies.append(now - last[0])
        last[0] = now

    start = last[0]
    try:
        report = indecomp.survey_exhaustive(order, workers=1, on_chunk=on_chunk)
    except (indecomp.DigraphError, indecomp.TheoremViolation) as exc:
        report, error = None, repr(exc)
    else:
        error = None
    timed_s = time.perf_counter() - start
    return _survey_result(report, error, total, timed_s, latencies)


def _survey_result(report, error, attempted, timed_s, latencies) -> dict:
    if report is None:
        return {"attempted": attempted, "failed": attempted, "error": error,
                "timed_s": timed_s, "latencies": latencies, "outputs": None,
                "defect_one": 0}
    verdicts = report.verdict_counts
    defect_one = sum(
        verdicts.get(v, 0)
        for v in ("out_of_scope_order", "minus_one_critical", "theorem_violation")
    )
    return {"attempted": report.visited, "failed": report.failures,
            "error": None, "timed_s": timed_s, "latencies": latencies,
            "outputs": _survey_outputs(report), "defect_one": defect_one}


def run_roundtrip(indecomp, seed: int, size: dict, members) -> dict:
    """classify every family member, in the seeded order."""
    latencies = []
    counts: dict = {}
    verdicts: dict = {}
    failed = 0
    error = None
    start = time.perf_counter()
    for g in members:
        t0 = time.perf_counter()
        try:
            verdict = indecomp.classify(g).verdict
        except (indecomp.DigraphError, indecomp.TheoremViolation) as exc:
            verdict, error = "raised", repr(exc)
        latencies.append(time.perf_counter() - t0)
        if verdict in ("raised", "theorem_violation"):
            failed += 1
        key = str(g.n)
        counts[key] = counts.get(key, 0) + 1
        tally = verdicts.setdefault(key, {})
        tally[verdict] = tally.get(verdict, 0) + 1
    timed_s = time.perf_counter() - start
    defect_one = sum(
        c for t in verdicts.values() for v, c in t.items()
        if v in ("minus_one_critical", "theorem_violation")
    )
    return {"attempted": len(members), "failed": failed, "error": error,
            "timed_s": timed_s, "latencies": latencies,
            "outputs": {"members": dict(sorted(counts.items())),
                        "verdicts": dict(sorted(verdicts.items()))},
            "defect_one": defect_one}


RUNNERS = {
    "random-audit": run_random_audit,
    "exhaustive-5": run_exhaustive,
    "roundtrip": run_roundtrip,
}


def audit_names() -> list:
    """The audits of the per-audit split: each of harness.AUDIT_NAMES, then
    "none" for a survey with no audit."""
    from indecomp.harness import AUDIT_NAMES

    return list(AUDIT_NAMES) + ["none"]


def audit_split(indecomp, seed: int, size: dict) -> dict:
    """ms/graph of random-audit's survey with one audit enabled at a time
    ("none": no audits); run.py gates every run's verdicts."""
    samples = size["random_samples"]
    split, verdicts, failed = {}, [], 0
    for name in audit_names():
        audits = () if name == "none" else (name,)
        start = time.perf_counter()
        try:
            report = indecomp.survey_random(
                size["random_order"], samples, survey_seed(seed),
                workers=1, audits=audits, mutate_members=False,
            )
        except (indecomp.DigraphError, indecomp.TheoremViolation):
            verdicts.append(None)
            failed += samples
        else:
            verdicts.append(dict(sorted(report.verdict_counts.items())))
            failed += report.failures
        split[name] = (time.perf_counter() - start) * 1000.0 / samples
    return {"ms_per_graph": split, "verdicts": verdicts,
            "attempted": samples * len(split), "failed": failed}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--mode", choices=("run", "setup", "audits"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    size = SIZES[args.size]

    sys.path.insert(0, str(ROOT / "src"))
    import indecomp

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    inputs = make_inputs(indecomp, args.workload, args.seed, size)
    setup_s = time.monotonic() - args.spawned

    if args.mode == "setup":
        result = {}
    elif args.mode == "audits":
        result = audit_split(indecomp, args.seed, size)
    else:
        result = RUNNERS[args.workload](indecomp, args.seed, size, inputs)
        if tracer is not None:
            result["trace"] = tracer.snapshot()
            result["audit_names"] = audit_names()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
