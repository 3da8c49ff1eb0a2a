"""indecomp benchmark: one workload per run, outputs gated, metrics as JSON.

    python3 perfbench/run.py --workload random-audit --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; it imports indecomp from ./src.
Every repetition runs in a fresh interpreter (worker.py), one process at a
time with workers=1, so set-up, cold caches and peak RSS are what a command
line user pays.  Without tracing, repetitions continue until their timed
phases add up to --seconds (at least MIN_REPS of them).  Each repetition
gives one set-up sample; after each of the first MIN_REPS repetitions,
set-up-only processes add more until the samples add up to its share of
SETUP_SECONDS, so that they are spread over the whole run.  With --trace 1
the run makes TRACE_PAIRS alternating untraced and traced repetitions and
reports the median per-layer numbers of the traced ones, plus the median
difference in timed-phase seconds between the two of a pair.

Every repetition's outputs are compared with perfbench/reference.json.  On
any mismatch the result line has "correct": false and no metrics, and the
exit code is 1.  The last line of standard output is the result object;
the lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402

MIN_REPS = 3
# set-up samples add up to at least this much set-up time
SETUP_SECONDS = 5.0
TRACE_PAIRS = 2
WORKER_TIMEOUT_S = 150
REFERENCE = HERE / "reference.json"


class BenchError(Exception):
    """A repetition could not be run or did not report."""


def spawn(workload: str, seed: int, size: str, mode: str = "run", trace: int = 0) -> dict:
    """Run one worker process to completion and return its result object,
    with the wall time the parent saw added as wall_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode,
           "--trace", str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    wall_s = time.monotonic() - spawned
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall_s
    return result


def gate(workload: str, seed: int, size: str, outputs, reference: dict) -> list:
    """Mismatches between one repetition's outputs and the recorded ones."""
    if outputs is None:
        return ["the workload call raised"]
    ref = reference[workload][size]
    if workload == "random-audit":
        ref = ref[str(worker.survey_seed(seed))]
    problems = []
    if workload == "roundtrip":
        if outputs["members"] != ref["members"]:
            problems.append(f"members {outputs['members']} != {ref['members']}")
        for order, count in ref["members"].items():
            got = outputs["verdicts"].get(order)
            if got != {"minus_one_critical": count}:
                problems.append(f"order {order} verdicts {got}")
        return problems
    for key in ("visited", "verdicts", "audits", "codes_sha256"):
        if outputs[key] != ref[key]:
            problems.append(f"{key}: {outputs[key]!r} != {ref[key]!r}")
    failed = {k: t["failed"] for k, t in outputs["audits"].items() if t["failed"]}
    if failed:
        problems.append(f"audit failures {failed}")
    return problems


def end_to_end(reps: list, setups: list) -> dict:
    latencies = [x * 1000.0 for r in reps for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "graphs_per_s": (statistics.median(r["attempted"] / r["timed_s"] for r in reps), "1/s"),
        "latency_ms.p50": (statistics.median(latencies), "ms"),
        "latency_ms.p99": (statistics.quantiles(latencies, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
    }


def per_layer(traced: dict, split) -> dict:
    """Per-layer metrics of one traced repetition."""
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]
    metrics = {}
    for _module, _attr, name, kind in tracer.TRACED:
        if kind == "span":
            calls, self_s = spans.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
        elif kind == "count":
            metrics[f"{name}.calls"] = (counts.get(name, 0), "count")
        else:
            for order in worker.SIZES["full"]["roundtrip_orders"]:
                key = f"{name}.o{order}"
                metrics[f"{key}.self_s"] = (spans.get(key, (0, 0.0))[1], "s")
    closures = counts.get("modular.closure_mask", 0)
    primes = spans.get("modular.prime_mask", (0, 0.0))[0]
    metrics["modular.closures_per_prime"] = (closures / primes if primes else 0.0, "ratio")
    metrics["classifier.candidate_cache.hits"] = (trace["candidate_cache"]["hits"], "count")
    metrics["classifier.candidate_cache.misses"] = (trace["candidate_cache"]["misses"], "count")
    metrics["harness.defect_one_share"] = (traced["defect_one"] / traced["attempted"], "ratio")
    ms = split["ms_per_graph"] if split else {}
    for name in traced["audit_names"]:
        metrics[f"harness.audit.{name}.ms_per_graph"] = (ms.get(name, 0.0), "ms")
    return metrics


def traced_metrics(reps: list, split) -> dict:
    """Medians over the traced repetitions of reps (alternating untraced,
    traced), plus the tracing overhead: the median over the pairs of traced
    minus untraced timed-phase seconds."""
    runs = [per_layer(r, split) for r in reps[1::2]]
    metrics = {name: (statistics.median(m[name][0] for m in runs), unit)
               for name, (_value, unit) in runs[0].items()}
    overhead = statistics.median(t["timed_s"] - p["timed_s"]
                                 for p, t in zip(reps[::2], reps[1::2]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def measure(args) -> tuple:
    """Run the repetitions; returns (reps, setups, split).  Traced, reps
    alternates untraced and traced repetitions."""
    run = functools.partial(spawn, args.workload, args.seed, args.size)
    if args.trace:
        reps = [run(trace=t) for _pair in range(TRACE_PAIRS) for t in (0, 1)]
        split = run("audits") if args.workload == "random-audit" else None
        return reps, [], split
    reps, setups = [], []
    while len(reps) < MIN_REPS or sum(r["timed_s"] for r in reps) < args.seconds:
        reps.append(run())
        setups.append(reps[-1]["setup_s"])
        share = min(len(reps), MIN_REPS) / MIN_REPS
        while sum(setups) < SETUP_SECONDS * share:
            setups.append(run("setup")["setup_s"])
    return reps, setups, None


def main(argv=None, reference=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(worker.SIZES), default="full",
                    help="'tiny' is for selftest.py only")
    args = ap.parse_args(argv)

    src = ROOT / "src" / "indecomp"
    if not (src / "__init__.py").is_file():
        print(f"run.py: no indecomp sources under {src}", file=sys.stderr)
        return 2
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    # byte-compile outside the measured runs, as an installed package is
    compileall.compile_dir(str(src), quiet=1)

    try:
        reps, setups, split = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    problems = [p for r in reps
                for p in gate(args.workload, args.seed, args.size, r["outputs"], reference)]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if split is not None:
        want = reference["random-audit"][args.size][str(worker.survey_seed(args.seed))]
        problems += [f"audit split verdicts {v}" for v in split["verdicts"]
                     if v != want["verdicts"]]
        attempted += split["attempted"]
        failed += split["failed"]
    correct = not problems and failed == 0
    metrics = {}
    if correct:
        metrics = traced_metrics(reps, split) if args.trace else end_to_end(reps, setups)

    samples = sum(len(r["latencies"]) for r in reps)
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(reps)} repetitions, {len(setups)} set-ups, {samples} latency samples "
          f"({int(samples * 0.01)} beyond p99), failure_rate={failed}/{attempted}")
    for problem in problems:
        print(f"  gate: {problem}")
    for error in {r["error"] for r in reps if r.get("error")}:
        print(f"  raised: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
