"""Fast self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
each with its unit (end-to-end untraced, per-layer traced); that the output
gate rejects a tampered reference value on every workload, reporting no
metrics; and that run.py exits non-zero without a result in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import worker

SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
# a tiny run's set-up samples cost as much as a full run's; take fewer
run.SETUP_SECONDS = 1.0
FAILURES = []


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def run_tiny(workload: str, trace: int, reference=None) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"], reference=reference)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_tiny(workload, trace)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        check(code == 0 and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              f"{workload} trace={trace}: correct, attempted >= 1, nothing failed")
        check(got == want and numbers,
              f"{workload} trace={trace}: emits every {section} metric with its unit")


TAMPER = {
    "random-audit": lambda ref: ref["random-audit"]["tiny"]["1"].__setitem__("visited", 6),
    "exhaustive-5": lambda ref: ref["exhaustive-5"]["tiny"]["verdicts"].__setitem__("critical", 1),
    "roundtrip": lambda ref: ref["roundtrip"]["tiny"]["members"].__setitem__("7", 341),
}


def check_gate(workload: str) -> None:
    reference = json.loads(run.REFERENCE.read_text())
    TAMPER[workload](reference)
    code, result = run_tiny(workload, 0, reference)
    check(code == 1 and not result["correct"] and result["metrics"] == {},
          f"{workload}: gate rejects a tampered reference value")


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(worker.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(worker.ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without sources: non-zero exit and no result line")


def main() -> int:
    for workload in worker.WORKLOADS:
        check_metrics(workload)
        check_gate(workload)
    check_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
