"""Record the outputs the benchmark gate compares against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are trusted; it rewrites
perfbench/reference.json with, for every size in worker.SIZES, the
random-audit outputs of each reference survey seed, the exhaustive-5
outputs, and the roundtrip member counts per order.  Recording refuses to
write outputs that contain failures.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    import indecomp

    reference: dict = {name: {} for name in worker.WORKLOADS}
    for size_name, size in worker.SIZES.items():
        runs = {
            str(seed): worker.run_random_audit(indecomp, seed, size, None)
            for seed in range(1, worker.REFERENCE_SEEDS + 1)
        }
        runs["exhaustive"] = worker.run_exhaustive(indecomp, 1, size, None)
        members = worker.make_inputs(indecomp, "roundtrip", 1, size)
        runs["roundtrip"] = worker.run_roundtrip(indecomp, 1, size, members)
        bad = [key for key, run in runs.items() if run["failed"] or run["outputs"] is None]
        if bad:
            print(f"record.py: failures in {size_name} runs {bad}", file=sys.stderr)
            return 1
        reference["random-audit"][size_name] = {
            key: run["outputs"] for key, run in runs.items() if key.isdigit()
        }
        reference["exhaustive-5"][size_name] = runs["exhaustive"]["outputs"]
        reference["roundtrip"][size_name] = {"members": runs["roundtrip"]["outputs"]["members"]}
    path = worker.ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
