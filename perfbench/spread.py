"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload svm-growth --seeds 1-10 [--seconds 25] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, from the
repository root.  For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median; it also prints attempted, failed and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(results[-1])}", flush=True)

    print(f"workload {args.workload}, {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed/attempted: {sorted({(r['failed'], r['attempted']) for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"  {name:52s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
