"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload classes14 --seeds 10 --seconds 30 [--trace 0]

Runs `run.py` once per seed (1..N), one run at a time, from the root of a
checkout.  Prints one JSON object: the environment of the first run, and
for every metric its values, median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the
median), and the wall time of every pass of every run.  This is the
spread the bounds in BENCHMARK.json are judged by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

ENV_KEYS = ("git_rev", "src_sha256", "python", "numpy", "nproc", "cpu_model", "run_seconds")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results, records = [], []
    for seed in range(1, args.seeds + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results.append(json.loads(lines[-1]))
        records.append(json.loads(lines[-2]))
        print(f"seed {seed}: correct={results[-1]['correct']}", file=sys.stderr)

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
        metrics[name] = {
            "unit": m["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seeds": list(range(1, args.seeds + 1)),
        **{k: records[0].get(k) for k in ENV_KEYS},
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "pass_walls_s": {rec["seed"]: [p["wall_s"] for p in rec["passes"]] for rec in records},
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
