"""Run every workload untraced and traced and print all metrics.

    python3 bench/report.py [--seed N] [--seconds S]

Prints, per workload, the end-to-end metrics, the per-layer metrics that
the workload exercises (non-zero), and the attempted and failed operation
counts of both runs.  Takes about 8 x ``run_seconds`` plus set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        for trace in (0, 1):
            result = run(name, args.seed, args.seconds, trace)
            print(f"   trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for metric, m in result["metrics"].items():
                if trace and not m["value"] and \
                        not metric.startswith("probes."):
                    continue
                print(f"   {metric:36s} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    main()
