"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads kstar,sweep,profile --seeds 1-10

Runs are sequential, one workload process at a time, each for the
``run_seconds`` of ``BENCHMARK.json``.  For every workload and end-to-end
metric it prints the median of the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (Q3 - Q1) /
median and that spread as a share of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_child

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            _, result = run_child(workload, seed, spec["run_seconds"], 0)
            runs[workload].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    print(f"{'workload':8s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'/bound':>7s}")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:8s} {name:12s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {spread / bound:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
