#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --runs 10 --first-seed 100 [--workload NAME ...]

Runs ``bench/run.py --trace 0`` once per seed and workload, one run at a
time, and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  The failed
share of every run is printed too.  The raw results are kept in
``bench/.results/spread-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = BENCH / ".results"
    out_dir.mkdir(exist_ok=True)
    for name in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        (out_dir / f"spread-{name}-{args.first_seed}.json").write_text(
            json.dumps(results, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {args.runs} runs, correct "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print(f"  {metric:36s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else ""))


if __name__ == "__main__":
    main()
