"""Steadiness report: run one workload several times and summarise each metric.

    python3 bench/steady.py --workload NAME [--runs 10] [--sets 1] [--seed 1]
                            [--seconds S]

Runs ``bench/run.py`` one process at a time with seeds seed, seed+1, ...
and prints, for every metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the bound in
``BENCHMARK.json``.  With ``--sets 2`` the runs are repeated as a second
set with fresh seeds, and the report adds how far the second median moved
from the first, in the direction the metric gets worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    return result


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        first = args.seed + s * args.runs
        results = []
        for seed in range(first, first + args.runs):
            results.append(run_once(args.workload, seed, seconds))
            values = {k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()}
            print(f"  seed {seed}: {values}", flush=True)
        sets.append(results)

    print(f"{args.workload}: {args.runs} runs x {args.sets} set(s) of {seconds} s")
    print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'drift':>8s}")
    for name in sets[0][0]["metrics"]:
        meta = declared.get(name, {})
        stats = [summarise([r["metrics"][name]["value"] for r in results]) for results in sets]
        median, q1, q3, spread = stats[0]
        bound = meta.get("bound")
        drift = ""
        if len(stats) == 2 and median:
            change = (stats[1][0] - median) / median
            drift = f"{(change if meta.get('better') == 'lower' else -change):+8.3f}"
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"  {name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {drift:>8s}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
