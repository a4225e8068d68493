"""Repeat the benchmark across seeds and summarise it with the lab's own
statistics.

Usage (from the repository root)::

    python3 perfbench/summarize.py --workload env-sweep --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed, each in its own process, and
prints for every metric the median, the quartiles, the spread (the
distance between the quartiles as a share of the median, computed as
``statistics.quantiles(values, n=4)`` does) against the metric's bound
in BENCHMARK.json, and a 95% BCa interval for the median from
``repro.stats``.  Each run measures ``run_seconds`` of BENCHMARK.json,
the run length the bounds were set for.  The exit code is 1 when a run
fails or when a metric's spread exceeds a third of its bound.  The per-run values and host facts are written to
``.perfbench_out/summary-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro._errors import StatsError  # noqa: E402
from repro.stats import bca_confidence_interval  # noqa: E402


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def median_interval(values: List[float]) -> Optional[Tuple[float, float]]:
    """95% BCa interval for the median, or None for a degenerate sample."""
    try:
        ci = bca_confidence_interval(values, statistic=statistics.median)
    except StatsError:
        return None
    return ci.lo, ci.hi


def main(argv=None) -> int:
    """Run the repeats; see the module docstring."""
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs: List[Dict[str, Any]] = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        host = next((json.loads(line.split(": ", 1)[1]) for line in lines
                     if line.startswith("host ")), {})
        runs.append({"seed": seed, "exit": proc.returncode,
                     "result": result, "host": host})
        values = {k: round(v["value"], 4)
                  for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {proc.returncode} "
              f"load {host.get('load_before', ['?'])[0]} {values}",
              flush=True)
        if proc.returncode != 0:
            print(f"seed {seed} failed; stopping", file=sys.stderr)
            return 1

    names = list(runs[0]["result"]["metrics"])
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  BCa 95% of median")
    ok = True
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        s = spread(values)
        bound = bounds.get(name)
        ci = median_interval(values)
        flag = ""
        if bound is not None and s > bound / 3:
            flag, ok = "  > bound/3", False
        print(f"{name:<30} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{s:>8.4f} {bound if bound is not None else '-':>6}  "
              + (f"[{ci[0]:.6g}, {ci[1]:.6g}]" if ci else "n/a") + flag)
    out = os.path.join(ROOT, ".perfbench_out",
                       f"summary-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
