"""Paired comparison of two checkouts with the same benchmark code.

Usage:

    python3 bench/compare.py BASE CHANGE [--workload NAME ...] [--seed 42]

BASE and CHANGE are checkout roots, each holding src/alphaloss. Every pair
runs this directory's run.py once in each checkout (the checkout is the
working directory, so its source is measured), one run after the other, for
BENCHMARK.json's run_seconds; the side that goes first alternates from pair
to pair, and BASE goes first in the first pair. Before a workload's pairs
start, its reference digests for a seed other than run.DEFAULT_SEED are
cleared, so the first BASE run that passes its checks becomes the reference
that both sides' outputs must match. For every workload and end-to-end
metric the report gives each side's median and quartiles, the CHANGE side's
win fraction (pairs where it is better by the metric's direction, ties
counting for neither) and every raw value. The report is printed as JSON on
stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed in {checkout} on {workload}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(base: Path, change: Path, workloads: list[str], seed: int) -> dict:
    spec = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"base": str(base), "change": str(change), "pairs": PAIRS, "seed": seed,
              "seconds": seconds, "workloads": {}}
    for workload in workloads:
        run.reference_path(workload, seed).unlink(missing_ok=True)
        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(base if side == "base" else change, workload, seed, seconds))
        metrics = {}
        for name, direction in better.items():
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in zip(runs["base"], runs["change"])
                     if name in a["metrics"] and name in b["metrics"]]
            if len(pairs) < 2:
                continue
            wins = sum((y < x) if direction == "lower" else (y > x) for x, y in pairs)
            metrics[name] = {"base": summarize([x for x, _ in pairs]),
                             "change": summarize([y for _, y in pairs]),
                             "change_win_fraction": wins / len(pairs)}
        report["workloads"][workload] = {
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": metrics,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    report = compare(args.base.resolve(), args.change.resolve(), args.workload or sorted(WORKLOADS),
                     args.seed)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
