"""Workload table of the benchmark: the CLI command each workload runs, the
dataset its set-up builds, the files its --out directory must hold, and the
semantic checks its outputs must pass."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _check_ngd(out: Path, workload: Workload) -> list[str]:
    summary = json.loads((out / "ngd_summary.json").read_text())
    epsilon = float(summary["inputs"]["epsilon"])
    gap = summary["achieved_gap"]
    if not (isinstance(gap, float) and gap <= epsilon):
        return [f"achieved_gap {gap!r} exceeds epsilon {epsilon!r}"]
    return []


def _check_certify(out: Path, workload: Workload) -> list[str]:
    report = json.loads((out / "certificate.json").read_text())
    problems = []
    counts = report["slqc_sweep"]["counts"]
    sweep = int(workload.flag("--sweep"))
    if sum(counts.values()) != sweep:
        problems.append(f"sweep counts {counts} do not sum to --sweep {sweep}")
    if counts["neither"] != 0:
        problems.append(f"{counts['neither']} neither verdicts")
    window = report["evolution_window"]
    if not (isinstance(window, float) and math.isfinite(window)):
        problems.append(f"evolution window {window!r} is not finite")
    return problems


def _check_saturation(out: Path, workload: Workload) -> list[str]:
    with open(out / "saturation.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    if len(rows) != 5:
        problems.append(f"{len(rows)} saturation rows, expected 5")
    bad = [row["alpha"] for row in rows if row["within_bound"] != "true"]
    if bad:
        problems.append(f"orders {bad} exceed the saturation bound")
    return problems


@dataclass(frozen=True)
class Workload:
    """One CLI command plus what its run must produce. The command's own
    --preset and --n name the dataset the set-up phase builds before it."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path, Workload], list[str]]
    why: str

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def command(self, seed: int, out: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ngd",
            argv=("ngd", "--preset", "fig2", "--n", "1000", "--iters", "3000"),
            outputs=("ngd_summary.json",),
            check=_check_ngd,
            why="~103k sequential single-point value+gradient calls on 1000-sample rows: "
            "per-call overhead, the projected loop and short exact sums",
        ),
        Workload(
            name="certify",
            argv=("certify", "--preset", "fig2", "--n", "5000", "--epsilon0", "0.05",
                  "--ngd-epsilon", "0.4", "--sweep", "4000", "--i-budget", "4000"),
            outputs=("certificate.json", "evolution.csv"),
            check=_check_certify,
            why="8000 sampled points in batched value and gradient passes; both verdicts, "
            "so every certify section runs",
        ),
        Workload(
            name="saturation",
            argv=("saturation", "--preset", "fig3", "--n", "20000"),
            outputs=("saturation.csv",),
            check=_check_saturation,
            why="1257 nodes x 20000 samples x 10 value-only order evaluations: the largest "
            "blocks, the heaviest data generation",
        ),
    )
}
