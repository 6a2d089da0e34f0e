"""Benchmark of the alphaloss CLI.

Usage, from the root of a checkout (the source under ./src is measured):

    python3 bench/run.py --workload {ngd,certify,saturation} [--seed 42]
                         [--seconds 40] [--trace 0|1]

Each repetition runs in a fresh interpreter (bench/child.py), one after
another, with one BLAS thread (see CHILD_ENV).
With --trace 0 it runs the workload's command MIN_COMMAND_REPS times and
then again while another repetition fits in --seconds, adds set-up-only
repetitions until it has at least MIN_SETUP_SAMPLES set-up times, and
reports the medians of the end-to-end metrics. With --trace 1 it runs the
command once untraced and once with spans recorded (bench/tracer.py) and
reports the per-layer metrics.

Every repetition is checked: exit code 0, exactly the expected files in
--out, their sha256 equal to the reference, and the workload's semantic
checks. The reference digests of seed 42 are in bench/digests.json; for any
other seed the first repetition that passes the other checks becomes the
reference, kept in .bench_runs/reference/ of the checkout that holds this
file, so that both sides of bench/compare.py check against one reference.
A repetition that fails a check counts in ``failed``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A metric that no repetition measured, because each one
crashed or timed out, is left out of metrics. The full run record, with
every raw sample and the machine's details, goes to .bench_runs/records/ and
its path to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 42
MIN_COMMAND_REPS = 2
MIN_SETUP_SAMPLES = 11
# A run must end within 180 s: no repetition outlives RUN_LIMIT_S from the
# start, and the repetitions that MIN_COMMAND_REPS forces past --seconds
# must be expected to end within MIN_REPS_LIMIT_S.
RUN_LIMIT_S = 165.0
MIN_REPS_LIMIT_S = 120.0
# One BLAS thread per repetition. On a 2-vCPU Xeon VM shared with other
# load, a second BLAS thread helps only while the other vCPU happens to be
# free: in a busy spell saturation took 15.2 s with one thread and 17.3 s
# with two, and in quiet spells its CPU time rose above its wall time.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DIGESTS = BENCH / "digests.json"
BENCHMARK_JSON = BENCH.parent / "BENCHMARK.json"
REFERENCE_DIR = BENCH.parent / ".bench_runs" / "reference"


def metric_units() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reference_path(workload: str, seed: int) -> Path:
    """Where the reference digests of a seed other than DEFAULT_SEED live."""
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
    }


class Runner:
    """Repetitions of one workload in one checkout, with their checks."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.state = root / ".bench_runs"
        self.out = self.state / "out" / f"{workload.name}-{os.getpid()}"
        self.reference_path = reference_path(workload.name, seed)
        self.reps: list[dict] = []
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spans(self, tag: str) -> Path:
        return self.state / "spans" / f"{tag}.csv.gz"

    def reference(self) -> dict | None:
        if self.seed == DEFAULT_SEED:
            return json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.workload.name)
        if self.reference_path.exists():
            return json.loads(self.reference_path.read_text(encoding="utf-8"))
        return None

    def child(self, argv: list[str], trace: int, tag: str) -> dict | None:
        result_path = self.state / "tmp" / f"{tag}.json"
        result_path.parent.mkdir(parents=True, exist_ok=True)
        result_path.unlink(missing_ok=True)
        spec = {
            "src": str(self.root / "src"),
            "preset": self.workload.flag("--preset"),
            "n": int(self.workload.flag("--n")),
            "seed": self.seed,
            "argv": argv,
            "trace": trace,
            "run_id": tag,
            "spans": str(self.spans(tag)),
            "result": str(result_path),
        }
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            return None
        try:
            subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)], cwd=self.root,
                           env=dict(os.environ, **CHILD_ENV), stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        if not result_path.exists():
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result

    def check(self, result: dict | None) -> list[str]:
        if result is None:
            return ["the repetition produced no result (crash or timeout)"]
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}"]
        files = sorted(p.name for p in self.out.iterdir()) if self.out.is_dir() else []
        if files != sorted(self.workload.outputs):
            return [f"--out holds {files}, expected {sorted(self.workload.outputs)}"]
        digests = {name: sha256_file(self.out / name) for name in files}
        try:
            problems = self.workload.check(self.out, self.workload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"semantic check raised {exc!r}"]
        reference = self.reference()
        if reference is None and not problems:
            self.reference_path.parent.mkdir(parents=True, exist_ok=True)
            self.reference_path.write_text(json.dumps(digests, indent=2), encoding="utf-8")
        elif reference is not None and digests != reference:
            problems.append(f"output digests {digests} differ from the reference {reference}")
        return problems

    def command(self, trace: int) -> dict:
        """Run the workload's command once; returns the repetition record."""
        shutil.rmtree(self.out, ignore_errors=True)
        tag = f"{self.workload.name}-s{self.seed}-{os.getpid()}-{len(self.reps)}"
        started = time.perf_counter()
        result = self.child(self.workload.command(self.seed, self.out), trace, tag)
        rep = {"kind": "traced" if trace else "command", "elapsed_s": time.perf_counter() - started,
               **(result or {}), "problems": self.check(result)}
        if trace and result is not None:
            rep["spans"] = str(self.spans(tag))
        self.reps.append(rep)
        return rep

    def setup_only(self) -> dict:
        result = self.child([], 0, f"{self.workload.name}-setup-{os.getpid()}-{len(self.reps)}")
        rep = {"kind": "setup", **(result or {})}
        self.reps.append(rep)
        return rep


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, run record)."""
    runner = Runner(root, workload, seed)
    first = runner.command(0)
    while not trace and first.get("wall_s") is not None:
        typical = statistics.median(r["elapsed_s"] for r in runner.reps)
        limit = seconds if len(runner.reps) >= MIN_COMMAND_REPS else MIN_REPS_LIMIT_S
        if runner.elapsed() + typical > limit:
            break
        runner.command(0)
    if trace:
        runner.command(1)
    while not trace and sum("setup_s" in r for r in runner.reps) < MIN_SETUP_SAMPLES:
        if "setup_s" not in runner.setup_only():
            break

    measured = [r for r in runner.reps if r["kind"] != "setup"]
    failed = sum(1 for r in measured if r["problems"])
    units = metric_units()
    values = {}
    if trace:
        traced = measured[-1]
        if "layers" in traced and "wall_s" in first:
            values = dict(traced["layers"], trace_overhead_ratio=traced["wall_s"] / first["wall_s"])
    else:
        timed = [r for r in measured if "wall_s" in r]
        if timed:
            values = {name: statistics.median(r[name] for r in timed)
                      for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        setups = [r["setup_s"] for r in runner.reps if "setup_s" in r]
        if setups:
            values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in sorted(values)}
    line = {"correct": failed == 0, "attempted": len(measured), "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "command": workload.command(seed, runner.out),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": dict(environment(root), blas_threads=first.get("blas_threads")),
        "error_rate": failed / len(measured),
        "repetitions": runner.reps,
        "result": line,
    }
    return line, record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "alphaloss" / "cli.py").is_file():
        print(f"error: {root} holds no alphaloss source under src/alphaloss", file=sys.stderr)
        return 2
    line, record = measure(root, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    records = root / ".bench_runs" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"run record: {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
