"""Tests of the benchmark itself, on commands small enough to take seconds.

Each test measures in a scratch checkout whose src/ links to this
repository's source, and keeps reference digests in a scratch directory, so
the benchmark's state never lands in the repository.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Workload, _check_certify, _check_ngd, _check_saturation

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_NGD = Workload(
    name="tiny-ngd",
    argv=("ngd", "--preset", "fig2", "--n", "200", "--iters", "50", "--ref-steps", "1000"),
    outputs=("ngd_summary.json",),
    check=_check_ngd,
    why="small enough for a unit test",
)
TINY_CERTIFY = Workload(
    name="tiny-certify",
    argv=("certify", "--preset", "fig2", "--n", "300", "--epsilon0", "0.05", "--ngd-epsilon", "0.4",
          "--sweep", "100", "--i-budget", "100"),
    outputs=("certificate.json", "evolution.csv"),
    check=_check_certify,
    why="small enough for a unit test",
)
TINY_SATURATION = Workload(
    name="tiny-saturation",
    argv=("saturation", "--preset", "fig3", "--n", "300", "--grid-count", "7"),
    outputs=("saturation.csv",),
    check=_check_saturation,
    why="small enough for a unit test",
)
COUNTS = ("ngd.reference_steps", "ngd.reference_fixed_point_step", "ngd.run_iterations",
          "risk.objective_calls", "risk.terms", "slqc.sweep_points", "numerics.sample_ball_calls")


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    root = tmp_path / "base"
    root.mkdir()
    (root / "src").symlink_to(REPO / "src", target_is_directory=True)
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "reference")
    monkeypatch.setattr(run, "MIN_COMMAND_REPS", 1)
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 2)
    return root


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_failing_command_counts_in_error_rate(checkout):
    failing = Workload(
        name="failing", argv=("ngd", "--preset", "fig2", "--n", "200", "--epsilon", "-1"),
        outputs=("ngd_summary.json",), check=_check_ngd, why="exits 2",
    )
    line, record = run.measure(checkout, failing, seed=7, seconds=0, trace=0)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 1)
    assert record["error_rate"] == 1.0
    assert record["repetitions"][0]["problems"] == ["exit code 2"]
    assert set(line["metrics"]) == names("end_to_end")


@pytest.mark.parametrize("trace", [0, 1])
def test_repetitions_that_time_out_are_counted(checkout, monkeypatch, trace):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.05)
    line, record = run.measure(checkout, TINY_NGD, seed=7, seconds=0, trace=trace)
    assert line == {"correct": False, "attempted": 1 + trace, "failed": 1 + trace, "metrics": {}}
    assert record["error_rate"] == 1.0
    assert "crash or timeout" in record["repetitions"][0]["problems"][0]


def test_traced_run_leaves_out_untouched_and_counts_repeat(checkout):
    lines = []
    for _ in range(2):
        line, record = run.measure(checkout, TINY_NGD, seed=7, seconds=0, trace=1)
        assert (line["correct"], line["attempted"], line["failed"]) == (True, 2, 0)
        assert set(line["metrics"]) == names("per_layer")
        traced = record["repetitions"][1]
        assert traced["kind"] == "traced" and Path(traced["spans"]).is_file()
        lines.append(line)
    out = checkout / ".bench_runs" / "out"
    assert [p.name for p in next(out.iterdir()).iterdir()] == ["ngd_summary.json"]
    reference = json.loads(run.reference_path("tiny-ngd", 7).read_text())
    assert list(reference) == ["ngd_summary.json"]
    first, second = ({k: line["metrics"][k]["value"] for k in COUNTS} for line in lines)
    assert first == second
    assert first["ngd.reference_steps"] == 1000 and first["ngd.run_iterations"] == 50
    assert first["risk.objective_calls"] == 1050 and first["slqc.sweep_points"] == 0


@pytest.mark.parametrize("workload", [TINY_CERTIFY, TINY_SATURATION], ids=lambda w: w.name)
def test_traced_certify_and_saturation_report_every_declared_metric(checkout, workload):
    line, _ = run.measure(checkout, workload, seed=7, seconds=0, trace=1)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 2, 0)
    assert set(line["metrics"]) == names("per_layer")
    assert line["metrics"]["risk.terms"]["value"] > 0


def test_output_that_differs_from_the_first_checkout_fails(checkout, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "alphaloss" / "cli.py"
    text = cli.read_text()
    assert "indent=2, sort_keys=True" in text
    cli.write_text(text.replace("indent=2, sort_keys=True", "indent=1, sort_keys=True"))
    base_line, _ = run.measure(checkout, TINY_NGD, seed=7, seconds=0, trace=0)
    change_line, record = run.measure(change, TINY_NGD, seed=7, seconds=0, trace=0)
    assert (base_line["correct"], base_line["failed"]) == (True, 0)
    assert (change_line["correct"], change_line["failed"]) == (False, 1)
    assert "differ from the reference" in record["repetitions"][0]["problems"][0]


def test_declared_metrics_and_workloads_match_the_code(checkout):
    line, _ = run.measure(checkout, TINY_NGD, seed=7, seconds=0, trace=0)
    assert set(line["metrics"]) == names("end_to_end")
    layers = json.loads((REPO / "bench" / "layers.json").read_text(encoding="utf-8"))
    assert set(layers["per_layer"]) == names("per_layer")
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: " ".join(w.argv) + ": " + w.why for w in WORKLOADS.values()
    }


def test_bare_directory_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ngd", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_compare_alternates_the_first_side_and_counts_wins(checkout, monkeypatch):
    import compare

    stale = run.reference_path("ngd", 7)
    stale.parent.mkdir(parents=True)
    stale.write_text("{}")
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout.name)
        value = 1.0 if checkout.name == "change" else 2.0
        return {"attempted": 1, "failed": 0,
                "metrics": {name: {"value": value} for name in names("end_to_end")}}

    monkeypatch.setattr(compare, "run_once", fake_run)
    report = compare.compare(Path("base"), Path("change"), ["ngd"], 7)
    assert not stale.exists()
    assert order[:4] == ["base", "change", "change", "base"] and len(order) == 20
    wall = report["workloads"]["ngd"]["metrics"]["wall_s"]
    assert wall["change_win_fraction"] == 1.0
    assert (wall["base"]["median"], wall["change"]["q3"]) == (2.0, 1.0)
