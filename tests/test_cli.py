import csv
import hashlib
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss import cli, risk, slqc
from alphaloss.cli import main
from alphaloss.errors import NumericError
from alphaloss.numerics import sigmoid


def run(*argv):
    return main(list(argv))


def wrong_type_cases():
    """(command, option, value) for every option of every command and each
    JSON type of value that the option's converter does not accept."""
    accepted = {cli._path: str, cli._switch: bool, cli._alpha_list: list}
    for command, (_, _, defaults) in cli._COMMANDS.items():
        for key in defaults:
            convert = cli._OPTIONS[key][0]
            for value in ("abc", True, [1], {"a": 1}):
                if not isinstance(value, accepted.get(convert, ())):
                    yield command, key, value


def count_value_calls(monkeypatch) -> list:
    """Record the orders of every ``risk.risk_values_multi`` call."""
    calls = []
    original = risk.risk_values_multi

    def counting(alphas, thetas, data):
        calls.append(list(alphas))
        return original(alphas, thetas, data)

    monkeypatch.setattr(risk, "risk_values_multi", counting)
    return calls


class TestGenData:
    def test_writes_files_and_reruns_identically(self, tmp_path):
        out = tmp_path / "run"
        args = ("gen-data", "--preset", "fig2", "--n", "200", "--seed", "42", "--out", str(out))
        assert run(*args) == 0
        csv_once = (out / "dataset.csv").read_bytes()
        json_once = (out / "dataset.json").read_bytes()
        assert run(*args) == 0
        assert (out / "dataset.csv").read_bytes() == csv_once
        assert (out / "dataset.json").read_bytes() == json_once

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert run("gen-data", "--n", "0", "--out", str(tmp_path)) == 2
        assert not (tmp_path / "dataset.csv").exists()

    # Counts numpy cannot allocate: past its largest dimension, and past any memory.
    @pytest.mark.parametrize("argv", [
        ("gen-data", "--n", "100000000000000000000"),
        ("gen-data", "--n", "10000000000000"),
        ("certify", "--n", "20", "--sweep", "100000000000000000000", "--i-budget", "5", "--accept-infinite-i"),
    ])
    def test_count_that_cannot_be_allocated_is_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot be allocated" in err and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_spec_whose_squared_norms_overflow_gets_a_finite_scale(self, tmp_path):
        spec = {"prior_neg": 0.5, "mean_neg": [1e200, 1e200], "mean_pos": [-1e200, 2e200],
                "cov_neg": [[1, 0], [0, 1]], "cov_pos": [[1, 0], [0, 1]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run("gen-data", "--spec-json", str(path), "--n", "5", "--out", str(tmp_path / "out")) == 0
        sidecar = json.loads((tmp_path / "out" / "dataset.json").read_text())
        assert isinstance(sidecar["scale"], float) and math.isfinite(sidecar["scale"])
        rows = (tmp_path / "out" / "dataset.csv").read_text().splitlines()[1:]
        assert rows and all(float(v) != 0.0 for row in rows for v in row.split(",")[1:])

    def test_fig1_sidecar_records_symmetrization(self, tmp_path):
        assert run("gen-data", "--preset", "fig1", "--n", "50", "--out", str(tmp_path)) == 0
        sidecar = json.loads((tmp_path / "dataset.json").read_text())
        assert "symmetrized" in sidecar["note"]
        assert sidecar["spec"]["cov_neg"][0][1] == -2.015

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_spec_json_that_is_not_an_object_is_parse_error(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        assert run("gen-data", "--spec-json", str(spec), "--out", str(out)) == 4
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("prior_neg", "x"), ("prior_neg", [0.5]),
                                            ("mean_neg", ["a"]), ("cov_pos", [[1, 0], [0]])])
    def test_spec_value_that_is_not_a_number_is_usage_error(self, tmp_path, key, value):
        spec = {"prior_neg": 0.5, "mean_neg": [0, 0], "mean_pos": [1, 1],
                "cov_neg": [[1, 0], [0, 1]], "cov_pos": [[1, 0], [0, 1]], key: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run("gen-data", "--spec-json", str(path), "--n", "10", "--out", str(out)) == 2
        assert not out.exists()

    def test_no_partial_files_on_bad_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior_neg": 2.0, "mean_neg": [0], "mean_pos": [1],
                                    "cov_neg": [[1]], "cov_pos": [[1]]}))
        out = tmp_path / "out"
        assert run("gen-data", "--spec-json", str(spec), "--out", str(out)) == 2
        assert not out.exists()


class TestLandscape:
    def test_one_csv_per_alpha(self, tmp_path):
        assert run(
            "landscape", "--preset", "fig2", "--n", "100", "--seed", "42",
            "--alphas", "1,1.001", "--grid-count", "5", "--out", str(tmp_path),
        ) == 0
        a = tmp_path / "landscape_alpha=1.0.csv"
        b = tmp_path / "landscape_alpha=1.001.csv"
        assert a.exists() and b.exists()
        text = a.read_text()
        assert "# alpha = 1.0" in text
        assert "theta_1,theta_2,risk" in text

    @pytest.mark.parametrize("source, provenance", [
        (["--preset", "fig1", "--n", "60"], ["preset = fig1", "n = 60", "seed = 42", "scale = ", "note = cov_neg"]),
        (["--data", "gen/dataset.csv"], ["data = gen/dataset.csv"]),
    ])
    @pytest.mark.parametrize("mask, r, rows", [([], "5.0", 5), (["--no-mask"], "none", 9)])
    def test_csv_layout_and_comment_order(self, tmp_path, monkeypatch, source, provenance, mask, r, rows):
        monkeypatch.chdir(tmp_path)
        assert run("gen-data", "--n", "40", "--out", "gen") == 0
        assert run("landscape", *source, *mask, "--alphas", "inf", "--grid-count", "3", "--out", "out") == 0
        lines = (tmp_path / "out" / "landscape_alpha=inf.csv").read_text().splitlines()
        comments = [line[2:] for line in lines if line.startswith("# ")]
        assert comments[:2] == ["alpha = inf", f"r = {r}"]
        assert re.fullmatch(r"dataset = [0-9a-f]{16}", comments[2])
        assert len(comments) == 3 + len(provenance)
        assert all(c.startswith(p) for c, p in zip(comments[3:], provenance))
        assert lines[len(comments)] == "theta_1,theta_2,risk"
        assert len(lines) == len(comments) + 1 + rows

    def test_inf_literal_accepted(self, tmp_path):
        assert run(
            "landscape", "--preset", "fig2", "--n", "50", "--alphas", "inf",
            "--grid-count", "3", "--out", str(tmp_path),
        ) == 0
        assert (tmp_path / "landscape_alpha=inf.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        args = (
            "landscape", "--preset", "fig1", "--n", "80", "--seed", "7",
            "--alphas", "2", "--grid-count", "4", "--out", str(tmp_path),
        )
        assert run(*args) == 0
        once = (tmp_path / "landscape_alpha=2.0.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "landscape_alpha=2.0.csv").read_bytes() == once

    def test_non_2d_dataset_is_usage_error(self, tmp_path):
        data = tmp_path / "one_d.csv"
        data.write_text("y,x_1\n1,0.5\n-1,-0.25\n")
        assert run("landscape", "--data", str(data), "--alphas", "1", "--out", str(tmp_path)) == 2

    def test_order_with_overflowing_reciprocal_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("landscape", "--alphas", "1e-310", "--n", "200", "--grid-count", "3",
                   "--out", str(out)) == 2
        assert "1/alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_risk_is_numeric_error_and_writes_nothing(self, tmp_path, capsys):
        # 1/alpha is finite at 1e-300, but p^(1 - 1/alpha) overflows to inf.
        out = tmp_path / "out"
        assert run("landscape", "--alphas", "1,1e-300", "--n", "50", "--grid-count", "3",
                   "--out", str(out)) == 3
        assert "1e-300" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_order_is_written_and_printed_once(self, tmp_path, capsys):
        assert run("landscape", "--n", "50", "--alphas", "2,1,2", "--grid-count", "3",
                   "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / "landscape_alpha=2.0.csv"), str(tmp_path / "landscape_alpha=1.0.csv"),
        ]

    def test_all_orders_share_one_evaluation_call(self, tmp_path, monkeypatch):
        calls = count_value_calls(monkeypatch)
        assert run("landscape", "--preset", "fig2", "--n", "60", "--alphas", "0.5,1,2,inf,2",
                   "--grid-count", "5", "--out", str(tmp_path)) == 0
        assert len(calls) == 1
        assert calls[0] == [0.5, 1.0, 2.0, float("inf")]

    @pytest.mark.parametrize("grid", [
        ["--grid-count", "2", "--grid-min", "4", "--grid-max", "5"],
        ["--grid-count", "3", "--grid-min=-inf"],
        ["--grid-count", "3", "--grid-min=-1.7e308", "--grid-max=1.7e308"],
    ])
    def test_grid_with_no_node_to_evaluate_is_usage_error(self, tmp_path, grid):
        out = tmp_path / "out"
        assert run("landscape", "--n", "50", *grid, "--out", str(out)) == 2
        assert not out.exists()

    def test_unused_option_is_still_checked(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("y,x_1,x_2\n1,0.6,0.8\n-1,-0.6,-0.8\n")
        out = tmp_path / "out"
        assert run("landscape", "--data", str(data), "--n", "0", "--grid-count", "3", "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_data_file_is_io_error(self, tmp_path):
        assert run("landscape", "--data", str(tmp_path / "nope.csv"), "--alphas", "1",
                   "--out", str(tmp_path)) == 4


# sha256 of every landscape CSV of four small `landscape` runs, as written
# while risk.LandscapeTable still built the files: a sampled fig1 run (its
# comments carry the preset's note), a --data run on a gen-data output, an
# unmasked rectangle, and a list with a repeated order.
LANDSCAPE_DIGESTS = [
    (["--preset", "fig1", "--n", "120", "--seed", "7", "--alphas", "2", "--grid-count", "5"], {
        "landscape_alpha=2.0.csv": "37ef5099cf6ebabcd64e0717e3ae83d02906850f56e49bf5cf832bd229d25129",
    }),
    (["--data", "gen/dataset.csv", "--alphas", "1", "--grid-count", "5"], {
        "landscape_alpha=1.0.csv": "72276bdeada1d601ec4322852cfbbd446ac6a043b34b24a7341130bd66316adf",
    }),
    (["--preset", "fig2", "--n", "100", "--no-mask", "--grid-min", "-2", "--grid-max", "3", "--grid-count", "4"], {
        "landscape_alpha=1.0.csv": "b0625085a37cfcaa4cad5663c668abe78aa1c81b0402a5f7447574a73681ee88",
    }),
    (["--preset", "fig2", "--n", "100", "--alphas", "2,1,inf,2", "--grid-count", "5"], {
        "landscape_alpha=2.0.csv": "04d3fbb0dcbc9c28b440b88a3dde338197ff1284758bde9a237ddf98ddeeda2e",
        "landscape_alpha=1.0.csv": "007ac880f27cd817a81025dba8da822fffa93f1308c0d06f95813a9d8f526a3b",
        "landscape_alpha=inf.csv": "b33de2ba743890993caf0a07c5b07d283a28be7f65cecb8f89b61ac60ecfad97",
    }),
]


@pytest.mark.parametrize("argv,digests", LANDSCAPE_DIGESTS)
def test_landscape_bytes_are_pinned(tmp_path, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)  # the comments name a --data file as given
    assert run("gen-data", "--preset", "fig3", "--n", "90", "--seed", "11", "--out", "gen") == 0
    assert run("landscape", *argv, "--out", "out") == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert written == digests


# sha256 of certificate.json and evolution.csv of four small `certify` runs,
# as written while the SLQC verdicts were classified one point at a time:
# SLQC holds; falsified, with ten Neither diagnostics; a base order whose
# gradients reach about 1e175, with Neither diagnostics inside and outside
# the epsilon/kappa ball; and a base order above 1 with a given kappa0.
CERTIFY_DIGESTS = [
    (["--preset", "fig2", "--n", "200", "--seed", "42", "--epsilon0", "0.05", "--sweep", "100",
      "--i-budget", "100", "--ngd-epsilon", "0.2"], {
        "certificate.json": "22fad32e8871444740d579fe8032796e9a71d90a73c210fec12b2e84d6ead39b",
        "evolution.csv": "037a528bd5ced0a7ebbe08fa2e5103b67b30e44fd1ed666aaea5280e5edf414a",
    }),
    (["--n", "50", "--epsilon0", "0.05", "--kappa0", "0.001", "--sweep", "20", "--i-budget", "5",
      "--accept-infinite-i"], {
        "certificate.json": "707897dce646f2111c6819b1e249e9c0ef9dbd6c353e3fd22804d7c98db2601e",
        "evolution.csv": "ea803db26398c7ed3fa5f3b2d1672619d37b49f3d85ff74011b4f340b1858165",
    }),
    (["--n", "50", "--r", "0.5", "--alpha0", "0.0016", "--kappa0", "1", "--epsilon0", "0.05", "--sweep", "300",
      "--i-budget", "300", "--ngd-cap", "5"], {
        "certificate.json": "2d41dc835a426a72bb926d545b1b51c5d579bcdfa2d0e5e9875045bf7e46b570",
        "evolution.csv": "ca1f43c38d4fb1850df3c99f0792450ea7c8927bad3563355c34ed5c0a35e74a",
    }),
    (["--n", "100", "--alpha0", "2", "--kappa0", "1", "--epsilon0", "0.05", "--sweep", "30", "--i-budget", "30"], {
        "certificate.json": "15f15ab22450eed94c7ab8607daf683a8dbedcd60802d5ca41c7cbf2ce5afbff",
        "evolution.csv": "190e45ea8509683b863edf8363180f8d6915d1c3b0784eed2e3ccce487723da6",
    }),
]


@pytest.mark.parametrize("argv,digests", CERTIFY_DIGESTS)
def test_certify_bytes_are_pinned(tmp_path, argv, digests):
    assert run("certify", *argv, "--out", str(tmp_path)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests


# sha256 of a `certify` run whose batched passes take several blocks with a
# short last one (the 97 budget points in blocks of 50 and 47, the 103 sweep
# points in four blocks of 25 and one of 3), as written while every block
# made its own temporaries.
def test_multi_block_certify_bytes_are_pinned(tmp_path):
    assert run("certify", "--preset", "fig2", "--n", "2000", "--seed", "42", "--epsilon0", "0.05",
               "--ngd-epsilon", "0.4", "--sweep", "103", "--i-budget", "97", "--out", str(tmp_path)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == {
        "certificate.json": "5a4715a2b651b2a39cc3c809667de03dc4e104826bc8f5b53e25df1009bc567d",
        "evolution.csv": "520771b898a0de34156f3c386e0b8663b412117d7c810e3e4f26c05bd6774ab7",
    }


# sha256 of saturation.csv of four small `saturation` runs, as written while
# every grid node's risks were summed exactly: fig3 at n = 2000 on the
# default masked grid, an unmasked fig1 rectangle, a repeated infinite order
# on a finer grid, and a small radius.
SATURATION_DIGESTS = [
    (["--preset", "fig3", "--n", "2000", "--seed", "42"],
     "70715a082dd62eb09d32b18d6fb9b36d270fd96fcdc57667120678861ade96a4"),
    (["--preset", "fig1", "--n", "500", "--seed", "42", "--no-mask"],
     "6776ee32c476c4286a5932d80af00414fa3c81bb15f95b6ed562902e79842927"),
    (["--n", "500", "--seed", "42", "--alphas", "1,1.5,2,inf,inf", "--grid-count", "61"],
     "d65d32e74d15d3a1fb57e54adb3a56648a434e6ecaf34b20d81d496920e45600"),
    (["--n", "500", "--seed", "42", "--r", "0.5"],
     "b20ac7260387cbae5a8295875d12e6a06914b2256cae633216ecc54fa132c1e7"),
]


@pytest.mark.parametrize("argv,digest", SATURATION_DIGESTS)
def test_saturation_bytes_are_pinned(tmp_path, argv, digest):
    assert run("saturation", *argv, "--out", str(tmp_path)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == {"saturation.csv": digest}


class TestCertify:
    def _run(self, tmp_path, *extra):
        return run(
            "certify", "--preset", "fig2", "--n", "300", "--seed", "42",
            "--epsilon0", "0.4", "--sweep", "50", "--i-budget", "200",
            "--ngd-epsilon", "0.2", "--out", str(tmp_path), *extra,
        )

    def test_report_contents(self, tmp_path):
        # on fig2 with r=5 the ball risk range sits below 0.4, so the
        # epsilon0 = 0.4 qualifying set is empty: the sentinel note appears
        # unless the unbounded window is explicitly accepted
        assert self._run(tmp_path, "--accept-infinite-i") == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert report["inputs"]["epsilon0"] == 0.4
        assert report["second_moment_min_eigen"] > 0.0
        assert report["strong_convexity"]["curvature_floor"] > 0.0
        assert report["slqc_sweep"]["counts"]["neither"] == 0
        assert "upper estimate" in report["grad_infimum_note"]
        assert report["grad_infimum_upper"] == "inf"
        rows = report["evolution"]
        assert rows[0]["alpha"] == "1.0"
        assert rows[0]["epsilon"] == 0.4
        assert rows[0]["rho"] == pytest.approx(0.4 / sigmoid(5.0), rel=1e-15)
        assert (tmp_path / "evolution.csv").read_text().startswith("alpha,epsilon,rho,in_window")

    def test_empty_qualifying_set_notes_the_sentinel(self, tmp_path):
        assert self._run(tmp_path) == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert report["grad_infimum_upper"] == "inf"
        assert "sentinel" in report["evolution_note"]
        assert report["evolution"] == []

    def test_smaller_epsilon0_yields_finite_window(self, tmp_path):
        assert run(
            "certify", "--preset", "fig2", "--n", "300", "--seed", "42",
            "--epsilon0", "0.2", "--sweep", "50", "--i-budget", "300",
            "--ngd-epsilon", "0.2", "--out", str(tmp_path),
        ) == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert isinstance(report["grad_infimum_upper"], float)
        assert report["evolution_window"] > 0.0
        rows = report["evolution"]
        assert rows[0]["epsilon"] == 0.2
        assert rows[-1]["in_window"] is False  # the out-of-window probe row

    def _finite_window(self, out, *extra):
        """A certify run whose gradient-infimum estimate is finite; its report."""
        assert run("certify", "--preset", "fig2", "--n", "300", "--seed", "42", "--epsilon0", "0.2", "--sweep", "50",
                   "--i-budget", "300", "--ngd-epsilon", "0.2", "--out", str(out), *extra) == 0
        return json.loads((out / "certificate.json").read_text())

    def test_safety_shrinks_the_estimate_that_the_window_uses(self, tmp_path):
        report = self._finite_window(tmp_path, "--safety", "0.5")
        inputs, upper = report["inputs"], report["grad_infimum_upper"]
        assert inputs["safety"] == 0.5 and isinstance(upper, float)
        assert report["grad_infimum_used"] == upper * 0.5
        assert report["evolution_window"] == slqc.evolution_window(
            1.0, inputs["epsilon0"], inputs["kappa0"], inputs["r"], upper * 0.5)

    def test_safety_above_one_is_usage_error_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert self._run(out, "--safety", "1.5") == 2
        assert not out.exists()

    def test_evolution_points_set_the_in_window_rows(self, tmp_path):
        rows = self._finite_window(tmp_path, "--evolution-points", "3")["evolution"]
        assert [row["in_window"] for row in rows] == [True, True, True, False]

    def test_rerun_byte_identical(self, tmp_path):
        assert self._run(tmp_path) == 0
        once = (tmp_path / "certificate.json").read_bytes()
        assert self._run(tmp_path) == 0
        assert (tmp_path / "certificate.json").read_bytes() == once

    @pytest.mark.parametrize("extra", [["--epsilon0", "1e-200"], ["--r", "1e300"]])
    def test_arithmetic_failure_is_numeric_error_and_writes_nothing(self, tmp_path, extra):
        # epsilon0^2 underflows to 0 in the NGD budget, or r^2 overflows to inf.
        out = tmp_path / "out"
        assert run("certify", "--n", "50", "--sweep", "5", "--i-budget", "5", *extra,
                   "--out", str(out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("alphas", ["1,1e307", "1,1e308"])
    def test_non_finite_evolution_row_is_numeric_error_and_writes_nothing(self, tmp_path, alphas):
        # An unbounded window admits orders at which epsilon overflows to inf
        # (and rho to nan); both files used to carry them.
        out = tmp_path / "out"
        assert run("certify", "--preset", "fig2", "--n", "200", "--epsilon0", "0.4", "--accept-infinite-i",
                   "--alphas", alphas, "--sweep", "5", "--i-budget", "5", "--out", str(out)) == 3
        assert not out.exists()

    def test_failure_in_a_later_file_writes_no_earlier_one(self, tmp_path, monkeypatch):
        def failing(rows):
            raise NumericError("evolution CSV failed")

        monkeypatch.setattr(slqc, "evolution_to_csv", failing)
        assert self._run(tmp_path) == 3
        assert not (tmp_path / "certificate.json").exists()

    def test_gradient_norms_past_1e154_keep_the_sweep_honest(self, tmp_path):
        # At alpha0 = 0.0016 the gradients reach 1e197: their squares overflow,
        # their norms do not. An inf norm made every point a violation and
        # the gradient infimum the empty-set sentinel.
        assert run("certify", "--n", "50", "--r", "0.5", "--alpha0", "0.0016", "--kappa0", "1",
                   "--epsilon0", "0.05", "--sweep", "20", "--i-budget", "20", "--ngd-cap", "5",
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert report["grad_infimum_upper"] == pytest.approx(2.06e197, rel=1e-3)
        assert report["slqc_sweep"]["counts"] == {"gradient_cone": 20, "neither": 0, "value_gap": 0}

    def test_alpha0_above_one_needs_kappa0(self, tmp_path):
        assert self._run(tmp_path, "--alpha0", "2") == 2

    def test_alpha0_above_one_skips_strong_convexity(self, tmp_path):
        assert self._run(tmp_path, "--alpha0", "1.5", "--kappa0", "1.0") == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert "skipped" in report["strong_convexity"]

    def test_alpha0_below_one_skips_evolution(self, tmp_path):
        assert self._run(tmp_path, "--alpha0", "0.5") == 0
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert report["strong_convexity"]["curvature_floor"] > 0.0
        assert "base order" in report["evolution_note"]
        assert report["evolution"] == []


class TestNgd:
    def _run(self, tmp_path, *extra):
        return run(
            "ngd", "--preset", "fig2", "--n", "200", "--seed", "42",
            "--epsilon", "0.2", "--ref-steps", "3000", "--iters", "800",
            "--out", str(tmp_path), *extra,
        )

    def test_summary(self, tmp_path):
        assert self._run(tmp_path) == 0
        summary = json.loads((tmp_path / "ngd_summary.json").read_text())
        kappa = sigmoid(5.0)
        assert summary["eta"] == pytest.approx(0.2 / kappa, rel=1e-15)
        assert summary["achieved_gap"] <= 0.2
        assert not (tmp_path / "ngd_trace.csv").exists()

    def test_kappa_sets_the_default_step(self, tmp_path):
        assert self._run(tmp_path, "--kappa", "2") == 0
        summary = json.loads((tmp_path / "ngd_summary.json").read_text())
        assert summary["inputs"]["kappa"] == 2.0 and summary["eta"] == 0.2 / 2.0

    def test_zero_eta_is_usage_error(self, tmp_path):
        assert self._run(tmp_path, "--eta", "0") == 2

    def test_trace_flag_emits_csv(self, tmp_path):
        assert self._run(tmp_path, "--trace", "--iters", "20") == 0
        trace = (tmp_path / "ngd_trace.csv").read_text()
        assert trace.startswith("t,theta_1,theta_2,value,grad_norm")
        assert len(trace.strip().splitlines()) == 21

    def test_gradient_norms_past_1e154_stay_finite(self, tmp_path):
        # The squares of these gradients overflow; an inf norm turned every
        # step into grad / inf = 0, so the run never left theta1.
        assert run("ngd", "--n", "50", "--r", "0.5", "--alpha", "0.002", "--iters", "3", "--ref-steps", "3",
                   "--trace", "--out", str(tmp_path)) == 0
        with open(tmp_path / "ngd_trace.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        norms = [float(row["grad_norm"]) for row in rows]
        values = [float(row["value"]) for row in rows]
        assert norms[0] == pytest.approx(8.57e175, rel=1e-3)
        assert all(math.isfinite(v) for v in norms)
        assert values[0] > values[1] > values[2]

    def test_budget_division_by_zero_is_numeric_error_and_writes_nothing(self, tmp_path):
        # epsilon^2 underflows to 0 in the iteration budget.
        out = tmp_path / "out"
        assert run("ngd", "--n", "50", "--epsilon", "1e-320", "--ref-steps", "5", "--out", str(out)) == 3
        assert not out.exists()

    def test_overflowing_reference_step_lands_on_the_sphere(self, tmp_path):
        # A step of 1e308 takes the first iterate past a norm of 1e154; its
        # projection onto the radius-1 ball lowers the risk below ln 2, the
        # risk at the origin where the reference starts.
        assert run("ngd", "--n", "50", "--r", "1", "--ref-steps", "5", "--iters", "5",
                   "--ref-step", "1e308", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "ngd_summary.json").read_text())
        assert summary["reference_value"] < math.log(2.0)
        assert math.hypot(*summary["reference_theta"]) == pytest.approx(1.0, rel=1e-14)

    def test_start_point_sampled_past_1e154_stays_in_the_ball(self, tmp_path):
        # theta1's squared norm overflows; the run must neither sample
        # outside the ball nor reject its own start point.
        assert run("ngd", "--n", "20", "--iters", "3", "--ref-steps", "3", "--r=1e308", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "ngd_summary.json").read_text())
        assert math.hypot(*summary["theta1"]) <= 1e308
        assert all(math.isfinite(v) for v in (summary["best_value"], summary["achieved_gap"], *summary["best_theta"]))

    def test_undefined_sample_sum_is_numeric_error(self, tmp_path, capsys):
        # At alpha = 0.002 the gradient rows hold both +inf and -inf.
        code = run("ngd", "--preset", "fig2", "--n", "300", "--alpha", "0.002",
                   "--ref-steps", "50", "--iters", "5", "--out", str(tmp_path))
        assert code == 3
        assert "-inf + inf" in capsys.readouterr().err


class TestNumericErrorOutput:
    @pytest.mark.parametrize("argv", [
        ("ngd", "--n", "50", "--alpha", "0.002", "--iters", "5", "--ref-steps", "5"),
        ("landscape", "--n", "50", "--grid-count", "3", "--alphas", "1,0.002"),
        ("certify", "--n", "20", "--sweep", "3", "--i-budget", "3", "--ngd-cap", "3", "--r=1e308"),
        ("certify", "--n", "20", "--sweep", "3", "--i-budget", "3", "--ngd-cap", "3", "--alpha0", "0.002"),
        ("certify", "--n", "20", "--sweep", "3", "--i-budget", "3", "--ngd-cap", "3", "--alpha0", "1e-300",
         "--kappa0", "1"),
        ("tilted", "--joint", "JOINT", "--alpha", "0.0005"),
    ])
    def test_numeric_error_raises_no_warning(self, tmp_path, capsys, argv):
        # Only the explicit finiteness checks report a non-finite value, and
        # each names what is not finite.
        joint = tmp_path / "joint.csv"
        joint.write_text("0.4,0.1\n0.1,0.4\n")
        argv = [str(joint) if arg == "JOINT" else arg for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error:")
        assert "math range error" not in err[0]


class TestSaturation:
    def test_rows_pass_bound_and_inf_is_zero(self, tmp_path):
        assert run(
            "saturation", "--preset", "fig3", "--n", "400", "--seed", "42",
            "--alphas", "1,2,4,10,inf", "--grid-count", "9", "--out", str(tmp_path),
        ) == 0
        lines = (tmp_path / "saturation.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,sup_distance,bound,within_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert all(row[3] == "true" for row in rows)
        assert rows[-1][0] == "inf" and float(rows[-1][1]) == 0.0
        sups = [float(row[1]) for row in rows]
        assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))

    def test_alpha_below_one_is_usage_error(self, tmp_path):
        assert run("saturation", "--alphas", "0.5,2", "--n", "50", "--out", str(tmp_path)) == 2

    def test_five_orders_make_one_evaluation_call(self, tmp_path, monkeypatch):
        calls = count_value_calls(monkeypatch)
        assert run("saturation", "--preset", "fig3", "--n", "60", "--alphas", "1,2,4,10,inf",
                   "--grid-count", "5", "--out", str(tmp_path)) == 0
        assert len(calls) == 1
        assert calls[0] == [1.0, 2.0, 4.0, 10.0, float("inf")]

    def test_grid_with_no_node_to_evaluate_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        assert run("saturation", "--n", "50", "--grid-count", "2", "--grid-min", "4", "--grid-max", "5",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_overflowing_lipschitz_bound_names_radius(self, tmp_path, capsys):
        assert run("saturation", "--n", "50", "--r", "1e300", "--grid-count", "3", "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "(r + log 2)^2 / 2" in err and "radius 1e+300" in err

    def test_non_finite_risk_is_numeric_error_and_writes_nothing(self, tmp_path):
        # Margins below about -1.8e308 overflow, so the order-1 risk is inf.
        data = tmp_path / "one.csv"
        data.write_text("y,x_1,x_2\n1,0.6,0.8\n-1,-0.6,-0.8\n")
        out = tmp_path / "out"
        assert run("saturation", "--data", str(data), "--grid-count", "2", "--grid-min=-1.7e308",
                   "--grid-max=-1.6e308", "--no-mask", "--out", str(out)) == 3
        assert not out.exists()


class TestTilted:
    def test_report(self, tmp_path):
        joint = tmp_path / "joint.csv"
        joint.write_text("0.4,0.1\n0.1,0.4\n")
        assert run("tilted", "--joint", str(joint), "--alpha", "2", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "tilted.json").read_text())
        assert report["tilted_posterior"][0] == pytest.approx([16 / 17, 1 / 17])
        assert report["min_risk"] == pytest.approx(report["tilted_risk"], abs=1e-9)

    def test_scores_supplied_posterior(self, tmp_path):
        joint = tmp_path / "joint.csv"
        joint.write_text("0.5,0.5\n")
        posterior = tmp_path / "post.csv"
        posterior.write_text("0.8,0.2\n")
        assert run("tilted", "--joint", str(joint), "--alpha", "1",
                   "--posterior", str(posterior), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "tilted.json").read_text())
        assert report["posterior_risk"] == pytest.approx(0.9162907318741551, rel=1e-12)

    def test_malformed_joint_is_io_error(self, tmp_path):
        joint = tmp_path / "joint.csv"
        joint.write_text("0.4,oops\n")
        assert run("tilted", "--joint", str(joint), "--alpha", "1", "--out", str(tmp_path)) == 4

    def test_overflowing_minimal_risk_is_numeric_error(self, tmp_path):
        joint = tmp_path / "joint.csv"
        joint.write_text("0.5,0.5\n")
        out = tmp_path / "out"
        assert run("tilted", "--joint", str(joint), "--alpha", "1e-300", "--out", str(out)) == 3
        assert not out.exists()
        assert run("tilted", "--joint", str(joint), "--alpha", "1e-3", "--out", str(out)) == 0

    def test_missing_joint_flag_is_usage_error(self, tmp_path):
        assert run("tilted", "--alpha", "1", "--out", str(tmp_path)) == 2

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_zero_mass_row_warns_in_one_line(self, tmp_path, monkeypatch, capsys):
        # A successful run prints the warning its command raised as one
        # "warning:" line, not Python's two-line warning with a source line.
        monkeypatch.chdir(tmp_path)
        Path("joint.csv").write_text("0,0\n0.5,0.5\n")
        assert run("tilted", "--joint", "joint.csv", "--alpha", "2", "--out", "out") == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: joint rows [0] have zero marginal mass")
        digest = hashlib.sha256(Path("out/tilted.json").read_bytes()).hexdigest()
        assert digest == "067a80374795838fa2bc22420ad9f34e8e9b9977b1d5f1b0e65ff71ebd7f3581"


class TestConfigAndHelp:
    def test_config_file_supplies_flags_and_explicit_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig2", "n": 60, "seed": 5}))
        out1 = tmp_path / "o1"
        assert run("gen-data", "--config", str(cfg), "--out", str(out1)) == 0
        assert json.loads((out1 / "dataset.json").read_text())["n"] == 60
        out2 = tmp_path / "o2"
        assert run("gen-data", "--config", str(cfg), "--n", "30", "--out", str(out2)) == 0
        assert json.loads((out2 / "dataset.json").read_text())["n"] == 30

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("argv", [
        ["landscape", "--grid-count", "3", "--data"],
        ["gen-data", "--config"],
        ["gen-data", "--spec-json"],
        ["tilted", "--alpha", "1", "--joint"],
        ["tilted", "--alpha", "1", "--joint", "{joint}", "--posterior"],
    ])
    def test_input_file_that_is_not_utf8_is_parse_error(self, tmp_path, capsys, argv):
        bad, joint, out = tmp_path / "bad.txt", tmp_path / "joint.csv", tmp_path / "out"
        bad.write_bytes(b"y,x1\n1,\xff\n")
        joint.write_text("0.4,0.1\n0.1,0.4\n")
        argv = [a.format(joint=joint) for a in argv]
        assert run(*argv, str(bad), "--out", str(out)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"parse error: {bad}: not UTF-8 text")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", [5], None])
    def test_config_value_that_is_not_a_number_is_usage_error(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        out = tmp_path / "out"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, config, argv", [
        ("gen-data", {"out": 5}, ["--n", "10"]),
        ("gen-data", {"spec_json": 0}, ["--n", "10"]),
        ("landscape", {"data": 999}, ["--grid-count", "3"]),
        ("tilted", {"joint": 999}, []),
        ("gen-data", {"n": 2.7}, []),
        ("gen-data", {"n": True}, []),
        ("gen-data", {"seed": 1.5}, ["--n", "10"]),
        ("landscape", {"grid_count": 3.5}, ["--n", "50"]),
        ("landscape", {"r": True}, ["--n", "50", "--grid-count", "3"]),
        ("ngd", {"ref_step": True}, ["--n", "50", "--ref-steps", "5", "--iters", "5"]),
    ])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, command, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        if "out" not in config:
            argv = [*argv, "--out", str(out)]
        assert run(command, "--config", str(cfg), *argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", list(wrong_type_cases()))
    def test_every_option_rejects_a_config_value_of_the_wrong_type(self, tmp_path, monkeypatch,
                                                                   command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        monkeypatch.setenv("ALPHALOSS_OUT", str(out))
        assert run(command, "--config", str(cfg)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["landscape", "saturation"])
    def test_config_empty_alpha_list_is_usage_error(self, tmp_path, command, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": []}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--n", "50", "--grid-count", "3", "--out", str(out)) == 2
        assert "alpha list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_config_null_leaves_an_option_without_default_unset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec_json": None, "data": None, "grid_min": None, "out": None}))
        out = tmp_path / "out"
        assert run("landscape", "--config", str(cfg), "--n", "50", "--grid-count", "3",
                   "--out", str(out)) == 0
        assert (out / "landscape_alpha=1.0.csv").exists()

    def test_config_integer_given_as_integral_float_keeps_its_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30.0, "seed": 7.0}))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
        assert run("gen-data", "--n", "30", "--seed", "7", "--out", str(tmp_path / "b")) == 0
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command, key, argv", [
        ("certify", "accept_infinite_i", ["--n", "50", "--sweep", "5", "--i-budget", "5"]),
        ("ngd", "trace", ["--n", "50", "--ref-steps", "5", "--iters", "5"]),
        ("landscape", "no_mask", ["--n", "50", "--grid-count", "3"]),
        ("saturation", "no_mask", ["--n", "50", "--grid-count", "3"]),
    ])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_config_switch_must_be_json_boolean(self, tmp_path, command, key, argv, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), *argv, "--out", str(out)) == 2
        assert not out.exists()

    def test_config_switch_true_turns_it_on(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trace": True}))
        assert run("ngd", "--config", str(cfg), "--n", "50", "--ref-steps", "5", "--iters", "5",
                   "--out", str(tmp_path)) == 0
        assert (tmp_path / "ngd_trace.csv").exists()

    @pytest.mark.parametrize(
        "command", ["gen-data", "landscape", "certify", "ngd", "saturation", "tilted"]
    )
    def test_help_lists_defaults(self, command, capsys):
        assert run(command, "--help") == 0
        text = capsys.readouterr().out
        assert "default" in text

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALPHALOSS_OUT", str(tmp_path / "env_out"))
        assert run("gen-data", "--n", "20") == 0
        assert (tmp_path / "env_out" / "dataset.csv").exists()


class TestJsonText:
    def test_nan_is_numeric_error(self):
        with pytest.raises(NumericError, match="NaN"):
            cli._json_text({"x": float("nan")})

    def test_infinities_are_strings(self):
        assert json.loads(cli._json_text({"x": math.inf, "y": [-math.inf]})) == {"x": "inf", "y": ["-inf"]}


# Base flags that keep every command tiny, and the extreme texts the fuzz
# gives one numeric option at a time.
FUZZ_BASE = {"n": "20", "grid_count": "3", "sweep": "3", "i_budget": "3", "ngd_cap": "3", "iters": "3",
             "ref_steps": "3"}
FUZZ_VALUES = ("1e-308", "5e-324", "1e308", "-1e308", "0", "-0.0", "inf")
NUMERIC_CONVERTERS = (cli._int, cli._float, cli._positive_int, cli._positive_float, cli._alpha, cli._alpha_list)
FUZZ_CASES = [(command, key) for command, (_, _, defaults) in cli._COMMANDS.items() for key in defaults
              if cli._OPTIONS[key][0] in NUMERIC_CONVERTERS]


class TestExtremeOptionFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FUZZ_CASES), st.sampled_from(FUZZ_VALUES))
    def test_documented_exit_and_no_nan_in_outputs(self, case, value):
        command, key = case
        defaults = cli._COMMANDS[command][2]
        options = {k: v for k, v in FUZZ_BASE.items() if k in defaults}
        with tempfile.TemporaryDirectory() as root:
            if command == "tilted":
                options["joint"] = str(Path(root) / "joint.csv")
                Path(options["joint"]).write_text("0.4,0.1\n0.1,0.4\n")
            options[key] = value
            out = Path(root) / "out"
            # --flag=value, so argparse reads "-1e308" as a value, not a flag
            code = run(command, *(f"{cli._flag(k)}={v}" for k, v in options.items()), "--out", str(out))
            assert code in (0, 2, 3, 4)
            written = list(out.iterdir()) if out.exists() else []
            assert not [p.name for p in written if re.search(r"\bnan\b", p.read_text(), re.IGNORECASE)]
