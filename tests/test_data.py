import numpy as np
import pytest

from alphaloss.cli import main as cli_main
from alphaloss.errors import DomainError, NumericError, ParseError, UsageError
from alphaloss.data import (
    GmmSpec,
    RawDataset,
    dataset_csv,
    normalize_features,
    preset,
    read_csv,
    sample_gmm,
)
from alphaloss.numerics import RngState, cholesky, min_eigen_sym


class TestPresets:
    def test_fig1_parameters(self):
        spec = preset("fig1")
        assert spec.prior_neg == 0.12
        assert np.array_equal(spec.mean_neg, [-0.18, 1.49])
        assert np.array_equal(spec.mean_pos, [-0.01, 0.16])
        # printed asymmetric off-diagonals are stored symmetrized
        assert spec.cov_neg[0, 1] == spec.cov_neg[1, 0] == -2.015
        assert np.array_equal(spec.cov_pos, [[4.19, 1.27], [1.27, 0.90]])

    def test_fig2_parameters(self):
        spec = preset("fig2")
        assert spec.prior_neg == 0.5
        assert np.array_equal(spec.cov_neg, [[3.0, 0.2], [0.2, 1.5]])
        assert np.array_equal(spec.cov_neg, spec.cov_pos)

    def test_fig3_parameters(self):
        spec = preset("fig3")
        assert spec.prior_neg == 0.61
        assert np.array_equal(spec.cov_neg, [[0.38, 0.25], [0.25, 3.17]])
        # positive definiteness: det = 2.07*1.97 - 1.62^2 = 1.4535 > 0
        cholesky(spec.cov_pos)

    def test_unknown_preset(self):
        with pytest.raises(UsageError):
            preset("fig9")

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            GmmSpec(0.0, [0.0], [1.0], [[1.0]], [[1.0]])
        with pytest.raises(DomainError):
            GmmSpec(0.5, [0.0, 0.0], [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])

    def test_json_round_trip(self):
        spec = preset("fig3")
        again = GmmSpec.from_json_dict(spec.to_json_dict())
        assert again.prior_neg == spec.prior_neg
        assert np.array_equal(again.mean_neg, spec.mean_neg)
        assert np.array_equal(again.mean_pos, spec.mean_pos)
        assert np.array_equal(again.cov_neg, spec.cov_neg)
        assert np.array_equal(again.cov_pos, spec.cov_pos)


class TestSampling:
    def test_deterministic_under_seed(self):
        spec = preset("fig2")
        a = sample_gmm(spec, 500, RngState(42))
        b = sample_gmm(spec, 500, RngState(42))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)

    def test_fig2_label_balance(self):
        raw = sample_gmm(preset("fig2"), 10_000, RngState(42))
        freq_neg = float(np.mean(raw.ys == -1))
        assert abs(freq_neg - 0.5) < 0.02

    def test_fig1_label_imbalance(self):
        raw = sample_gmm(preset("fig1"), 10_000, RngState(42))
        freq_neg = float(np.mean(raw.ys == -1))
        assert abs(freq_neg - 0.12) < 0.015

    def test_fig2_class_conditional_mean(self):
        raw = sample_gmm(preset("fig2"), 10_000, RngState(42))
        mean_pos = raw.xs[raw.ys == 1].mean(axis=0)
        assert abs(mean_pos[0] - 1.0) < 0.1
        assert abs(mean_pos[1] - 1.0) < 0.1

    def test_class_conditional_covariance(self):
        raw = sample_gmm(preset("fig2"), 20_000, RngState(7))
        pos = raw.xs[raw.ys == 1]
        emp = np.cov(pos.T)
        assert np.allclose(emp, [[3.0, 0.2], [0.2, 1.5]], atol=0.15)

    def test_rejects_bad_n(self):
        with pytest.raises(UsageError):
            sample_gmm(preset("fig2"), 0, RngState(1))


class TestNormalization:
    def test_identity_when_inside_ball(self):
        raw = RawDataset(np.array([[0.1, 0.2], [0.0, -0.5]]), np.array([1, -1]))
        data, scale = normalize_features(raw)
        assert scale == 1.0
        assert np.array_equal(data.xs, raw.xs)

    def test_rescale_by_max_norm(self):
        raw = RawDataset(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([1, -1]))
        data, scale = normalize_features(raw)
        assert scale == 4.0
        assert np.allclose(np.linalg.norm(data.xs, axis=1), [0.5, 1.0], atol=1e-15)

    def test_scale_from_norms_whose_squares_overflow(self):
        raw = RawDataset(np.array([[1e200, 1e200], [-1e200, 2e200]]), np.array([-1, 1]))
        data, scale = normalize_features(raw)
        assert scale == pytest.approx(5.0 ** 0.5 * 1e200, rel=1e-15)
        assert np.all(data.xs != 0.0)
        assert np.allclose(np.linalg.norm(data.xs, axis=1), [2.0 ** 0.5 / 5.0 ** 0.5, 1.0], atol=1e-15)

    def test_norm_past_float_range_is_numeric_error(self):
        raw = RawDataset(np.array([[1.5e308, 1.5e308]]), np.array([1]))
        with pytest.raises(NumericError, match="float range"):
            normalize_features(raw)

    def test_max_norm_hits_one(self):
        raw = sample_gmm(preset("fig1"), 2000, RngState(3))
        data, scale = normalize_features(raw)
        assert scale > 1.0
        assert abs(float(np.max(np.linalg.norm(data.xs, axis=1))) - 1.0) < 1e-12

    def test_idempotent(self):
        raw = sample_gmm(preset("fig3"), 500, RngState(9))
        data, _ = normalize_features(raw)
        again, scale = normalize_features(RawDataset(data.xs, data.ys))
        assert scale == 1.0
        assert np.array_equal(again.xs, data.xs)

    def test_second_moment_spectrum_in_unit_range(self):
        raw = sample_gmm(preset("fig2"), 2000, RngState(5))
        data, _ = normalize_features(raw)
        moment = data.second_moment()
        low = min_eigen_sym(moment)
        high = -min_eigen_sym(-moment)
        assert low >= 0.0
        assert high <= 1.0 + 1e-12


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        raw = sample_gmm(preset("fig2"), 300, RngState(13))
        data, _ = normalize_features(raw)
        path = tmp_path / "data.csv"
        path.write_text(dataset_csv(data), encoding="utf-8")
        again = read_csv(path)
        assert np.array_equal(again.xs, data.xs)
        assert np.array_equal(again.ys, data.ys)

    def test_write_bytes_deterministic(self, tmp_path):
        data, _ = normalize_features(sample_gmm(preset("fig2"), 100, RngState(4)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text(dataset_csv(data), encoding="utf-8")
        p2.write_text(dataset_csv(data), encoding="utf-8")
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_file_is_the_csv_text(self, tmp_path):
        # gen-data writes the dataset's CSV text, byte for byte
        data, _ = normalize_features(sample_gmm(preset("fig1"), 40, RngState(9)))
        assert cli_main(["gen-data", "--preset", "fig1", "--n", "40", "--seed", "9", "--out", str(tmp_path)]) == 0
        path = tmp_path / "dataset.csv"
        assert path.read_bytes() == dataset_csv(data).encode("utf-8")

    def test_header(self, tmp_path):
        data, _ = normalize_features(sample_gmm(preset("fig2"), 5, RngState(4)))
        path = tmp_path / "data.csv"
        path.write_text(dataset_csv(data), encoding="utf-8")
        assert path.read_text().splitlines()[0] == "y,x_1,x_2"

    def test_zero_label_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x_1,x_2\n0,0.1,0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path)

    def test_unit_ball_violation_is_validation_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("y,x_1,x_2\n1,1.5,0\n")
        with pytest.raises(DomainError, match="unit ball"):
            read_csv(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x_1,x_2\n1,0.1,0.1\n-1,0.2\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,0.1,0.1\n")
        with pytest.raises(ParseError, match="line 1"):
            read_csv(path)
