import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss import risk
from alphaloss.data import GmmSpec, normalize_features, preset, sample_gmm
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.loss import (
    INFINITY,
    LOG_BRANCH_TOL,
    UNIT_BALL_TOL,
    curvature_floor,
    grad_lipschitz_in_inv_alpha,
    grad_weight_from_logp,
    hess_factor_from_logp,
    lipschitz_in_inv_alpha,
    loss_from_logp,
    loss_map,
    neg_grad_weight_map,
)
from alphaloss.numerics import RngState, log_sigmoid_vec, min_eigen_sym, sigmoid
from alphaloss.risk import (
    Dataset,
    GridSpec,
    empirical_risk,
    empirical_risk_grad,
    empirical_risk_hess,
    exact_row_sums,
    landscape_scans,
    risk_grads,
    risk_values,
    risk_values_grads,
    saturation_sup,
    saturation_sups,
    value_and_grad,
)

from conftest import fd_grad, fd_jacobian, oracle_loss, rel_err


def risk_at_origin(alpha: float) -> float:
    """Closed form: the classifier at theta = 0 assigns 1/2 everywhere."""
    if math.isinf(alpha):
        return 0.5
    if alpha == 1.0:
        return math.log(2.0)
    return alpha / (alpha - 1.0) * (1.0 - 2.0 ** (1.0 / alpha - 1.0))


def tiny_dataset():
    xs = np.array([[0.7, 0.1], [-0.3, 0.5], [0.2, -0.9], [0.1, 0.1], [-0.6, -0.6]])
    ys = np.array([1, -1, 1, -1, 1])
    return Dataset(xs, ys)


def terms_rows(logp, data, alphas, grad_alpha=None):
    """The terms the exact pass sums for one row of log p, built from the
    maps: a loss row per order in ``alphas``, then -w times each
    label-signed feature column at ``grad_alpha``: (rows, n)."""
    rows = [loss_map(alpha)(logp, np.empty_like(logp)) for alpha in alphas]
    if grad_alpha is not None:
        neg_w = neg_grad_weight_map(grad_alpha)(logp, np.empty_like(logp), np.empty_like(logp))
        rows.extend(neg_w * data.signed.T)
    return np.array(rows).reshape(-1, data.n)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            Dataset(np.empty((0, 2)), np.empty(0))

    def test_rejects_bad_labels(self):
        with pytest.raises(DomainError):
            Dataset(np.array([[0.1, 0.1]]), np.array([2]))

    def test_rejects_norm_violations(self):
        with pytest.raises(DomainError):
            Dataset(np.array([[1.0, 1.0]]), np.array([1]))

    def test_norm_whose_squares_overflow_is_named(self):
        # the squares pass the float range; the message names the finite norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"feature norm 1\.41421356237309\d*e\+200 exceeds"):
                Dataset(np.array([[1e200, 1e200]]), np.array([1]))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi), st.floats(1.0 - 1e-8, 1.0 + 1e-8))
    def test_norm_check_decides_as_the_axis_norm(self, angle, radius):
        # near the sphere the check decides as np.linalg.norm(axis=1), whose
        # bits row_norms keeps wherever the norm is finite
        x = [radius * math.cos(angle), radius * math.sin(angle)]
        accept = float(np.linalg.norm(np.array([x]), axis=1)[0]) <= 1.0 + UNIT_BALL_TOL
        try:
            Dataset(np.array([x]), np.array([1]))
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == accept

    def test_second_moment_matches_direct_mean(self, fig2_small):
        direct = fig2_small.xs.T @ fig2_small.xs / fig2_small.n
        assert np.allclose(fig2_small.second_moment(), direct, atol=1e-12)

    def test_content_digest_stable(self, fig2_small):
        assert fig2_small.content_digest() == fig2_small.content_digest()

    def test_signed_features_are_not_a_field(self):
        data = tiny_dataset()
        assert [f.name for f in dataclasses.fields(data)] == ["xs", "ys"]
        assert "signed" not in repr(data)
        assert np.array_equal(data.signed, data.xs * data.ys[:, None])


def fsum_rows(block: np.ndarray) -> np.ndarray:
    """The oracle: one math.fsum per row."""
    return np.array([math.fsum(row.tolist()) for row in block])


def _block_entries(draw, rng, shape, lo, hi):
    """Entries with exponents in [lo, hi], then optionally signed zeros,
    exact cancellation pairs and non-finite entries."""
    rows, cols = shape
    mant = rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    block = np.ldexp(mant, rng.integers(lo, hi + 1, shape))
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    block[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], int(zeros.sum())))
    if draw(st.booleans()):
        half = cols // 2
        block[:, half:2 * half] = -block[:, :half]
        block = block[:, rng.permutation(cols)]
    if draw(st.integers(0, 3)) == 3:
        row = rng.integers(rows)
        special = draw(st.sampled_from([(math.inf,), (-math.inf,), (math.inf, -math.inf), (math.nan,)]))
        for value in special:
            block[row, rng.integers(cols)] = value
    return block


@st.composite
def sum_blocks(draw):
    """Blocks of 1-5 rows and up to 70000 columns, with entries from one
    exponent window of at most 80 binades anywhere from the subnormals up
    to about 1e300 (``_block_entries``)."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.integers(1, 40), st.integers(1, 70_000), st.integers(65_000, 70_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1074, 997))
    hi = draw(st.integers(lo, min(997, lo + 80)))
    return _block_entries(draw, rng, (rows, cols), lo, hi)


@st.composite
def extraction_blocks(draw):
    """Blocks of 1-5 rows and up to 2^17 columns whose exponent window may
    span the whole range the extraction takes, subnormals to 2^900: wide
    windows exhaust the fold cap, so the remainder path runs. Entries as in
    ``sum_blocks``."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.integers(1, 40), st.sampled_from([65_537, 1 << 17]), st.integers(1, 1 << 17)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1974, 400, 60, 0]))
    lo = draw(st.integers(-1074, 900 - span))
    hi = lo + span
    return _block_entries(draw, rng, (rows, cols), lo, hi)


@st.composite
def scaled_row_blocks(draw):
    """Blocks of 2-6 rows whose rows differ in scale by up to 2^+-600
    within the block, so one block-wide sigma sits far above some rows:
    each row is a narrow exponent window shifted by its own power of two,
    and a zero row and a row of subnormals may join them."""
    rows = draw(st.integers(2, 6))
    cols = draw(st.one_of(st.integers(1, 40), st.sampled_from([1000, 5000])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 8, 60, 600]))
    mant = rng.uniform(0.5, 1.0, (rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
    block = np.ldexp(mant, rng.integers(-8, 1, (rows, cols)) + rng.integers(-spread, spread + 1, (rows, 1)))
    if draw(st.booleans()):
        block[rng.integers(rows)] = 0.0
    if draw(st.booleans()):
        block[rng.integers(rows)] = np.ldexp(mant[0], rng.integers(-1074, -1021, cols))
    return block


class TestExactRowSums:
    @settings(max_examples=150, deadline=None)
    @given(sum_blocks())
    def test_bit_equal_to_fsum(self, block):
        try:
            expected = fsum_rows(block)
        except ValueError:
            with pytest.raises(NumericError, match="-inf \\+ inf"):
                exact_row_sums(block)
            return
        assert exact_row_sums(block).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(extraction_blocks(), st.sampled_from([None, 1, 2]), st.sampled_from([None, 1, 7, 1000]))
    def test_extraction_bit_equal_to_fsum(self, block, folds, columns):
        # A cap of one or two folds leaves a remainder in most rows; narrow
        # fold widths sum each fold in many column groups.
        try:
            expected = fsum_rows(block)
        except ValueError:
            with pytest.raises(NumericError, match="-inf \\+ inf"):
                exact_row_sums(block)
            return
        with pytest.MonkeyPatch.context() as patch:
            if folds:
                patch.setattr(risk, "_MAX_FOLDS", folds)
            if columns:
                patch.setattr(risk, "_FOLD_COLUMNS", columns)
            assert exact_row_sums(block).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(scaled_row_blocks(), st.sampled_from([1, 2, 4]), st.sampled_from([None, 7, 1000]))
    def test_one_sigma_for_rows_of_every_scale(self, block, folds, columns):
        # A cap of one fold always leaves the remainder path; rows of one
        # scale clear in two folds and take the float sum f0 + f1.
        expected = fsum_rows(block)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_MAX_FOLDS", folds)
            if columns:
                patch.setattr(risk, "_FOLD_COLUMNS", columns)
            assert exact_row_sums(block).tobytes() == expected.tobytes()

    def test_two_clearing_folds_sum_in_floats(self, monkeypatch):
        # Loss and gradient rows of one oracle call clear in two folds: their
        # sums are f0 + f1, with no math.fsum call. A cap of two folds that
        # leaves a remainder keeps it: without 2^-140, 1 + 2^-53 is a tie
        # that rounds down to 1.
        data, _ = normalize_features(sample_gmm(preset("fig2"), 1000, RngState(3)))
        block = terms_rows(risk._logp(np.array([[0.7, -1.2]]), data)[0], data, (1.0,), 1.0)
        rows = np.array([[1.0, 2.0 ** -53, 2.0 ** -140], [3.0, 0.0, 0.0]])
        expected, expected_rows = fsum_rows(block), fsum_rows(rows)
        fsum, fsum_calls = math.fsum, []
        monkeypatch.setattr(risk.math, "fsum", lambda row: fsum_calls.append(row) or fsum(row))
        assert exact_row_sums(block).tobytes() == expected.tobytes()
        assert fsum_calls == []
        monkeypatch.setattr(risk, "_MAX_FOLDS", 2)
        assert exact_row_sums(rows).tobytes() == expected_rows.tobytes()
        assert len(fsum_calls) == 2

    @pytest.mark.parametrize("shape", [(1, 65_536), (1, 65_537), (2, 32_768), (3, 32_769), (2, 140_000)])
    def test_chunk_boundaries(self, shape):
        rng = np.random.default_rng(shape[1])
        block = rng.normal(size=shape) * np.exp(rng.uniform(-30.0, 30.0, size=shape))
        assert exact_row_sums(block).tobytes() == fsum_rows(block).tobytes()

    @pytest.mark.parametrize("columns", [1000, 4096])
    def test_rows_wider_than_one_fold_sum(self, monkeypatch, columns):
        # Entries of one sign: a fold sum over more than _FOLD_COLUMNS
        # columns would pass sigma and round.
        monkeypatch.setattr(risk, "_FOLD_COLUMNS", columns)
        block = np.random.default_rng(columns).uniform(0.5, 1.0, size=(2, 140_000))
        block[1] *= 2.0 ** -40
        assert exact_row_sums(block).tobytes() == fsum_rows(block).tobytes()

    def test_rows_past_the_fold_cap(self):
        # A fold takes 52 - c bits (c = 3 for 6 columns): the first two rows
        # span 2^1000 to 2^-1074 and need about 42 folds.
        row = [2.0 ** 1000, 3.0, -(2.0 ** -600), 5e-324, -(2.0 ** 1000), 2.0 ** -1000]
        block = np.array([row, row[::-1], [1.0, 2.0 ** -60, 2.0 ** -1074, 0.0, 0.0, 0.0]])
        assert (1000 + 1074) // (52 - 3) > risk._MAX_FOLDS
        assert exact_row_sums(block).tobytes() == fsum_rows(block).tobytes()

    def test_input_is_not_modified(self):
        block = np.array([[0.1, 0.2, 0.3], [1e-30, 1.0, -1.0]])
        before = block.copy()
        exact_row_sums(block)
        assert block.tobytes() == before.tobytes()

    # The last row takes the math.fsum path (entries above 2^900); it sums
    # to 8e307, though some summation orders pass the float range.
    @pytest.mark.parametrize("row", [[-0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [1e-300, -1e-300],
                                     [1.0, math.inf, 2.0], [-math.inf, 0.5, -math.inf],
                                     [1e308, -6e307, 1e308, -6e307]])
    def test_edge_rows(self, row):
        block = np.array([row])
        assert exact_row_sums(block).tobytes() == fsum_rows(block).tobytes()

    def test_overflowing_partial_sums_give_the_finite_sum(self):
        # math.fsum raises on this row; its exact sum is the finite 1e308.
        assert exact_row_sums(np.array([[1e308, 1e308, -1e308]])).tolist() == [1e308]

    def test_sum_past_the_float_range_is_numeric_error(self):
        with pytest.raises(NumericError, match="sample sum overflows"):
            exact_row_sums(np.array([[1e308, 1e308]]))

    def test_infinities_after_overflowing_partial_sums(self):
        # math.fsum raises OverflowError before it reaches the infinities.
        assert exact_row_sums(np.array([[1e308, 1e308, math.inf]])).tolist() == [math.inf]
        with pytest.raises(NumericError, match="undefined: -inf \\+ inf"):
            exact_row_sums(np.array([[1e308, 1e308, math.inf, -math.inf]]))

    def test_empty_rows_sum_to_zero(self):
        assert exact_row_sums(np.empty((2, 0))).tobytes() == fsum_rows(np.empty((2, 0))).tobytes()

    def test_finite_mean_of_an_overflowing_sum(self):
        # Each loss is about 6e307; their sum passes the float range, their
        # mean does not. The mean is the exact sum rounded once, then divided,
        # as on every other path: here with Fractions, in a frame scaled by
        # 2^-10 where nothing overflows or underflows. That is within one ulp
        # of the exact mean.
        data = Dataset(np.array([[0.6, 0.8]] * 3), np.array([-1, -1, -1]))
        losses = terms_rows(risk._logp(np.array([[1e308, 0.0]]), data)[0], data, (1.0,))[0].tolist()
        exact = sum(map(Fraction, losses))
        scaled_sum = Fraction(float(exact / 2**10))
        expected = math.ldexp(float(scaled_sum) / 3, 10)
        assert empirical_risk(1.0, [1e308, 0.0], data) == expected
        ulp = math.ulp(float(exact / 3))
        assert abs(Fraction(expected) - exact / 3) <= ulp


class TestEmpiricalRisk:
    def test_closed_form_at_origin(self, fig2_small):
        for alpha in (0.5, 1.0, 2.0, 4.0, INFINITY):
            assert empirical_risk(alpha, np.zeros(2), fig2_small) == pytest.approx(
                risk_at_origin(alpha), abs=1e-12
            )

    def test_single_sample_value(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
        assert empirical_risk(1.0, [5.0, 0.0], data) == pytest.approx(
            0.006715348489118069, rel=1e-12
        )

    def test_matches_mean_of_pointwise_losses(self, fig2_small):
        rng = np.random.default_rng(15)
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            theta = rng.normal(size=2)
            independent = math.fsum(
                oracle_loss(alpha, theta, x, y) for x, y in zip(fig2_small.xs, fig2_small.ys)
            ) / fig2_small.n
            assert empirical_risk(alpha, theta, fig2_small) == pytest.approx(independent, rel=1e-13)

    def test_nonincreasing_in_alpha(self, fig2_small):
        rng = np.random.default_rng(31)
        grid = (0.5, 1.0, 2.0, 4.0, 10.0, INFINITY)
        for _ in range(5):
            theta = rng.normal(size=2) * 2
            vals = [empirical_risk(a, theta, fig2_small) for a in grid]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_infinite_order_is_mean_misclassification_mass(self, fig2_small):
        rng = np.random.default_rng(8)
        for _ in range(5):
            theta = rng.normal(size=2) * 3
            margins = fig2_small.ys * (fig2_small.xs @ theta)
            independent = math.fsum(sigmoid(-z) for z in margins) / fig2_small.n
            assert empirical_risk(INFINITY, theta, fig2_small) == pytest.approx(independent, rel=1e-13)

    def test_dimension_mismatch(self, fig2_small):
        with pytest.raises(UsageError):
            empirical_risk(1.0, np.zeros(3), fig2_small)

    @pytest.mark.parametrize("fn", [
        empirical_risk, empirical_risk_grad, empirical_risk_hess,
        lambda alpha, theta, data: value_and_grad(alpha, data)(theta),
    ], ids=["empirical_risk", "empirical_risk_grad", "empirical_risk_hess", "value_and_grad"])
    def test_one_point_functions_take_exactly_one_point(self, fig2_small, fn):
        theta = np.array([0.7, -1.3])
        for pts in (np.stack([theta, -theta]), np.empty((0, 2))):
            with pytest.raises(UsageError, match="one point"):
                fn(2.0, pts, fig2_small)
        one, row = (fn(2.0, pts, fig2_small) for pts in (theta, theta[None, :]))
        parts = (lambda out: out if isinstance(out, tuple) else (out,))
        assert [np.asarray(p).tobytes() for p in parts(one)] == [np.asarray(p).tobytes() for p in parts(row)]

    def test_batch_matches_single(self, fig2_small):
        rng = np.random.default_rng(77)
        pts = rng.normal(size=(7, 2))
        batch = risk_values(2.0, pts, fig2_small)
        singles = [empirical_risk(2.0, p, fig2_small) for p in pts]
        assert np.array_equal(batch, np.array(singles))


def fsum_oracle(alpha: float, data: Dataset):
    """The slow oracle of ``value_and_grad``: the point checked by
    ``_as_point``, the margin matmul, log p, the old terms formula (the
    loss row by its order's branch, then the weights p^u (1 - p) negated
    and times the features) and one ``math.fsum`` per row, out of place."""
    u, n = 1.0 - 1.0 / alpha, data.n

    def oracle(theta):
        margins = np.matmul(risk._as_point(theta, data), data.signed.T)
        logp = np.minimum(margins, 0.0) - np.log1p(np.exp(-np.abs(margins)))
        if math.isinf(alpha):
            loss = -np.expm1(logp)
        elif abs(u) < LOG_BRANCH_TOL:
            loss = -logp
        else:
            loss = -np.expm1(u * logp) / u
        weights = np.exp(u * logp) * -np.expm1(logp)
        rows = [loss[0], *(-weights * data.signed.T)]
        means = np.array([math.fsum(row.tolist()) for row in rows]) / n
        return float(means[0]), means[1:]

    return oracle


def random_dataset(rng: np.random.Generator, n: int, d: int) -> Dataset:
    """n labeled features in the unit ball, some on its sphere."""
    xs = rng.normal(size=(n, d))
    xs /= np.maximum(np.linalg.norm(xs, axis=1), 1e-300)[:, None] * rng.choice([1.0, 1.0, 1.25, 4.0], (n, 1))
    return Dataset(xs * (1.0 - 1e-12), rng.choice([-1, 1], n))


class TestOracleAgainstFsumOracle:
    """``value_and_grad`` keeps the bits, the exceptions and the messages
    of the slow oracle ``fsum_oracle``."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.0016, 0.5, 1.0, 1.0 + 1e-7, 2.0, INFINITY]), st.integers(1, 5),
           st.sampled_from([1, 2, 7, 1000, 5000]), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_bit_equal(self, alpha, d, n, seed, norms):
        # theta norms from 1e-12 up to r, log-uniform; r = 0.5 for the
        # order whose powers reach 1e264. Several points go through one
        # oracle, so its buffers are reused.
        r = 0.5 if alpha < 0.01 else 5.0
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, n, d)
        fast, slow = value_and_grad(alpha, data), fsum_oracle(alpha, data)
        for t in norms:
            theta = rng.normal(size=d)
            theta *= math.exp(math.log(1e-12) + t * math.log(r / 1e-12)) / np.linalg.norm(theta)
            (value, grad), (want_value, want_grad) = fast(theta), slow(theta)
            assert type(value) is float and np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("theta", [
        [math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], [[0.0, math.nan]], [0.0, 0.0, 0.0], [1.0],
        np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((1, 3)), 1.0, "x",
    ], ids=["nan", "inf", "-inf", "nan-row", "long", "short", "two-points", "no-point", "long-row", "scalar",
            "text"])
    def test_same_errors(self, fig2_small, theta):
        with pytest.raises(Exception) as want:
            fsum_oracle(2.0, fig2_small)(theta)
        with pytest.raises(Exception) as got:
            value_and_grad(2.0, fig2_small)(theta)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_one_point_row_and_list(self, fig2_small):
        oracle = value_and_grad(0.5, fig2_small)
        want = fsum_oracle(0.5, fig2_small)([0.25, -3.0])
        for theta in ([0.25, -3.0], np.array([[0.25, -3.0]]), np.array([0.25, -3.0])):
            value, grad = oracle(theta)
            assert value == want[0] and grad.tobytes() == want[1].tobytes()


class TestRiskDerivatives:
    def test_gradient_mirrored_cancellation(self):
        xs = np.array([[0.4, 0.3], [0.4, 0.3], [-0.2, 0.8], [-0.2, 0.8]])
        ys = np.array([1, -1, 1, -1])
        data = Dataset(xs, ys)
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            assert np.array_equal(empirical_risk_grad(alpha, np.zeros(2), data), np.zeros(2))

    def test_single_sample_gradient(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
        assert empirical_risk_grad(1.0, np.zeros(2), data) == pytest.approx([-0.5, 0.0])

    def test_gradient_matches_finite_differences(self, fig2_small):
        rng = np.random.default_rng(5)
        for alpha in (0.5, 1.0, 2.0, 10.0, INFINITY):
            theta = rng.normal(size=2) * 2
            exact = empirical_risk_grad(alpha, theta, fig2_small)
            approx = fd_grad(lambda t: empirical_risk(alpha, t, fig2_small), theta)
            assert rel_err(exact, approx) < 1e-6

    def test_hessian_matches_finite_differences(self, fig2_small):
        rng = np.random.default_rng(6)
        for alpha in (0.5, 1.0, 2.0, 10.0, INFINITY):
            theta = rng.normal(size=2)
            exact = empirical_risk_hess(alpha, theta, fig2_small)
            approx = fd_jacobian(lambda t: empirical_risk_grad(alpha, t, fig2_small), theta)
            assert rel_err(exact, 0.5 * (approx + approx.T)) < 1e-5

    def test_single_sample_hessian(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
        h = empirical_risk_hess(1.0, np.zeros(2), data)
        assert h == pytest.approx(np.array([[0.25, 0.0], [0.0, 0.0]]))

    def test_hessian_floor_certificate_small(self, fig2_small):
        r = 5.0
        moment_floor = min_eigen_sym(fig2_small.second_moment())
        rng = np.random.default_rng(99)
        for alpha in (0.5, 1.0):
            bound = curvature_floor(alpha, r) * moment_floor
            for _ in range(20):
                theta = rng.normal(size=2)
                theta = theta / np.linalg.norm(theta) * rng.uniform(0, r)
                lam = min_eigen_sym(empirical_risk_hess(alpha, theta, fig2_small))
                assert lam >= bound - 1e-8

    def test_one_row_dataset_matches_maps_at_the_margin(self):
        # One labeled sample is a one-row Dataset: its value and gradient
        # are the log p maps at the margin y <theta, x>, bit for bit. The
        # Hessian rounds (w x_j) x_k in the kernel but w (x_j x_k) here.
        rng = np.random.default_rng(2024)
        orders = (0.1, 0.5, 0.77, 1.0, 1.0 + 1e-7, 1.3, 2.0, 10.0, INFINITY)
        for i in range(3000):
            d = int(rng.integers(1, 6))
            x = rng.normal(size=d)
            x /= max(1.0, float(np.linalg.norm(x))) * rng.uniform(1.0, 1.5)
            y = 1 if rng.uniform() < 0.5 else -1
            theta = rng.normal(size=d)
            theta *= rng.uniform(0.0, 8.0) / np.linalg.norm(theta)
            alpha = orders[i % len(orders)]
            data = Dataset(x[None, :], [y])
            value, grad = value_and_grad(alpha, data)(theta)
            kernel = np.array([value, *grad])
            logp = log_sigmoid_vec(theta @ (x * y))
            maps = np.array([loss_from_logp(alpha, logp), *(-grad_weight_from_logp(alpha, logp) * (y * x))])
            assert kernel.tobytes() == maps.tobytes()
            np.testing.assert_allclose(
                empirical_risk_hess(alpha, theta, data), hess_factor_from_logp(alpha, logp) * np.outer(x, x),
                rtol=1e-14, atol=0.0,
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 1e-7, 2.0, 10.0, INFINITY, 0.0016])
    @pytest.mark.parametrize("theta", [[0.5, -1.0], [3000.0, -2000.0]])
    def test_value_and_grad_oracle_consistent(self, fig2_small, alpha, theta):
        # The oracle is the batched passes' exact block map: the same bits,
        # or the same error. At the far point some gradient weights
        # underflow to subnormals and zeros; at orders 0.5 and 0.0016 others
        # overflow, and the gradient rows hold infinities of both signs.
        data = fig2_small
        calls = [
            lambda: value_and_grad(alpha, data)(theta),
            lambda: (empirical_risk(alpha, theta, data), empirical_risk_grad(alpha, theta, data)),
            lambda: tuple(a[0] for a in risk_values_grads(alpha, theta, data)),
        ]

        def bits(call):
            try:
                value, grad = call()
            except NumericError as exc:
                return str(exc)
            return np.array([value, *grad]).tobytes()

        with np.errstate(all="ignore"):
            assert len({bits(call) for call in calls}) == 1
            if theta[0] > 1000.0:
                neg_w = neg_grad_weight_map(alpha)(risk._logp(np.array([theta]), data), np.empty((1, data.n)),
                                                   np.empty((1, data.n)))
                assert np.any(neg_w == 0.0) and np.any((neg_w != 0.0) & (np.abs(neg_w) < np.finfo(float).tiny))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 1e-7, 2.0, INFINITY])
    def test_oracle_buffers_keep_the_bits_and_return_new_gradients(self, fig2_small, alpha):
        # The oracle reuses the buffers it was built with; every call gives
        # the bits of a fresh one, and no returned gradient shares memory
        # with a later call's.
        oracle = value_and_grad(alpha, fig2_small)
        rng = np.random.default_rng(18)
        returned = []
        for theta in rng.uniform(-5.0, 5.0, size=(30, 2)):
            value, grad = oracle(theta)
            fresh_value, fresh_grad = value_and_grad(alpha, fig2_small)(theta)
            assert value == fresh_value and grad.tobytes() == fresh_grad.tobytes()
            returned.append((grad, grad.copy()))
        for grad, copy in returned:
            assert grad.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(a, b) for (a, _), (b, _) in zip(returned, returned[1:]))


class TestEvaluationKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 400), st.integers(1, 2000))
    def test_blocks_cover_in_order_with_no_lone_point(self, m, width, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_BLOCK_ELEMENTS", cap)
            blocks = list(risk._blocks(m, width))
        assert [i for sl in blocks for i in range(sl.start, sl.stop)] == list(range(m))
        rows = max(2, cap // width)
        for k, sl in enumerate(blocks):
            size = sl.stop - sl.start
            assert size <= rows + (k == len(blocks) - 1)  # a merged tail adds one row
            assert size >= 2 or m == 1

    def test_point_bits_do_not_depend_on_its_block(self, fig2_small, monkeypatch):
        # Two points per block: p ends [a, b, p] and shares a block with a
        # in [a, p]. A one-row tail block would round p's margins apart.
        monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", 2 * fig2_small.n)
        rng = np.random.default_rng(404)
        a, b = rng.uniform(-5.0, 5.0, size=(2, 2))
        for p in rng.uniform(-5.0, 5.0, size=(300, 2)):
            for fn in (risk_values, risk_grads):
                assert fn(2.0, [a, b, p], fig2_small)[2].tobytes() == fn(2.0, [a, p], fig2_small)[1].tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 1e-7, 2.0, INFINITY])
    def test_values_grads_equal_separate_passes(self, fig2_small, monkeypatch, alpha):
        rng = np.random.default_rng(55)
        # One block per call, then blocks whose layout differs between the three calls.
        for cap in (risk._BLOCK_ELEMENTS, 7 * fig2_small.n):
            monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", cap)
            for m in (2, 3, 40):
                pts = rng.uniform(-5.0, 5.0, size=(m, 2))
                values, grads = risk_values_grads(alpha, pts, fig2_small)
                assert values.tobytes() == risk_values(alpha, pts, fig2_small).tobytes()
                assert grads.tobytes() == risk_grads(alpha, pts, fig2_small).tobytes()


    @pytest.mark.parametrize("per_block, blocks", [(None, 1), (2, 4), (3, 3)])
    def test_one_call_chooses_each_map_once(self, fig2_small, monkeypatch, per_block, blocks):
        # However many blocks an exact call takes, each order's loss map and
        # the gradient-weight map are chosen once, before the first block.
        chosen = []
        for name in ("loss_map", "neg_grad_weight_map"):
            original = getattr(risk, name)
            monkeypatch.setattr(risk, name, lambda alpha, name=name, original=original: (
                chosen.append((name, alpha)) or original(alpha)))
        width = (1 + 2 + fig2_small.dim) * fig2_small.n  # two loss rows and two gradient rows per point
        if per_block is not None:
            monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", per_block * width)
        pts = np.random.default_rng(25).uniform(-5.0, 5.0, size=(9, 2))
        assert len(list(risk._blocks(len(pts), width))) == blocks
        risk._means(pts, fig2_small, (0.5, INFINITY), 2.0)
        assert chosen == [("loss_map", 0.5), ("loss_map", INFINITY), ("neg_grad_weight_map", 2.0)]

    def test_cache_sized_blocks_give_the_bytes_of_one_block(self, monkeypatch):
        # A fig3-style grid on 5000 samples: the default cap cuts it into
        # blocks of a few points, a cap of 4,000,000 into a handful.
        raw = sample_gmm(preset("fig3"), 5000, RngState(42))
        data, _ = normalize_features(raw)
        nodes = GridSpec(((-5.0, 5.0, 21), (-5.0, 5.0, 21)), mask_radius=5.0).nodes()

        def outputs():
            yield risk.risk_values_multi([1.0, 2.0, 4.0, 10.0, INFINITY], nodes, data)
            for alpha in (0.5, 1.0, 2.0, INFINITY):
                yield from risk_values_grads(alpha, nodes, data)

        small = [a.tobytes() for a in outputs()]
        monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", 4_000_000)
        assert [a.tobytes() for a in outputs()] == small

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 9))
    def test_tail_blocks_reuse_the_buffers(self, fig2_small, m, per_block):
        # Blocks of per_block points and a tail of another size, all in the
        # prefix of one buffer set, give the bytes of one block.
        pts = np.random.default_rng(m).uniform(-5.0, 5.0, size=(m, 2))

        def outputs():
            yield risk.risk_values_multi([0.5, 1.0, INFINITY], pts, fig2_small)
            yield from risk_values_grads(2.0, pts, fig2_small)

        whole = [a.tobytes() for a in outputs()]
        assert len(list(risk._blocks(m, 4 * fig2_small.n))) == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_BLOCK_ELEMENTS", per_block * 4 * fig2_small.n)
            assert [a.tobytes() for a in outputs()] == whole

    def test_peak_memory_is_one_buffer_set(self, fig2_n5000):
        # log p, one temporary, the terms and the extraction scratch, all
        # sized for the largest block, plus the output: nothing per block.
        data = fig2_n5000
        pts = np.random.default_rng(16).uniform(-3.0, 3.0, size=(400, 2))
        rows = 1 + data.dim
        blocks = list(risk._blocks(len(pts), (1 + rows) * data.n))
        largest = max(sl.stop - sl.start for sl in blocks)
        buffers = 8 * largest * data.n * (2 + 2 * rows)
        output = 8 * len(pts) * rows
        assert len(blocks) > 1
        tracemalloc.start()
        try:
            risk_values_grads(1.0, pts, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers + output + 64 * 1024

    def test_float_pass_holds_no_terms_block(self, fig2_n5000):
        # The float pass makes log p, one temporary and the (n, d + 1)
        # features of its product; it never makes the terms block.
        data = fig2_n5000
        pts = np.random.default_rng(16).uniform(-3.0, 3.0, size=(400, 2))
        blocks = list(risk._blocks(len(pts), (2 + data.dim) * data.n))
        largest = max(sl.stop - sl.start for sl in blocks)
        buffers = 8 * largest * data.n * 2 + 8 * data.n * (data.dim + 1)
        output = 8 * len(pts) * (2 + data.dim) * 2
        tracemalloc.start()
        try:
            risk.float_means(pts, data, (1.0,), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers + output + 64 * 1024

    @pytest.mark.parametrize("orders", [[INFINITY, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1.0], [1.0] * 8, [INFINITY] * 8])
    def test_eight_orders_of_one_sample(self, orders):
        # One sample and eight orders: each loss row of the terms block is a
        # view whose elements lie 64 bytes apart, where an in-place
        # np.negative miscomputes on some numpy builds.
        data = Dataset(np.array([[0.6, 0.8]]), np.array([1]))
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, (5, 2))
        multi = risk.risk_values_multi(orders, pts, data)
        assert multi.tobytes() == np.column_stack([risk_values(a, pts, data) for a in orders]).tobytes()
        approx, bounds = risk.float_means(pts, data, orders)
        assert np.all(np.abs(approx - multi) <= bounds)


class TestOrderOneWeightMap:
    """At alpha = 1 the gradient-weight map is expm1(log p) alone. Where a
    margin overflows to -inf, log p is -inf and the map gives the weight's
    limit -1 (the formula exp(0 log p) expm1(log p) would give NaN). The
    oracle, the exact batched passes and the float pass all take the map,
    so both passes of the float filter see the same weights there."""

    # theta . (y x) = 1.5e308 * (-0.6 - 0.8) overflows to -inf at sample 0
    # and to +inf at sample 1; sample 2's margin is finite.
    DATA = Dataset(np.array([[0.6, 0.8], [0.6, 0.8], [0.0, 0.5]]), np.array([-1, 1, 1]))
    FAR = np.array([1.5e308, 1.5e308])
    NEAR = np.array([0.5, -0.25])
    # -w = expm1(log p): -1 at sample 0, -0.0 at the others
    LIMIT = [0.6 / 3, 0.8 / 3]

    @pytest.fixture(autouse=True)
    def overflowing_margins(self):
        with np.errstate(over="ignore"):  # the margin matmul overflows
            yield

    def test_far_point_has_log_p_minus_inf(self):
        logp = risk._logp(self.FAR[None, :], self.DATA)[0]
        assert logp[0] == -math.inf and logp[1] == 0.0 and np.isfinite(logp[2])

    def test_oracle_gives_the_limit(self):
        value, grad = value_and_grad(1.0, self.DATA)(self.FAR)
        assert value == math.inf and grad.tolist() == self.LIMIT

    def test_exact_passes_give_the_limit(self):
        grads = risk_grads(1.0, [self.FAR, self.NEAR], self.DATA)
        values, both = risk_values_grads(1.0, [self.FAR, self.NEAR], self.DATA)
        assert grads[0].tolist() == self.LIMIT and np.all(np.isfinite(grads[1]))
        assert values[0] == math.inf and both.tobytes() == grads.tobytes()

    @pytest.mark.parametrize("alphas, grad_alpha", [((1.0,), 1.0), ((), 1.0), ((2.0,), 1.0), ((2.0,), 2.0),
                                                    ((INFINITY,), INFINITY), ((2.0, INFINITY), None)])
    def test_float_pass_bounds_hold(self, alphas, grad_alpha):
        # An infinite loss mean (the log order) settles nothing; every other
        # row of the far point has a bound that holds.
        means, bounds = risk.float_means([self.FAR, self.NEAR], self.DATA, alphas, grad_alpha)
        exact = risk._means([self.FAR, self.NEAR], self.DATA, alphas, grad_alpha)
        assert np.all(np.isnan(bounds[0]) if 1.0 in alphas else np.isfinite(bounds[0]))
        settled = np.isfinite(bounds)
        assert np.all(settled[1]) and np.all(np.abs(means[settled] - exact[settled]) <= bounds[settled])


class TestSmallOrderInfinities:
    """At alpha = 0.002 and theta = (5, 0), p^(1-1/alpha) overflows: loss
    rows are +inf throughout, while gradient and off-diagonal Hessian rows
    hold infinities of both signs and have no sum."""

    def test_undefined_sums_are_numeric_errors(self, fig2_small):
        theta = np.array([5.0, 0.0])
        for fn in (risk_grads, lambda a, t, data: value_and_grad(a, data)(t), empirical_risk_hess):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="-inf \\+ inf"):
                fn(0.002, theta, fig2_small)

    def test_one_signed_infinity_is_returned(self, fig2_small):
        with np.errstate(over="ignore"):
            assert risk_values(0.002, [5.0, 0.0], fig2_small)[0] == math.inf


class TestLipschitzCertificates:
    PAIRS = ((1.0, 2.0), (2.0, 4.0), (4.0, INFINITY))

    def test_risk_lipschitz_in_inv_alpha(self, fig2_small):
        r = 5.0
        big_l = lipschitz_in_inv_alpha(r)
        rng = np.random.default_rng(12)
        for _ in range(50):
            theta = rng.normal(size=2)
            theta = theta / np.linalg.norm(theta) * rng.uniform(0, r)
            for a, b in self.PAIRS:
                gap = abs(empirical_risk(a, theta, fig2_small) - empirical_risk(b, theta, fig2_small))
                inv_gap = abs(1.0 / a - (0.0 if math.isinf(b) else 1.0 / b))
                assert gap <= big_l * inv_gap + 1e-9

    def test_gradient_lipschitz_in_inv_alpha(self, fig2_small):
        r = 5.0
        big_j = grad_lipschitz_in_inv_alpha(r)
        rng = np.random.default_rng(13)
        for _ in range(50):
            theta = rng.normal(size=2)
            theta = theta / np.linalg.norm(theta) * rng.uniform(0, r)
            for a, b in self.PAIRS:
                diff = np.linalg.norm(
                    empirical_risk_grad(a, theta, fig2_small) - empirical_risk_grad(b, theta, fig2_small)
                )
                inv_gap = abs(1.0 / a - (0.0 if math.isinf(b) else 1.0 / b))
                assert diff <= big_j * inv_gap + 1e-9


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(UsageError):
            GridSpec(((0.0, 1.0, 1),))
        with pytest.raises(UsageError):
            GridSpec(((1.0, 1.0, 3),))
        with pytest.raises(UsageError):
            GridSpec(((0.0, 1.0, 4000), (0.0, 1.0, 4000)))  # 1.6e7 nodes
        with pytest.raises(DomainError):
            GridSpec(((0.0, 1.0, 3),), mask_radius=-1.0)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf),
                                        (-1.7e308, 1.7e308)])
    def test_rejects_non_finite_bounds_and_span(self, lo, hi):
        with pytest.raises(UsageError, match="finite"):
            GridSpec(((lo, hi, 3),))

    def test_row_major_order(self):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 2)))
        nodes = grid.nodes()
        expected = np.array(
            [[-1, -1], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 1]], dtype=float
        )
        assert np.array_equal(nodes, expected)

    def test_mask_keeps_ball_only(self):
        grid = GridSpec(((-1.0, 1.0, 5), (-1.0, 1.0, 5)), mask_radius=1.0)
        nodes = grid.nodes()
        assert np.all(np.linalg.norm(nodes, axis=1) <= 1.0 + 1e-12)
        assert nodes.shape[0] == 13  # 25 minus the 12 outside the unit disc

    def test_mask_keeps_nodes_whose_squared_norm_overflows(self):
        # Every node but the origin has a squared norm past the float range;
        # the same 13 of 25 nodes lie in the disc as at radius 1.
        r = 8e307
        nodes = GridSpec(((-r, r, 5), (-r, r, 5)), mask_radius=r).nodes()
        assert nodes.shape[0] == 13
        unit = GridSpec(((-1.0, 1.0, 5), (-1.0, 1.0, 5)), mask_radius=1.0).nodes()
        np.testing.assert_allclose(nodes / r, unit, rtol=0.0, atol=1e-15)


class TestLandscape:
    def test_center_row_is_log2(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        nodes, risks = landscape_scans([1.0], grid, fig2_small)
        center = np.where((nodes == 0).all(axis=1))[0]
        assert center.size == 1
        assert risks[center[0], 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_deterministic(self, fig2_small):
        grid = GridSpec(((-2.0, 2.0, 7), (-2.0, 2.0, 7)), mask_radius=2.0)
        first = landscape_scans([1.5], grid, fig2_small)
        second = landscape_scans([1.5], grid, fig2_small)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_larger_alpha_flattens_the_surface(self, fig2_small):
        grid = GridSpec(((-5.0, 5.0, 11), (-5.0, 5.0, 11)), mask_radius=5.0)
        _, risks = landscape_scans([10.0, 1.0], grid, fig2_small)
        assert risks[:, 0].max() < risks[:, 1].max()

    def test_grid_dim_mismatch(self, fig2_small):
        with pytest.raises(UsageError):
            landscape_scans([1.0], GridSpec(((-1.0, 1.0, 3),)), fig2_small)

    def test_scans_equal_per_order_scans_bit_for_bit(self, fig2_small, monkeypatch):
        # Small blocks, so the shared pass is cut into many row blocks.
        monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", 7 * fig2_small.n)
        grid = GridSpec(((-3.0, 3.0, 9), (-3.0, 3.0, 9)), mask_radius=3.0)
        alphas = [0.5, 1.0, 2.0, INFINITY, 2.0, 10.0, INFINITY]
        nodes, risks = landscape_scans(alphas, grid, fig2_small)
        assert np.array_equal(nodes, grid.nodes())
        assert risks.shape == (len(nodes), len(alphas))
        for alpha, column in zip(alphas, risks.T):
            assert np.array_equal(column, landscape_scans([alpha], grid, fig2_small)[1][:, 0])
            assert np.array_equal(column, risk_values(alpha, nodes, fig2_small))

    def test_each_distinct_order_is_evaluated_once(self, fig2_small, monkeypatch):
        calls = []
        original = risk.risk_values_multi

        def counting(alphas, thetas, data):
            calls.append(list(alphas))
            return original(alphas, thetas, data)

        monkeypatch.setattr(risk, "risk_values_multi", counting)
        landscape_scans([2.0, 1.0, INFINITY, 2.0, 1], GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3))), fig2_small)
        assert calls == [[2.0, 1.0, INFINITY]]

    def test_negative_risk_is_domain_error(self, fig2_small, monkeypatch):
        monkeypatch.setattr(risk, "risk_values_multi",
                            lambda alphas, thetas, data: -np.ones((len(thetas), len(alphas))))
        with pytest.raises(DomainError, match="nonnegative"):
            landscape_scans([1.0], GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3))), fig2_small)

    def test_grid_without_nodes_is_usage_error(self, fig2_small):
        grid = GridSpec(((4.0, 5.0, 2), (4.0, 5.0, 2)), mask_radius=5.0)
        with pytest.raises(UsageError, match="no grid node"):
            landscape_scans([1.0], grid, fig2_small)
        with pytest.raises(UsageError, match="no grid node"):
            saturation_sups([1.0], grid, fig2_small)

    def test_non_finite_risk_is_numeric_error(self, fig2_small):
        # p^(1 - 1/alpha) overflows for tiny alpha although 1/alpha is finite.
        grid = GridSpec(((-5.0, 5.0, 3), (-5.0, 5.0, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error reports the overflow, not a numpy warning
            with pytest.raises(NumericError, match="1e-300"):
                landscape_scans([1.0, 1e-300], grid, fig2_small)


class TestSaturation:
    def test_same_order_gives_zero(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        assert saturation_sup(2.0, 2.0, grid, fig2_small) == 0.0

    def test_spot_value_at_origin(self, fig2_small):
        # theta = 0: |risk(4) - risk(inf)| has a dataset-free closed form
        gap = abs(empirical_risk(4.0, np.zeros(2), fig2_small) - empirical_risk(INFINITY, np.zeros(2), fig2_small))
        assert gap == pytest.approx(0.04052858999818596, abs=1e-9)

    def test_bounded_by_lipschitz_constant(self):
        data = tiny_dataset()
        grid = GridSpec(((-5.0, 5.0, 9), (-5.0, 5.0, 9)), mask_radius=5.0)
        big_l = lipschitz_in_inv_alpha(5.0)
        assert saturation_sup(1.0, 2.0, grid, data) <= big_l * 0.5 + 1e-9
        assert saturation_sup(4.0, INFINITY, grid, data) <= big_l * 0.25 + 1e-9

    def test_rejects_orders_below_one(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        with pytest.raises(DomainError):
            saturation_sup(0.5, 2.0, grid, fig2_small)
        with pytest.raises(DomainError):
            saturation_sups([2.0, 4.0], grid, fig2_small, reference=0.5)

    def test_grid_dim_mismatch(self, fig2_small):
        with pytest.raises(UsageError):
            saturation_sups([2.0], GridSpec(((-1.0, 1.0, 3),)), fig2_small)

    @pytest.mark.parametrize("reference", [INFINITY, 2.0])
    def test_sups_equal_per_order_sups_bit_for_bit(self, fig2_small, monkeypatch, reference):
        monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", 7 * fig2_small.n)
        grid = GridSpec(((-5.0, 5.0, 11), (-5.0, 5.0, 11)), mask_radius=5.0)
        alphas = [1.0, 2.0, 4.0, INFINITY, 2.0, 10.0, INFINITY, 1.5]
        sups = saturation_sups(alphas, grid, fig2_small, reference=reference)
        nodes = grid.nodes()
        base = risk_values(reference, nodes, fig2_small)
        for alpha, sup in zip(alphas, sups):
            assert sup == saturation_sup(alpha, reference, grid, fig2_small)
            assert sup == float(np.max(np.abs(risk_values(alpha, nodes, fig2_small) - base)))
        assert sups[alphas.index(reference)] == 0.0

    def test_non_finite_risk_is_numeric_error(self):
        # Margins below about -1.8e308 overflow, so the order-1 risk is inf.
        data = Dataset(np.array([[0.6, 0.8]]), np.array([1]))
        grid = GridSpec(((-1.7e308, -1.6e308, 2), (-1.7e308, -1.6e308, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error reports the overflow, not a numpy warning
            with pytest.raises(NumericError, match="1.0"):
                saturation_sups([1.0, 2.0], grid, data)


@st.composite
def filter_cases(draw):
    """A dataset of 1-5 dimensions and 1 to a few thousand samples in the
    unit ball, up to 6 points with norms up to 600 (so margins reach several
    hundred), and up to 4 orders in [1, inf] with 1 +- 1e-7 among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    xs = rng.normal(size=(n, d))
    xs *= (rng.uniform(0.0, 1.0, n) / np.maximum(np.linalg.norm(xs, axis=1), 1e-300))[:, None]
    data = Dataset(xs, rng.choice([-1, 1], n))
    radius = draw(st.sampled_from([1.0, 10.0, 600.0]))
    pts = rng.uniform(-radius, radius, (draw(st.integers(1, 6)), d))
    special = st.sampled_from([1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, INFINITY])
    alphas = draw(st.lists(st.one_of(special, st.floats(1.0, 50.0)), min_size=1, max_size=4))
    return data, pts, alphas


@st.composite
def grad_filter_cases(draw):
    """A dataset of 1-5 dimensions and 1 to a few thousand samples in the
    unit ball, up to 6 points, and one gradient order, below 1 among them.
    Below order 1 the weights grow like exp(margin (1/alpha - 1)), so the
    points keep norms up to 10 there (up to 600 at or above order 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    xs = rng.normal(size=(n, d))
    xs *= (rng.uniform(0.0, 1.0, n) / np.maximum(np.linalg.norm(xs, axis=1), 1e-300))[:, None]
    data = Dataset(xs, rng.choice([-1, 1], n))
    alpha = draw(st.one_of(st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.0 + 1e-7, 2.0, INFINITY]), st.floats(0.25, 50.0)))
    radius = draw(st.sampled_from([1.0, 10.0] if alpha < 1.0 else [1.0, 10.0, 600.0]))
    pts = rng.uniform(-radius, radius, (draw(st.integers(1, 6)), d))
    return data, pts, alpha


FLOAT_LOSS_ORDERS = (0.5, 1.0, 1.0 + 1e-7, 2.0, 10.0, INFINITY)
FLOAT_GRAD_ORDERS = (0.5, 1.0, 2.0, INFINITY)


@st.composite
def gmm_filter_cases(draw):
    """A ``GmmSpec`` mixture of 1-5 dimensions with random means and
    covariances, 1 to a few thousand normalized samples of it, up to 3 loss
    orders and one gradient order, and up to 6 points. With every order at
    least 1 the points may lie far out, norms up to 3000, where many
    margins pass 745 and their weights underflow; below order 1 the weights
    grow like exp(|margin|), so the points keep norms up to 10."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 5))
    means = rng.normal(size=(2, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    factors = rng.normal(size=(2, d, d))
    covs = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(d)
    spec = GmmSpec(rng.uniform(0.1, 0.9), means[0], means[1], covs[0], covs[1])
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    data, _ = normalize_features(sample_gmm(spec, n, RngState(seed)))
    alphas = draw(st.lists(st.sampled_from(FLOAT_LOSS_ORDERS), max_size=3))
    grad_alpha = draw(st.sampled_from(FLOAT_GRAD_ORDERS))
    far = min([*alphas, grad_alpha]) >= 1.0
    radius = draw(st.sampled_from([1.0, 10.0, 1000.0, 3000.0] if far else [1.0, 10.0]))
    pts = rng.uniform(-radius, radius, (draw(st.integers(1, 6)), d))
    return data, pts, alphas, grad_alpha


def exact_sups(alphas, grid, data, reference=INFINITY):
    """The oracle: the max of |risk(alpha) - risk(reference)| over ``landscape_scans``."""
    _, risks = landscape_scans([*alphas, reference], grid, data)
    return np.max(np.abs(risks[:, :-1] - risks[:, -1:]), axis=0).tolist()


def negate_losses(patch):
    """Negate every loss row of the exact pass (``risk.loss_map``) and
    every loss sum of the float pass (``risk.loss_sum_map``): means that
    nonnegative terms cannot give. The rows are negated as the maps negate
    (x * -1.0; see ``loss._negate``)."""
    loss, loss_sum = risk.loss_map, risk.loss_sum_map
    patch.setattr(risk, "loss_map", lambda alpha: lambda logp, out: np.multiply(
        loss(alpha)(logp, out), -1.0, out=out))
    patch.setattr(risk, "loss_sum_map", lambda alpha: lambda logp, tmp: -loss_sum(alpha)(logp, tmp))


def record_exact_calls(patch) -> list:
    """Record the number of points of every ``risk.risk_values_multi`` call."""
    calls = []
    original = risk.risk_values_multi

    def counting(alphas, thetas, data):
        calls.append(len(thetas))
        return original(alphas, thetas, data)

    patch.setattr(risk, "risk_values_multi", counting)
    return calls


class TestSaturationFilter:
    @settings(max_examples=150, deadline=None)
    @given(filter_cases())
    def test_approximate_mean_lies_within_its_bound(self, case):
        data, pts, alphas = case
        approx = risk._means(pts, data, alphas, exact=False)[:, :-1]  # the last column is the weights'
        exact = risk._means(pts, data, alphas)
        assert np.all(approx >= 0)
        assert np.all(np.abs(approx - exact) <= risk._approx_mean_error(approx, data.n))

    @settings(max_examples=150, deadline=None)
    @given(grad_filter_cases())
    def test_float_gradient_mean_lies_within_its_bound(self, case):
        # Gradient terms have both signs; their bound comes from the weights' sum.
        data, pts, alpha = case
        approx, bounds = risk.float_means(pts, data, (alpha,), alpha)
        exact = risk._means(pts, data, (alpha,), alpha)
        assert np.all(np.isfinite(approx + bounds))
        assert np.all(np.abs(approx - exact) <= bounds)
        assert np.all(bounds[:, 1:] == bounds[:, 1:2])  # one bound for a point's gradient rows

    @settings(max_examples=200, deadline=None)
    @given(gmm_filter_cases())
    def test_loss_and_gradient_orders_lie_within_their_bounds(self, case):
        # Every loss order with every gradient order: each float mean lies
        # within its bound of the exact mean, a point's gradient rows share
        # one bound, and only a point with a non-finite exact mean goes
        # without bounds.
        data, pts, alphas, grad_alpha = case
        approx, bounds = risk.float_means(pts, data, alphas, grad_alpha)
        exact = risk._means(pts, data, alphas, grad_alpha)
        settled = ~np.isnan(bounds)
        assert np.all(np.abs(approx - exact)[settled] <= bounds[settled])
        assert np.array_equal(settled.all(axis=1), settled.any(axis=1))
        assert np.all(settled.all(axis=1) | ~np.isfinite(exact).all(axis=1))
        k = len(alphas)
        assert np.all(bounds[:, k:] == bounds[:, k:k + 1])

    def test_far_points_have_underflowing_weights(self):
        # The far points of ``gmm_filter_cases`` reach the weights that
        # underflow: subnormal or zero products -w s in the float pass.
        data, _ = normalize_features(sample_gmm(preset("fig2"), 2000, RngState(5)))
        pts = np.array([[3000.0, 0.0], [0.0, -3000.0], [-2000.0, 2000.0]])
        neg_w = neg_grad_weight_map(INFINITY)(risk._logp(pts, data), np.empty((3, 2000)), np.empty((3, 2000)))
        assert np.any((neg_w != 0.0) & (np.abs(neg_w) < np.finfo(float).tiny)) and np.any(neg_w == 0.0)
        for grad_alpha in (1.0, 2.0, INFINITY):
            approx, bounds = risk.float_means(pts, data, (1.0,), grad_alpha)
            exact = risk._means(pts, data, (1.0,), grad_alpha)
            assert np.all(np.isfinite(bounds)) and np.all(np.abs(approx - exact) <= bounds)

    @pytest.mark.parametrize("alphas, grad_alpha", [
        ((0.5, 2.0), 2.0), ((1.0, INFINITY, 1.0 + 1e-7), 1.0), ((10.0,), INFINITY), ((), 0.5), ((1.0, 2.0), None),
    ])
    def test_float_means_leave_the_rows_bits(self, fig2_small, alphas, grad_alpha):
        # The float pass sums the exact pass's terms without making them:
        # each loss row has the bits of the pairwise sum of its terms row,
        # built from the maps (a log or infinite order sums before its
        # negation, which is exact), and the gradient rows and the weight
        # sum are the one product -w @ [signed | 1].
        data, n, k = fig2_small, fig2_small.n, len(alphas)
        pts = np.array([[0.5, -1.0], [2.0, 3.0], [-4.0, 1.0]])
        approx, _ = risk.float_means(pts, data, alphas, grad_alpha)
        sums = risk._means(pts, data, alphas, grad_alpha, exact=False)
        assert np.array_equal(approx, sums[:, :-1])
        logp = risk._logp(pts, data)
        terms = np.array([terms_rows(row, data, alphas) for row in logp]).reshape(len(pts), k, n)
        assert np.array_equal(sums[:, :k], np.add.reduce(terms, axis=2) / n)
        if grad_alpha is None:
            assert np.array_equal(sums[:, -1], np.zeros(len(pts)))
            return
        product = -grad_weight_from_logp(grad_alpha, logp) @ np.vstack([data.signed.T, np.ones(n)]).T
        assert np.array_equal(sums[:, k:-1], product[:, :-1] / n)
        assert np.array_equal(sums[:, -1], product[:, -1] / -n)

    def test_negative_loss_mean_has_no_bound(self, fig2_small, monkeypatch):
        negate_losses(monkeypatch)
        means, bounds = risk.float_means([[1.0, 1.0], [0.0, 0.0]], fig2_small, (1.0,), 1.0)
        # nonnegative terms cannot give a negative mean: no row of the point has a usable bound
        assert np.all(means[:, 0] < 0) and np.all(np.isfinite(means[:, 1:]))
        assert np.all(np.isnan(bounds))

    def test_exact_rows_never_call_one_point_of_several(self):
        calls = []

        def evaluate(pts):
            calls.append(pts.tolist())
            return pts.sum(axis=1)

        points = np.arange(8.0).reshape(4, 2)
        rows, found = risk.exact_rows(evaluate, points, [False, False, True, False])
        assert rows.tolist() == [0, 2] and calls == [[[0.0, 1.0], [4.0, 5.0]]] and found.tolist() == [1.0, 9.0]
        rows, found = risk.exact_rows(evaluate, points, [True, False, True, True])
        assert rows.tolist() == [0, 2, 3] and found.tolist() == [1.0, 9.0, 13.0]
        rows, found = risk.exact_rows(evaluate, points, np.zeros(4, dtype=bool))
        assert rows.tolist() == [] and found is None and len(calls) == 2
        rows, found = risk.exact_rows(evaluate, points[:1], [True])
        assert rows.tolist() == [0] and calls[-1] == [[0.0, 1.0]]

    def test_bound(self):
        u = 2.0 ** -53
        assert risk._approx_mean_error(np.array([0.0]), 7)[0] == 2.0 ** -1070
        assert risk._approx_mean_error(np.array([1.0]), 1)[0] == 10 * u + 2.0 ** -1070
        assert risk._approx_mean_error(np.array([0.5]), 20_000)[0] == pytest.approx(19_999 * u + 5 * u, rel=1e-9)

    def test_means_near_the_subnormals(self):
        # Order-inf losses near 1e-300 on 3 samples: the approximate means
        # underflow in the division, and the absolute part of the bound holds them.
        data = Dataset(np.array([[1.0], [0.5], [0.25]]), np.array([1, 1, 1]))
        pts = np.array([[2760.0], [2800.0], [2976.0], [2980.0]])
        approx = risk._means(pts, data, [INFINITY], exact=False)[:, :-1]
        exact = risk._means(pts, data, [INFINITY])
        assert np.all(np.abs(approx - exact) <= risk._approx_mean_error(approx, data.n))
        assert np.any((0 < exact) & (exact < np.finfo(float).tiny))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 300), st.integers(2, 7),
           st.sampled_from([None, 0.5, 2.0, 5.0]),
           st.lists(st.sampled_from([1.0, 1.0 + 1e-7, 1.5, 2.0, 4.0, INFINITY]), min_size=1, max_size=6),
           st.sampled_from([1.0, 2.0, INFINITY]), st.sampled_from([None, 2, 3, 7]))
    def test_sups_are_the_max_over_the_scan(self, seed, d, n, count, mask, alphas, reference, per_block):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, (n, d)) / math.sqrt(d)
        data = Dataset(xs, rng.choice([-1, 1], n))
        grid = GridSpec(((-5.0, 5.0, count),) * d, mask_radius=mask)
        if not len(grid.nodes()):
            with pytest.raises(UsageError, match="no grid node"):
                saturation_sups(alphas, grid, data, reference=reference)
            return
        with pytest.MonkeyPatch.context() as patch:
            if per_block is not None:
                patch.setattr(risk, "_BLOCK_ELEMENTS", per_block * 7 * n)
            sups = saturation_sups(alphas, grid, data, reference=reference)
            assert sups == exact_sups(alphas, grid, data, reference)
        for alpha, sup in zip(alphas, sups):
            assert alpha != reference or sup == 0.0

    def test_adversarial_errors_within_the_bound(self, monkeypatch):
        # Approximate means moved by the largest error the bound allows,
        # with random signs, on 201 nodes 1e-15 apart whose exact gaps
        # differ by less than that: the largest approximate gap sits at the
        # wrong node, and the bound still keeps the node of the exact max.
        rng = np.random.default_rng(18)
        data = Dataset(rng.uniform(-1.0, 1.0, (3000, 1)), rng.choice([-1, 1], 3000))
        grid = GridSpec(((5.0 - 2e-13, 5.0, 201),))
        _, risks = landscape_scans([2.0, INFINITY], grid, data)
        true_gaps = np.abs(risks[:, 0] - risks[:, 1])
        u = 2.0 ** -53
        error = 2999 * u / (1.0 - 2999 * u) + 3.0 * u
        means, approximations = risk._means, []

        def adversarial(thetas, data, alphas=(), grad_alpha=None, exact=True):
            out = means(thetas, data, alphas, grad_alpha)
            if not exact:
                out *= 1.0 + error * rng.choice([-1.0, 1.0], out.shape)
                approximations.append(out)
                out = np.column_stack([out, np.zeros(len(out))])  # no gradient rows: a zero weight column
            return out

        monkeypatch.setattr(risk, "_means", adversarial)
        for _ in range(10):
            assert saturation_sups([2.0], grid, data) == [true_gaps.max()]
        gaps = [np.abs(a[:, 0] - a[:, 1]) for a in approximations]
        assert any(true_gaps[g == g.max()].max() < true_gaps.max() for g in gaps)

    def test_one_candidate_is_padded_to_a_two_point_call(self):
        # The far corner (-3.75, -2.5) holds the largest gap alone, and a
        # one-point call rounds its margins apart from the scan's batch. The
        # exact call takes the corner's whole block of the scan: all four
        # nodes, or the corner and its neighbour in blocks of two nodes.
        data, _ = normalize_features(sample_gmm(preset("fig3"), 500, RngState(7)))
        grid = GridSpec(((-3.75, 0.0, 2), (-2.5, 0.0, 2)))
        alone = risk.risk_values_multi([1.0, INFINITY], [[-3.75, -2.5]], data)[0]
        assert abs(alone[0] - alone[1]) != exact_sups([1.0], grid, data)[0]
        for per_block, size in ((None, 4), (2, 2)):
            with pytest.MonkeyPatch.context() as patch:
                if per_block is not None:
                    patch.setattr(risk, "_BLOCK_ELEMENTS", per_block * 3 * data.n)
                calls = record_exact_calls(patch)
                sups = saturation_sups([1.0], grid, data)
                assert calls == [size]
                assert sups == exact_sups([1.0], grid, data)

    def test_exact_call_takes_whole_blocks_of_the_scan(self):
        # d = 3, n = 279: OpenBLAS rounds node 18's margins in a call of the
        # first 19 to 23 nodes apart from a call of 24 or more, so an exact
        # call of a few kept nodes could miss the scan's max in its last
        # bits. Whole blocks of the scan repeat the scan's matmul calls.
        rng = np.random.default_rng(254724)
        d, n = 3, 279
        data = Dataset(rng.uniform(-1.0, 1.0, (n, d)) / math.sqrt(d), rng.choice([-1, 1], n))
        grid = GridSpec(((-5.0, 5.0, 3),) * d)
        assert saturation_sups([1.0], grid, data, reference=2.0) == exact_sups([1.0], grid, data, 2.0)

    def test_one_node_grid(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)), mask_radius=0.5)
        assert len(grid.nodes()) == 1
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_calls(patch)
            sups = saturation_sups([1.0, 2.0, INFINITY, 2.0], grid, fig2_small)
        assert calls == [1]
        assert sups == exact_sups([1.0, 2.0, INFINITY, 2.0], grid, fig2_small)

    def test_orders_equal_to_the_reference_make_no_exact_call(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 5), (-1.0, 1.0, 5)))
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_calls(patch)
            assert saturation_sups([2.0, 2.0], grid, fig2_small, reference=2.0) == [0.0, 0.0]
        assert calls == []

    def test_few_fig3_nodes_reach_the_exact_call(self):
        raw = sample_gmm(preset("fig3"), 2000, RngState(42))
        data, _ = normalize_features(raw)
        grid = GridSpec(((-5.0, 5.0, 41), (-5.0, 5.0, 41)), mask_radius=5.0)
        alphas = [1.0, 2.0, 4.0, 10.0, INFINITY]
        nodes = grid.nodes()
        # Two of the 1,257 nodes may hold a largest gap; the rest are ruled
        # out, and only the scan's blocks of those two reach the exact call.
        means, errors = risk.float_means(nodes, data, alphas)
        gaps, bounds = np.abs(means[:, :-1] - means[:, -1:]), errors[:, :-1] + errors[:, -1:]
        candidates = np.flatnonzero(np.any(risk.may_hold_max(gaps - bounds, gaps + bounds), axis=1))
        blocks = [sl for sl in risk._blocks(len(nodes), (1 + len(alphas)) * data.n)
                  if np.any((sl.start <= candidates) & (candidates < sl.stop))]
        seen, original = [], risk.risk_values_multi
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "risk_values_multi", lambda orders, thetas, data: (
                seen.append(thetas) or original(orders, thetas, data)))
            sups = saturation_sups(alphas, grid, data)
        assert len(nodes) == 1257 and len(candidates) == 2 and len(seen) == 1
        assert np.array_equal(seen[0], np.concatenate([nodes[sl] for sl in blocks])) and len(seen[0]) <= 32
        assert sups == exact_sups(alphas, grid, data)

    def test_non_finite_mean_falls_back_to_the_scan_error(self):
        data = Dataset(np.array([[0.6, 0.8]]), np.array([1]))
        grid = GridSpec(((-1.7e308, -1.6e308, 2), (-1.7e308, -1.6e308, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as scan:
                landscape_scans([2.0, 1.0, INFINITY], grid, data)
            with pytest.raises(NumericError) as sup:
                saturation_sups([2.0, 1.0], grid, data)
        assert str(sup.value) == str(scan.value)

    @pytest.mark.parametrize("alphas, reference", [([1.0, 1.0000001], 1.0), ([1.0, 1.0], 1.0)])
    def test_scan_errors_name_the_orders_in_the_scan_sequence(self, alphas, reference):
        # The scan names the orders in dict.fromkeys([*alphas, reference])
        # order, here "1.0, 1.0000001" (not the reference last); with no
        # order but the reference, the nodes still reach the scan's check.
        data = Dataset(np.array([[0.6, 0.8]]), np.array([1]))
        grid = GridSpec(((-1.7e308, -1.6e308, 2), (-1.7e308, -1.6e308, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as scan:
                landscape_scans([*alphas, reference], grid, data)
            with pytest.raises(NumericError) as sup:
                saturation_sups(alphas, grid, data, reference=reference)
        assert str(sup.value) == str(scan.value)
        assert len(set(alphas)) == 1 or str(scan.value).endswith("order(s) 1.0, 1.0000001")

    def test_negative_mean_falls_back_to_the_scan_error(self, fig2_small, monkeypatch):
        # Negated loss rows: every mean is negative, so the filter cannot
        # bound its terms, and every node goes to the exact pass.
        negate_losses(monkeypatch)
        calls = record_exact_calls(monkeypatch)
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="nonnegative"):
                saturation_sups([1.0, 2.0], grid, fig2_small)
        assert calls == [9]

    def test_bound_past_the_float_range_falls_back_to_the_scan(self, monkeypatch):
        # The order-1 loss at the margin -1.8e308 is the largest float: its
        # mean is finite, its bound is not, and the exact pass gives the sup.
        data = Dataset(np.array([[1.0]]), np.array([1]))
        grid = GridSpec(((-1.7976931348623157e308, -1.7e308, 2),))
        calls = record_exact_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sups = saturation_sups([1.0, 2.0], grid, data)
        assert calls == [2]
        assert sups == exact_sups([1.0, 2.0], grid, data)
        assert sups[0] == 1.7976931348623157e308 - 1.0
