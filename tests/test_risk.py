import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss import risk
from alphaloss.data import normalize_features, preset, sample_gmm
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.loss import (
    INFINITY,
    Sample,
    curvature_floor,
    grad_lipschitz_in_inv_alpha,
    lipschitz_in_inv_alpha,
    loss_grad,
    loss_hess,
    loss_margin,
)
from alphaloss.numerics import RngState, min_eigen_sym, sigmoid
from alphaloss.risk import (
    Dataset,
    GridSpec,
    empirical_risk,
    empirical_risk_grad,
    empirical_risk_hess,
    exact_row_sums,
    landscape_scan,
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

    def test_from_samples_and_iteration(self):
        data = Dataset.from_samples([Sample([0.1, 0.2], 1), Sample([0.3, 0.0], -1)])
        assert data.n == 2 and data.dim == 2
        assert [s.y for s in data.samples()] == [1, -1]

    def test_from_samples_dim_mismatch(self):
        with pytest.raises(UsageError):
            Dataset.from_samples([Sample([0.1], 1), Sample([0.1, 0.2], 1)])

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
        losses = risk._terms(risk._logp(np.array([[1e308, 0.0]]), data), data, (1.0,))[0].tolist()
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
                oracle_loss(alpha, theta, s) for s in fig2_small.samples()
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

    def test_one_sample_dataset_matches_pointwise_functions(self):
        # The one-row wrappers run the kernel's margin and log p maps, so
        # value and gradient agree bit for bit. The Hessian rounds
        # (w x_j) x_k in the kernel but w (x_j x_k) in loss_hess.
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
            s, data = Sample(x, y), Dataset(x[None, :], np.array([y]))
            value, grad = value_and_grad(alpha, data)(theta)
            kernel = np.array([value, *grad])
            pointwise = np.array([loss_margin(alpha, theta, s), *loss_grad(alpha, theta, s)])
            assert kernel.tobytes() == pointwise.tobytes()
            np.testing.assert_allclose(
                empirical_risk_hess(alpha, theta, data), loss_hess(alpha, theta, s), rtol=1e-14, atol=0.0
            )

    def test_value_and_grad_oracle_consistent(self, fig2_small):
        oracle = value_and_grad(2.0, fig2_small)
        theta = np.array([0.5, -1.0])
        value, grad = oracle(theta)
        assert value == empirical_risk(2.0, theta, fig2_small)
        assert np.array_equal(grad, empirical_risk_grad(2.0, theta, fig2_small))
        v2, g2 = risk_values_grads(2.0, theta, fig2_small)
        assert v2[0] == value and np.array_equal(g2[0], grad)


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


class TestLandscape:
    def test_center_row_is_log2(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        table = landscape_scan(1.0, grid, fig2_small)
        center = np.where((table.thetas == 0).all(axis=1))[0]
        assert center.size == 1
        assert table.risks[center[0]] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_deterministic_bytes(self, fig2_small):
        grid = GridSpec(((-2.0, 2.0, 7), (-2.0, 2.0, 7)), mask_radius=2.0)
        a = landscape_scan(1.5, grid, fig2_small).to_csv()
        b = landscape_scan(1.5, grid, fig2_small).to_csv()
        assert a == b

    def test_larger_alpha_flattens_the_surface(self, fig2_small):
        grid = GridSpec(((-5.0, 5.0, 11), (-5.0, 5.0, 11)), mask_radius=5.0)
        high = landscape_scan(10.0, grid, fig2_small)
        low = landscape_scan(1.0, grid, fig2_small)
        assert high.risks.max() < low.risks.max()

    def test_csv_shape_and_metadata(self, fig2_small):
        grid = GridSpec(((-1.0, 1.0, 3), (-1.0, 1.0, 3)))
        table = landscape_scan(INFINITY, grid, fig2_small, metadata={"seed": 42})
        text = table.to_csv()
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        assert any("alpha = inf" in c for c in comments)
        assert any("seed = 42" in c for c in comments)
        header = [l for l in lines if l.startswith("theta_1")][0]
        assert header == "theta_1,theta_2,risk"
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 9

    def test_grid_dim_mismatch(self, fig2_small):
        with pytest.raises(UsageError):
            landscape_scan(1.0, GridSpec(((-1.0, 1.0, 3),)), fig2_small)

    def test_scans_equal_per_order_scans_bit_for_bit(self, fig2_small, monkeypatch):
        # Small blocks, so the shared pass is cut into many row blocks.
        monkeypatch.setattr(risk, "_BLOCK_ELEMENTS", 7 * fig2_small.n)
        grid = GridSpec(((-3.0, 3.0, 9), (-3.0, 3.0, 9)), mask_radius=3.0)
        alphas = [0.5, 1.0, 2.0, INFINITY, 2.0, 10.0, INFINITY]
        tables = landscape_scans(alphas, grid, fig2_small, metadata={"seed": 42, "dataset": "x"})
        assert len(tables) == len(alphas)
        for alpha, table in zip(alphas, tables):
            single = landscape_scan(alpha, grid, fig2_small, metadata={"seed": 42, "dataset": "x"})
            assert table.to_csv() == single.to_csv()
            assert list(table.metadata) == ["alpha", "r", "dataset", "seed"]
            oracle = risk_values(alpha, grid.nodes(), fig2_small)
            assert np.array_equal(table.risks, oracle)

    def test_grid_without_nodes_is_usage_error(self, fig2_small):
        grid = GridSpec(((4.0, 5.0, 2), (4.0, 5.0, 2)), mask_radius=5.0)
        with pytest.raises(UsageError, match="no grid node"):
            landscape_scans([1.0], grid, fig2_small)
        with pytest.raises(UsageError, match="no grid node"):
            saturation_sups([1.0], grid, fig2_small)

    def test_non_finite_risk_is_numeric_error(self, fig2_small):
        # p^(1 - 1/alpha) overflows for tiny alpha although 1/alpha is finite.
        grid = GridSpec(((-5.0, 5.0, 3), (-5.0, 5.0, 3)))
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
        with pytest.raises(NumericError, match="1.0"):
            saturation_sups([1.0, 2.0], grid, data)
