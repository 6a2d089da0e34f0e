import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss import numerics
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.numerics import (
    RngState,
    as_sym_matrix,
    cholesky,
    csv_text,
    log_sigmoid,
    min_eigen_sym,
    project_ball,
    row_norms,
    sample_ball,
    sample_ball_batch,
    sigmoid,
    vector_norm,
)

# High-precision scalar references (mpmath, 40 digits).
SIGMOID_5 = 0.9933071490757151444406380196186748196063
LOG_SIGMOID_M5 = -5.006715348489118068616416687732642075115
LOG_SIGMOID_50 = -1.9287498479639177829110764667895098992e-22


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_value_at_5(self):
        assert sigmoid(5.0) == pytest.approx(SIGMOID_5, rel=1e-14)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(7)
        zs = np.concatenate([rng.uniform(-40, 40, 9000), rng.uniform(-700, 700, 1000)])
        for z in zs:
            assert abs(sigmoid(z) + sigmoid(-z) - 1.0) <= 1e-15

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for z in rng.uniform(-4, 4, 2000):
            fd = (sigmoid(z + h) - sigmoid(z - h)) / (2 * h)
            exact = sigmoid(z) * (1.0 - sigmoid(z))
            assert abs(fd - exact) / exact < 1e-8

    def test_no_overflow_extremes(self):
        assert sigmoid(709.0) == pytest.approx(1.0)
        assert sigmoid(-745.0) >= 0.0

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sigmoid(bad)


class TestLogSigmoid:
    def test_at_zero(self):
        assert log_sigmoid(0.0) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_at_minus_5(self):
        assert log_sigmoid(-5.0) == pytest.approx(LOG_SIGMOID_M5, rel=1e-14)

    def test_at_50_tiny_but_negative(self):
        v = log_sigmoid(50.0)
        assert v < 0.0
        assert v == pytest.approx(LOG_SIGMOID_50, rel=1e-12)

    def test_no_underflow_to_neg_inf(self):
        assert math.isfinite(log_sigmoid(700.0))
        assert log_sigmoid(700.0) < 0.0

    def test_exp_recovers_sigmoid(self):
        rng = np.random.default_rng(3)
        for z in rng.uniform(-30, 30, 3000):
            assert math.exp(log_sigmoid(z)) == pytest.approx(sigmoid(z), rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            log_sigmoid(math.nan)


class TestProjectBall:
    def test_scaling(self):
        out = project_ball([3.0, 4.0], 1.0)
        assert out == pytest.approx([0.6, 0.8], rel=1e-15)

    def test_interior_fixed_point(self):
        out = project_ball([0.1, 0.0], 1.0)
        assert np.array_equal(out, [0.1, 0.0])

    def test_origin(self):
        assert np.array_equal(project_ball([0.0, 0.0], 5.0), [0.0, 0.0])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_idempotent_exactly(self, entries, r):
        v = np.array(entries)
        once = project_ball(v, r)
        twice = project_ball(once, r)
        assert np.array_equal(once, twice)

    def test_output_norm_within_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(size=3) * 100
            r = float(rng.uniform(0.1, 10))
            assert float(np.linalg.norm(project_ball(v, r))) <= r + 1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            project_ball([1.0], 0.0)

    def test_overflowing_norm_lands_on_sphere_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_ball([3e154, 4e154], 5.0)
        assert out == pytest.approx([3.0, 4.0], rel=1e-15)
        assert float(np.linalg.norm(out)) == pytest.approx(5.0, rel=4e-15)
        assert np.array_equal(project_ball(out, 5.0), out)

    def test_large_finite_norm_keeps_the_plain_rescale(self):
        v = np.array([1e154, -3e153])
        assert np.array_equal(project_ball(v, 2.0), v * (2.0 / float(np.linalg.norm(v))))


def exact_norm(row) -> float:
    """The Euclidean norm of ``row``, rounded from an exact sum of squares
    (fractions) and an integer square root carried to 80 extra bits."""
    total = sum(Fraction(float(v)) ** 2 for v in row)
    return float(Fraction(math.isqrt(total.numerator * 4 ** 80 // total.denominator), 2 ** 80))


class TestNorms:
    @given(st.lists(st.lists(st.floats(-1e160, 1e160), min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_numpy_where_it_is_finite(self, rows):
        a = np.array(rows)
        with np.errstate(over="ignore"):
            want = np.linalg.norm(a, axis=1)
            finite = np.isfinite(want)
            assert row_norms(a)[finite].tobytes() == want[finite].tobytes()
            for row in a:
                want = float(np.linalg.norm(row))
                assert vector_norm(row) == want or math.isinf(want)

    @given(st.lists(st.floats(1.4e154, 1e307), min_size=1, max_size=4), st.lists(st.floats(-1e300, 1e300), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_overflowing_squares_keep_a_finite_norm(self, big, rest):
        # Every norm drawn here lies below 2e307.
        row = np.array([*big, *rest])
        with np.errstate(over="ignore"):
            assert math.isinf(float(np.linalg.norm(row)))
            got = vector_norm(row)
        assert got == pytest.approx(exact_norm(row), rel=1e-15)
        assert row_norms(np.stack([row, np.ones(len(row))]))[0] == got

    def test_norm_past_the_float_range_is_inf(self):
        with np.errstate(over="ignore"):
            assert vector_norm([1.5e308, 1.5e308]) == math.inf


class TestCsvText:
    def test_layout_and_cell_kinds(self):
        rows = [(1, 0.1, None, True, "x"), (np.int64(2), np.float64(math.inf), -0.0, False, "1.0")]
        text = csv_text(["a", "b", "c", "d", "e"], rows, ["k = v"])
        assert text == "# k = v\na,b,c,d,e\n1,0.10000000000000001,,true,x\n2,inf,-0,false,1.0\n"

    def test_no_rows_is_the_header_line(self):
        assert csv_text(["alpha", "epsilon"], []) == "alpha,epsilon\n"

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_float_cells_parse_back_to_the_same_bits(self, values):
        values += [5e-324, -0.0, math.inf, -math.inf]
        for row in (values, [np.float64(v) for v in values]):
            cells = csv_text(["v"] * len(row), [row]).splitlines()[1].split(",")
            assert np.array([float(c) for c in cells]).tobytes() == np.array(values).tobytes()


class TestMinEigenSym:
    def test_diagonal(self):
        assert min_eigen_sym([[2.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        assert min_eigen_sym([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-10)

    def test_anisotropic_quadratic_formula_oracle(self):
        # 2x2 oracle: (tr - sqrt(tr^2 - 4 det)) / 2
        a, b, c = 0.38, 0.25, 3.17
        tr, det = a + c, a * c - b * b
        oracle = (tr - math.sqrt(tr * tr - 4 * det)) / 2.0
        assert min_eigen_sym([[a, b], [b, c]]) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.3577755999842509, rel=1e-12)

    def test_rayleigh_quotient_upper_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = rng.normal(size=(d, d))
            sym = 0.5 * (m + m.T)
            lam = min_eigen_sym(sym)
            for _ in range(100):
                v = rng.normal(size=d)
                v /= np.linalg.norm(v)
                assert lam <= float(v @ sym @ v) + 1e-9

    def test_one_by_one(self):
        assert min_eigen_sym([[3.5]]) == 3.5

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            min_eigen_sym([[1.0, 2.0], [0.0, 1.0]])


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        out = cholesky([[4.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(out, [[2.0, 0.0], [1.0, 2.0]])

    def test_reconstruction_residual(self):
        cov = np.array([[3.0, 0.2], [0.2, 1.5]])
        low = cholesky(cov)
        assert float(np.max(np.abs(low @ low.T - cov))) < 1e-10

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            m = rng.normal(size=(d, d))
            spd = m @ m.T + d * np.eye(d)
            low = cholesky(spd)
            assert float(np.max(np.abs(low @ low.T - spd))) < 1e-10
            assert np.array_equal(low, np.tril(low))

    def test_non_pd_names_failing_minor(self):
        with pytest.raises(DomainError, match="order 2"):
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DomainError, match="order 1"):
            cholesky([[0.0, 0.0], [0.0, 1.0]])


class TestRngState:
    def test_raw_stream_deterministic(self):
        a = RngState(42)
        b = RngState(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_first_gaussian_pair_reproducible(self):
        assert RngState(42).gaussian_pair() == RngState(42).gaussian_pair()

    def test_different_seeds_differ(self):
        assert RngState(1).next_u64() != RngState(2).next_u64()

    def test_uniform_range_and_mean(self):
        rng = RngState(9)
        draws = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.02

    def test_gaussian_moments(self):
        rng = RngState(2024)
        values = []
        for _ in range(50_000):
            g1, g2 = rng.gaussian_pair()
            values.append(g1)
            values.append(g2)
        arr = np.array(values)
        assert abs(float(arr.mean())) < 0.02
        assert abs(float(arr.var()) - 1.0) < 0.03

    def test_spawn_streams_independent_and_reproducible(self):
        root = RngState(7)
        c0, c1 = root.spawn(0), root.spawn(1)
        assert c0.next_u64() != c1.next_u64()
        again = RngState(7).spawn(0)
        assert RngState(7).spawn(0).seed == c0.seed
        assert again.next_u64() == RngState(7).spawn(0).next_u64()

    def test_spawn_rejects_negative_index(self):
        with pytest.raises(UsageError):
            RngState(1).spawn(-1)


class TestSampleBall:
    def test_inside_and_deterministic(self):
        rng = RngState(5)
        pts = [sample_ball(rng, 3, 2.5) for _ in range(200)]
        assert all(float(np.linalg.norm(p)) <= 2.5 for p in pts)
        rng2 = RngState(5)
        pts2 = [sample_ball(rng2, 3, 2.5) for _ in range(200)]
        assert all(np.array_equal(a, b) for a, b in zip(pts, pts2))

    @pytest.mark.parametrize("radius", [5.0, 0.5, 3.3, 1e-3, 7.77e150])
    def test_scaled_test_decides_as_the_unscaled_one(self, radius):
        # where squaring the radius stays finite, the points are those of
        # the plain test ||p||^2 <= r^2 on the same stream
        rng, oracle = RngState(23), RngState(23)
        for _ in range(500):
            while True:
                point = np.array([(2.0 * oracle.uniform() - 1.0) * radius for _ in range(3)])
                if float(np.dot(point, point)) <= radius * radius:
                    break
            assert np.array_equal(sample_ball(rng, 3, radius), point)

    @pytest.mark.parametrize("radius", [1e300, 1.7976931348623157e308, 1e-300, 1e-309, 5e-324])
    def test_inside_the_ball_where_squares_overflow_or_underflow(self, radius):
        rng = RngState(9)
        points = np.array([sample_ball(rng, 3, radius) for _ in range(500)])
        assert np.all(np.linalg.norm(points / radius, axis=1) <= 1.0 + 1e-15)

    def test_bad_inputs(self):
        for sample in (sample_ball, lambda rng, dim, radius: sample_ball_batch(rng, dim, radius, 3)):
            with pytest.raises(UsageError):
                sample(RngState(1), 0, 1.0)
            with pytest.raises(DomainError):
                sample(RngState(1), 2, -1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([1e-300, 0.5, 5.0, 1e308]),
           st.one_of(st.integers(1, 40), st.integers(1, 5000)), st.integers(0, 2**64 - 1),
           st.sampled_from([None, 0, 1, 2, 9]))
    def test_batch_is_the_scalar_loop(self, dim, radius, count, seed, index):
        # The batch holds the points of ``count`` sample_ball calls, bit for
        # bit, and leaves the stream where those calls leave it.
        self.check_batch(dim, radius, count, seed, index)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([1e-300, 0.5, 5.0, 1e308]), st.integers(1, 60), st.integers(0, 2**64 - 1),
           st.sampled_from([None, 0, 3]))
    def test_eight_dimensional_batch_is_the_scalar_loop(self, radius, count, seed, index):
        # At d = 8 about 1 attempt in 60 lands in the ball, so the counts are
        # small; past about d = 30 the sampler accepts almost nothing, and
        # test_vecdot_has_the_bits_of_dot covers the longer rows.
        self.check_batch(8, radius, count, seed, index)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 300), st.integers(1, 9), st.integers(0, 2**64 - 1))
    def test_capped_rounds_are_the_scalar_loop(self, dim, count, per_round, seed):
        # Rounds of at most per_round attempts keep the points and the stream.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_BALL_ROUND", per_round)
            self.check_batch(dim, 5.0, count, seed, None)

    @pytest.mark.parametrize("count", [10**20, 10**15])
    def test_count_that_cannot_be_allocated_is_usage_error(self, count):
        # The result is made first: no uniform is drawn.
        rng = RngState(4)
        with pytest.raises(UsageError, match=f"{count} ball points of dimension 2 cannot be allocated"):
            sample_ball_batch(rng, 2, 1.0, count)
        assert rng.next_u64() == RngState(4).next_u64()

    @staticmethod
    def check_batch(dim, radius, count, seed, index):
        rng, oracle = RngState(seed), RngState(seed)
        if index is not None:
            rng, oracle = rng.spawn(index), oracle.spawn(index)
        points = sample_ball_batch(rng, dim, radius, count)
        assert np.array_equal(points, np.array([sample_ball(oracle, dim, radius) for _ in range(count)]))
        assert rng._s == oracle._s and rng.next_u64() == oracle.next_u64()

    def test_empty_batch_draws_nothing(self):
        rng = RngState(4)
        assert sample_ball_batch(rng, 3, 1.0, 0).shape == (0, 3)
        assert rng.next_u64() == RngState(4).next_u64()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 64, 1000])
    def test_vecdot_has_the_bits_of_dot(self, dim):
        # The batch's membership test: np.vecdot over rows, np.dot per point,
        # also on rows long enough for a BLAS dot to sum in SIMD lanes.
        rng = np.random.default_rng(dim)
        count = min(20_000, 2_000_000 // dim)
        rows = rng.uniform(-1.0, 1.0, (count, dim))
        rows /= np.linalg.norm(rows, axis=1)[:, None] * rng.uniform(0.999999, 1.000001, (count, 1))
        assert np.vecdot(rows, rows).tobytes() == np.array([np.dot(r, r) for r in rows]).tobytes()


def test_as_sym_matrix_tolerance():
    as_sym_matrix([[1.0, 1.0 + 5e-13], [1.0, 2.0]])
    with pytest.raises(DomainError, match="1e-12"):
        as_sym_matrix([[1.0, 1.1], [1.0, 2.0]])


def test_eigensolver_failure_is_reported(monkeypatch):
    # LAPACK does not fail on a finite symmetric input, so drive the error
    # path with a solver that raises the way numpy reports non-convergence.
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        min_eigen_sym([[2.0, 1.0], [1.0, 2.0]])
