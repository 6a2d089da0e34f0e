import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.loss import (
    INFINITY,
    LOG_BRANCH_TOL,
    alpha_loss,
    check_alpha,
    check_in_ball,
    curvature_floor,
    format_alpha,
    grad_lipschitz_in_inv_alpha,
    grad_weight_from_logp,
    hess_factor_from_logp,
    is_log_order,
    lipschitz_in_inv_alpha,
    lipschitz_in_theta,
    loss_from_logp,
    parse_alpha,
)
from alphaloss.numerics import log_sigmoid_vec, sigmoid, vector_norm
from alphaloss.risk import Dataset, empirical_risk_hess, value_and_grad

from conftest import fd_grad, fd_jacobian, oracle_grad_factor, oracle_hess_factor, oracle_loss, rel_err

ALPHA_SWEEP = (0.5, 0.77, 1.0, 1.3, 2.0, 10.0, INFINITY)

# mpmath references
LN2 = 0.6931471805599453094172321214581765680755
SOFTPLUS_M5 = 0.006715348489118068616416687732642075115
SIGMOID_5 = 0.9933071490757151444406380196186748196063
L_5 = 16.20596240975882725941971187045421532624
J_5 = 5.655043795190444959991061048811069792546
E_5 = 148.4131591025766034211155800405522796235


class TestAlphaValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            check_alpha(bad)

    def test_accepts_inf(self):
        assert math.isinf(check_alpha(INFINITY))

    @pytest.mark.parametrize("tiny", [5e-309, 1e-310, 5e-324])
    def test_rejects_orders_whose_reciprocal_overflows(self, tiny):
        # 1 - 1/alpha would be -inf, and -inf * 0 a NaN loss
        with pytest.raises(DomainError, match="1/alpha"):
            check_alpha(tiny)
        with pytest.raises(DomainError):
            parse_alpha(repr(tiny))

    def test_accepts_smallest_orders_with_finite_reciprocal(self):
        assert check_alpha(1e-308) == 1e-308
        assert check_alpha(5.6e-309) == 5.6e-309

    def test_parse(self):
        assert parse_alpha("inf") == INFINITY
        assert parse_alpha("1.001") == 1.001
        with pytest.raises(DomainError):
            parse_alpha("0")
        with pytest.raises(DomainError):
            parse_alpha("banana")

    def test_format_round_trip(self):
        for a in (0.5, 1.0, 1.001, INFINITY):
            assert parse_alpha(format_alpha(a)) == a


class TestLogOrder:
    def test_band_about_one(self):
        # |1 - 1/alpha| < 1e-6 takes the exact log-loss limit; inf never does
        for alpha in (1.0, 1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 9.9e-7):
            assert is_log_order(alpha)
            assert alpha_loss(alpha, 0.3) == -math.log(0.3)
        for alpha in (1.0 + 1.1e-6, 0.5, 1.7, INFINITY):
            assert not is_log_order(alpha)
        with pytest.raises(DomainError):
            is_log_order(0.0)


class TestAlphaLoss:
    def test_log_loss_at_half(self):
        assert alpha_loss(1.0, 0.5) == pytest.approx(LN2, rel=1e-15)

    def test_soft_01_at_half(self):
        assert alpha_loss(INFINITY, 0.5) == 0.5

    def test_exponential_at_half(self):
        # order 1/2 is 1/p - 1
        assert alpha_loss(0.5, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert alpha_loss(0.5, 0.25) == pytest.approx(3.0, rel=1e-14)

    def test_order_two_at_half(self):
        assert alpha_loss(2.0, 0.5) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)

    def test_zero_at_certain_p(self):
        for a in ALPHA_SWEEP:
            assert alpha_loss(a, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-9])
    def test_rejects_p_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            alpha_loss(1.0, bad)

    def test_overflow_is_numeric_error_naming_it(self):
        # 0.2^(1 - 2000) is about e^3217
        with pytest.raises(NumericError, match=r"alpha-loss overflows at alpha 0\.0005, p 0\.2"):
            alpha_loss(0.0005, 0.2)

    def test_continuity_at_log_branch(self):
        for p in (0.1, 0.5, 0.9):
            base = alpha_loss(1.0, p)
            assert abs(alpha_loss(1.0 + 1e-7, p) - base) < 1e-6
            assert abs(alpha_loss(1.0 - 1e-7, p) - base) < 1e-6

    def test_continuity_at_infinite_branch(self):
        for p in (0.1, 0.5, 0.9):
            assert abs(alpha_loss(1e9, p) - alpha_loss(INFINITY, p)) < 1e-6

    def test_nonincreasing_in_alpha(self):
        grid = (0.5, 1.0, 2.0, 4.0, 10.0, INFINITY)
        for p in (0.05, 0.3, 0.72, 0.99):
            values = [alpha_loss(a, p) for a in grid]
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_convex_in_margin_for_alpha_below_one(self):
        zs = np.linspace(-8, 8, 401)
        for a in (0.3, 0.5, 0.9, 1.0):
            vals = np.array([alpha_loss(a, sigmoid(z)) for z in zs])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second >= -1e-12)

    def test_monotone_decreasing_in_margin_for_alpha_above_one(self):
        zs = np.linspace(-8, 8, 401)
        for a in (1.3, 2.0, 10.0, INFINITY):
            vals = np.array([alpha_loss(a, sigmoid(z)) for z in zs])
            assert np.all(np.diff(vals) <= 0.0)


def _random_case(rng, dim=3):
    x = rng.normal(size=dim)
    norm = np.linalg.norm(x)
    if norm > 1.0:
        x = x / (norm * (1 + rng.uniform(0, 0.5)))
    theta = rng.normal(size=dim)
    theta = theta / np.linalg.norm(theta) * rng.uniform(0, 5)
    y = 1 if rng.uniform() < 0.5 else -1
    return theta, x, y


def one_row(x, y):
    """One labeled sample as a one-row Dataset."""
    return Dataset(np.array([x], dtype=float), [y])


def loss_and_grad(alpha, theta, x, y):
    """Loss and gradient in theta at one labeled sample."""
    return value_and_grad(alpha, one_row(x, y))(theta)


class TestMarginLoss:
    def test_zero_parameter_gives_log2(self):
        assert loss_and_grad(1.0, np.zeros(2), [0.3, -0.4], -1)[0] == pytest.approx(LN2, rel=1e-15)

    def test_large_positive_margin(self):
        assert loss_and_grad(1.0, [5.0, 0.0], [1.0, 0.0], 1)[0] == pytest.approx(SOFTPLUS_M5, rel=1e-12)

    def test_large_negative_margin_soft01(self):
        assert loss_and_grad(INFINITY, [5.0, 0.0], [1.0, 0.0], -1)[0] == pytest.approx(SIGMOID_5, rel=1e-12)

    def test_deep_negative_margin_no_overflow(self):
        v = loss_and_grad(0.5, [-600.0], [1.0], 1)[0]  # ~ e^600, huge but finite
        assert math.isfinite(v) and v > 1e200

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            loss_and_grad(1.0, [1.0, 2.0, 3.0], [1.0, 0.0], 1)


class TestGradient:
    # With x = e_1 the gradient's first entry is the factor -y p^(1-1/alpha) (1-p).
    def test_symmetry_point_log_loss(self):
        # exponent 1 - 1/alpha vanishes at alpha = 1: factor is -y (1-p)
        assert loss_and_grad(1.0, np.zeros(2), [1.0, 0.0], 1)[1][0] == -0.5
        assert loss_and_grad(1.0, np.zeros(2), [1.0, 0.0], -1)[1][0] == 0.5

    def test_symmetry_point_alpha2(self):
        g = loss_and_grad(2.0, np.zeros(2), [1.0, 0.0], 1)[1]
        assert g[0] == pytest.approx(-math.sqrt(0.5) * 0.5, rel=1e-14)

    def test_symmetry_point_soft01(self):
        assert loss_and_grad(INFINITY, np.zeros(2), [1.0, 0.0], 1)[1][0] == pytest.approx(-0.25, rel=1e-14)

    def test_gradient_vector_shape_and_direction(self):
        g = loss_and_grad(1.0, np.zeros(2), [1.0, 0.0], 1)[1]
        assert g == pytest.approx([-0.5, 0.0])

    def test_zero_feature_gives_zero_gradient(self):
        assert np.array_equal(loss_and_grad(2.0, [1.0, 2.0], [0.0, 0.0], 1)[1], np.zeros(2))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(101)
        for i in range(200):
            alpha = ALPHA_SWEEP[i % len(ALPHA_SWEEP)]
            theta, x, y = _random_case(rng)
            oracle = value_and_grad(alpha, one_row(x, y))
            exact = oracle(theta)[1]
            approx = fd_grad(lambda t: oracle(t)[0], theta)
            assert rel_err(exact, approx, floor=1e-10) < 1e-6


class TestHessian:
    # With x = e_1 the Hessian's top-left entry is the factor.
    def test_symmetry_point_log_loss(self):
        h = empirical_risk_hess(1.0, np.zeros(2), one_row([1.0, 0.0], 1))
        assert h[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_symmetry_point_alpha2(self):
        h = empirical_risk_hess(2.0, np.zeros(2), one_row([1.0, 0.0], 1))
        assert h[0, 0] == pytest.approx(math.sqrt(2.0) / 16.0, rel=1e-14)

    def test_rank_one_structure(self):
        h = empirical_risk_hess(2.0, [0.3, -0.2], one_row([0.6, 0.8], -1))
        assert np.array_equal(h, h.T)
        assert np.linalg.matrix_rank(h) <= 1

    def test_zero_feature_gives_zero_hessian(self):
        assert np.array_equal(empirical_risk_hess(0.5, [1.0, 1.0], one_row([0.0, 0.0], -1)), np.zeros((2, 2)))

    def test_matches_finite_difference_of_gradient(self):
        rng = np.random.default_rng(202)
        for i in range(200):
            alpha = ALPHA_SWEEP[i % len(ALPHA_SWEEP)]
            theta, x, y = _random_case(rng)
            data = one_row(x, y)
            exact = empirical_risk_hess(alpha, theta, data)
            approx = fd_jacobian(lambda t: value_and_grad(alpha, data)(t)[1], theta)
            assert rel_err(exact, 0.5 * (approx + approx.T), floor=1e-10) < 1e-5

    def test_factor_floor_over_margin_sweep(self):
        # the curvature floor bounds the factor over all margins in [-r, r]
        for r in (1.0, 5.0):
            zs = np.linspace(-r, r, 5001)
            for a in (0.1, 0.25, 0.5, 0.77, 1.0):
                floor = curvature_floor(a, r)
                assert np.all(hess_factor_from_logp(a, log_sigmoid_vec(zs)) >= floor - 1e-12)


class TestMapsAtTheMargin:
    """The log p maps at one sample's margin y <theta, x> agree with the
    scalar sigmoid-based oracles."""

    def test_match_scalar_oracles(self):
        rng = np.random.default_rng(303)
        orders = ALPHA_SWEEP + (0.1, 1.0 + 1e-7)
        for i in range(700):
            alpha = orders[i % len(orders)]
            theta, x, y = _random_case(rng)
            logp = log_sigmoid_vec(theta @ (x * y))
            assert loss_from_logp(alpha, logp) == pytest.approx(oracle_loss(alpha, theta, x, y), rel=1e-13)
            grad_factor = -y * grad_weight_from_logp(alpha, logp)
            assert grad_factor == pytest.approx(oracle_grad_factor(alpha, theta, x, y), rel=1e-13)
            # the factor crosses zero for alpha > 1, so its error is
            # measured against max(1, |factor|)
            oracle = oracle_hess_factor(alpha, theta, x, y)
            assert abs(hess_factor_from_logp(alpha, logp) - oracle) <= 1e-13 * max(1.0, abs(oracle))


# The out-of-place forms of the maps, as they were before they took
# ``out``: the oracles of their in-place bodies.
def old_log_sigmoid_vec(z):
    z = np.asarray(z, dtype=float)
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def old_loss_from_logp(alpha, logp):
    logp = np.asarray(logp, dtype=float)
    if math.isinf(alpha):
        return -np.expm1(logp)
    u = 1.0 - 1.0 / alpha
    if abs(u) < LOG_BRANCH_TOL:
        return -logp
    return -np.expm1(u * logp) / u


def old_grad_weight_from_logp(alpha, logp):
    u = 1.0 - 1.0 / alpha
    logp = np.asarray(logp, dtype=float)
    return np.exp(u * logp) * (-np.expm1(logp))


MAP_ORDERS = (0.5, 1.0, 1.0 + 1e-7, 2.0, 10.0, INFINITY)
# No buffers; fresh ones; ``out`` aliasing the input; ``out`` a view whose
# rows lie apart, as the terms block's rows of one order do.
OUT_MODES = ("none", "fresh", "alias", "rows apart")


def map_inputs(lo, hi):
    """A Python float, a 0-d array, or an array of 1 or 2 dims."""
    elements = st.floats(lo, hi)
    shapes = st.one_of(st.just(()), st.tuples(st.integers(0, 300)),
                       st.tuples(st.integers(1, 4), st.integers(0, 80)))
    return st.one_of(elements, hnp.arrays(np.float64, shapes, elements=elements))


def in_place(fn, x, mode):
    """``fn(x, out, tmp)`` with the buffers of ``mode``; a returned buffer must be ``out``."""
    if mode == "none":
        return fn(x, None, None)
    x = np.array(x, dtype=float)  # a copy: "alias" overwrites it
    if mode == "alias":
        out = x
    elif mode == "rows apart" and x.ndim:
        out = np.empty((*x.shape[:-1], 3, x.shape[-1]))[..., 1, :]
    else:
        out = np.empty_like(x)
    result = fn(x, out, np.empty_like(x))
    assert result is out
    return result


class TestInPlaceMaps:
    """The maps keep the bits of their out-of-place forms with or without
    buffers, on scalars, 0-d arrays and arrays, and with ``out`` aliasing
    the input."""

    @settings(max_examples=300, deadline=None)
    @given(map_inputs(-800.0, 800.0), st.sampled_from(OUT_MODES))
    def test_log_sigmoid_vec(self, z, mode):
        want = old_log_sigmoid_vec(z).tobytes()
        assert in_place(lambda x, out, tmp: log_sigmoid_vec(x, out=out, tmp=tmp), z, mode).tobytes() == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MAP_ORDERS), map_inputs(-800.0, 0.0), st.sampled_from(OUT_MODES))
    def test_loss_from_logp(self, alpha, logp, mode):
        with np.errstate(all="ignore"):  # p^(1-1/alpha) overflows at alpha = 0.5
            want = old_loss_from_logp(alpha, logp).tobytes()
            got = in_place(lambda x, out, tmp: loss_from_logp(alpha, x, out=out), logp, mode)
        assert got.tobytes() == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MAP_ORDERS), map_inputs(-800.0, 0.0), st.sampled_from(OUT_MODES))
    def test_grad_weight_from_logp(self, alpha, logp, mode):
        with np.errstate(all="ignore"):
            want = old_grad_weight_from_logp(alpha, logp).tobytes()
            got = in_place(lambda x, out, tmp: grad_weight_from_logp(alpha, x, out=out, tmp=tmp), logp, mode)
        assert got.tobytes() == want

    def test_long_rows(self):
        # Rows long enough for every SIMD body and tail length of the ufuncs.
        rng = np.random.default_rng(16)
        z = rng.uniform(-40.0, 40.0, size=(3, 100_003))
        logp = old_log_sigmoid_vec(z)
        assert log_sigmoid_vec(z.copy(), out=np.empty_like(z), tmp=np.empty_like(z)).tobytes() == logp.tobytes()
        for alpha in MAP_ORDERS:
            rows = np.empty((3, 2, z.shape[1]))
            loss_from_logp(alpha, logp, out=rows[:, 0])
            grad_weight_from_logp(alpha, logp.copy(), out=rows[:, 1], tmp=np.empty_like(z))
            assert rows[:, 0].tobytes() == old_loss_from_logp(alpha, logp).tobytes()
            assert rows[:, 1].tobytes() == old_grad_weight_from_logp(alpha, logp).tobytes()


class TestLandscapeConstants:
    def test_curvature_floor_values(self):
        assert curvature_floor(1.0, 5.0) == pytest.approx(SIGMOID_5 * (1 - SIGMOID_5), rel=1e-12)
        assert curvature_floor(0.5, 1.0) == pytest.approx(0.3678794411714423, rel=1e-12)
        assert curvature_floor(1.0, 1e-9) == pytest.approx(0.25, rel=1e-6)

    def test_curvature_floor_positive_and_decreasing_in_alpha(self):
        alphas = np.linspace(0.01, 1.0, 100)
        for r in (0.5, 5.0):
            floors = [curvature_floor(a, r) for a in alphas]
            assert all(f > 0.0 for f in floors)
            assert all(a >= b for a, b in zip(floors, floors[1:]))

    def test_curvature_floor_domain(self):
        with pytest.raises(DomainError):
            curvature_floor(1.5, 5.0)
        with pytest.raises(DomainError):
            curvature_floor(1.0, 0.0)

    @pytest.mark.parametrize("alpha, r", [
        (1e-300, 5.0),  # sigmoid(5)^(1 - 1e300) overflows
        (1 / 2264, 1.0),  # sigmoid(1)^(1 - 2264) is finite; its product with the bracket is not
    ])
    def test_curvature_floor_overflow_is_numeric_error_naming_it(self, alpha, r):
        message = f"curvature floor overflows at alpha {alpha!r}, radius {r!r}"
        with pytest.raises(NumericError, match=re.escape(message)):
            curvature_floor(alpha, r)

    def test_lipschitz_in_theta_values(self):
        assert lipschitz_in_theta(1.0, 5.0) == pytest.approx(SIGMOID_5, rel=1e-14)
        for r in (0.3, 1.0, 7.0):
            assert lipschitz_in_theta(1.0, r) == pytest.approx(sigmoid(r), rel=1e-14)
        assert lipschitz_in_theta(0.5, 5.0) == pytest.approx(E_5, rel=1e-12)

    def test_lipschitz_in_theta_blows_up_as_alpha_vanishes(self):
        values = [lipschitz_in_theta(a, 5.0) for a in (1.0, 0.5, 0.25, 0.125, 0.0625)]
        assert all(x < y for x, y in zip(values, values[1:]))
        with pytest.raises(DomainError):
            lipschitz_in_theta(2.0, 5.0)

    def test_lipschitz_in_theta_overflow_is_numeric_error_naming_it(self):
        # (1 - sigmoid(5))^(1 - 500) is about e^2498
        with pytest.raises(NumericError, match=r"Lipschitz constant in theta.* alpha 0\.002, radius 5\.0"):
            lipschitz_in_theta(0.002, 5.0)

    def test_risk_lipschitz_constant(self):
        assert lipschitz_in_inv_alpha(5.0) == pytest.approx(L_5, rel=1e-14)
        assert lipschitz_in_inv_alpha(1e-9) == pytest.approx(math.log(2.0) ** 2 / 2.0, rel=1e-6)
        rs = np.linspace(0.1, 20, 50)
        vals = [lipschitz_in_inv_alpha(r) for r in rs]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_risk_lipschitz_constant_overflow_is_numeric_error(self):
        with pytest.raises(NumericError, match=r"\(r \+ log 2\)\^2 / 2, overflows at radius 1e\+300"):
            lipschitz_in_inv_alpha(1e300)

    def test_grad_lipschitz_constant(self):
        assert grad_lipschitz_in_inv_alpha(5.0) == pytest.approx(J_5, rel=1e-14)
        assert grad_lipschitz_in_inv_alpha(1e-9) == pytest.approx(math.log(2.0) / 2.0, rel=1e-6)
        # sigmoid(r) < 1 strictly; at r beyond ~37 it rounds to 1.0 in doubles
        for r in (0.1, 1.0, 5.0, 20.0):
            assert grad_lipschitz_in_inv_alpha(r) < r + math.log(2.0)


class TestDomainTypes:
    def test_one_row_rejects_bad_label(self):
        with pytest.raises(DomainError):
            one_row([0.1, 0.2], 0)

    def test_one_row_rejects_big_norm(self):
        with pytest.raises(DomainError):
            one_row([1.0, 1.0], 1)

    def test_one_row_allows_tolerance(self):
        one_row([1.0 + 5e-10, 0.0], 1)

    def test_in_ball_radius(self):
        assert check_in_ball([3.0, 4.0], 5.0, "theta").tolist() == [3.0, 4.0]
        with pytest.raises(UsageError, match="^theta1 norm"):
            check_in_ball([3.0, 4.1], 5.0, "theta1")
        with pytest.raises(DomainError):
            check_in_ball([0.0], 0.0, "theta")

    def test_in_ball_norm_whose_squares_overflow(self):
        # the squares pass the float range, the norm 1.4e200 does not
        theta = [1e200, 1e200]
        with np.errstate(over="ignore"):
            norm = vector_norm(np.array(theta))
        assert norm == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_in_ball(theta, 1e300, "theta").tolist() == theta
            with pytest.raises(UsageError, match=re.escape(f"theta norm {norm!r} exceeds")):
                check_in_ball(theta, 1.414e200, "theta")
