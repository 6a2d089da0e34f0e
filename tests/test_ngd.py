import collections
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaloss.ngd
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.ngd import (
    GRAD_NORM_FLOOR,
    NgdConfig,
    _ball_projection,
    iteration_budget,
    ngd_run,
    projected_gd_reference,
    trace_to_csv,
)
from alphaloss.data import normalize_features, preset, sample_gmm
from alphaloss.loss import lipschitz_in_theta
from alphaloss.numerics import RngState, as_vector, project_ball, sample_ball, sigmoid
from alphaloss.risk import value_and_grad


def quadratic_first_coord(theta):
    """f(theta) = theta_1^2 with gradient (2 theta_1, 0)."""
    return theta[0] ** 2, np.array([2.0 * theta[0], 0.0])


def norm_objective(theta):
    n = float(np.linalg.norm(theta))
    grad = theta / n if n > 0 else np.zeros_like(theta)
    return n, grad


class TestUpdates:
    def test_unit_normalized_step(self):
        result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.5, iterations=2, record_trace=True))
        assert result.trace[1][1] == pytest.approx([1.5, 0.0])

    def test_norm_objective_step(self):
        result = ngd_run(norm_objective, [1.0, 0.0], NgdConfig(eta=0.1, iterations=2, record_trace=True))
        assert result.trace[1][1] == pytest.approx([0.9, 0.0])

    def test_step_length_is_exactly_eta(self):
        result = ngd_run(
            quadratic_first_coord, [3.0, 1.0], NgdConfig(eta=0.25, iterations=20, record_trace=True)
        )
        for (_, a, _, _), (_, b, _, _) in zip(result.trace, result.trace[1:]):
            assert abs(float(np.linalg.norm(b - a)) - 0.25) < 1e-12

    def test_projection_keeps_iterates_in_ball(self):
        def away(theta):
            return -float(theta[0]), np.array([-1.0, 0.0])  # pushes theta_1 up forever

        result = ngd_run(away, [0.0, 0.0], NgdConfig(eta=0.7, iterations=30, radius=1.5, record_trace=True))
        for _, theta, _, _ in result.trace:
            assert float(np.linalg.norm(theta)) <= 1.5 + 1e-12

    def test_start_outside_ball_rejected(self):
        with pytest.raises(UsageError):
            ngd_run(norm_objective, [3.0, 0.0], NgdConfig(eta=0.1, iterations=1, radius=1.0))


class TestBestOfIterates:
    def test_best_value_monotone_in_budget(self):
        values = []
        for t in (1, 3, 10, 30, 100):
            result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.3, iterations=t))
            values.append(result.best_value)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_first_minimum_wins_ties(self):
        result = ngd_run(norm_objective, [1.0, 0.0], NgdConfig(eta=2.0, iterations=5, record_trace=True))
        attained = [v for _, _, v, _ in result.trace]
        first = attained.index(min(attained))
        assert np.array_equal(result.best_theta, result.trace[first][1])

    def test_final_update_not_evaluated(self):
        result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.5, iterations=1))
        assert result.best_value == 4.0
        assert np.array_equal(result.best_theta, [2.0, 0.0])


class TestStopping:
    def test_zero_gradient_early_stop(self):
        def flat(theta):
            return 1.0, np.zeros_like(theta)

        result = ngd_run(flat, [1.0, 1.0], NgdConfig(eta=0.1, iterations=50))
        assert result.iterations == 1
        assert "below" in result.stop_reason

    def test_non_finite_objective_raises(self):
        def bad(theta):
            return math.nan, np.zeros_like(theta)

        with pytest.raises(NumericError, match="iteration 1"):
            ngd_run(bad, [1.0], NgdConfig(eta=0.1, iterations=3))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            NgdConfig(eta=0.0, iterations=5)
        with pytest.raises(DomainError):
            NgdConfig(eta=0.1, iterations=0)

    # int(10.5) passed the ">= 1" check, and range() then raised a TypeError.
    @pytest.mark.parametrize("iterations", [10.5, 3.0, "10", None])
    def test_iteration_count_that_is_not_an_integer_is_usage_error(self, iterations):
        with pytest.raises(UsageError, match=re.escape(f"iterations must be an integer, got {iterations!r}")):
            NgdConfig(eta=0.1, iterations=iterations)

    def test_integer_scalar_is_an_iteration_count(self):
        result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.5, iterations=np.int64(3)))
        assert result.iterations == 3 and type(result.iterations) is int


class TestBudget:
    def test_hand_value(self):
        assert iteration_budget(0.5, 2.0, 3.0) == 144

    def test_floor_at_one(self):
        assert iteration_budget(0.5, 2.0, 0.0) == 1

    def test_frozen_certificate_budget(self):
        assert iteration_budget(0.05, sigmoid(5.0), 10.0) == 39467

    def test_validation(self):
        with pytest.raises(DomainError):
            iteration_budget(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            iteration_budget(0.1, 1.0, math.inf)

    @pytest.mark.parametrize("epsilon,kappa,dist", [(0.4, 1.0, 1e308), (0.4, 1e308, 5.0), (1e-320, 1.0, 1.0),
                                                    (0.1, math.inf, 0.0)])
    def test_unrepresentable_budget_is_numeric_error_naming_it(self, epsilon, kappa, dist):
        inputs = re.escape(f"epsilon {epsilon!r}, kappa {kappa!r}, dist {dist!r}")
        with pytest.raises(NumericError, match="iteration budget .* at " + inputs):
            iteration_budget(epsilon, kappa, dist)


class TestReference:
    def test_converges_on_quadratic(self):
        def bowl(theta):
            return float(theta @ theta), 2.0 * theta

        theta, value = projected_gd_reference(bowl, np.array([2.0, -1.0]), 200, 0.1)
        assert value < 1e-8

    def test_projection_respected(self):
        def shifted(theta):
            target = np.array([3.0, 0.0])
            return float((theta - target) @ (theta - target)), 2.0 * (theta - target)

        theta, _ = projected_gd_reference(shifted, np.zeros(2), 200, 0.1, radius=1.0)
        assert float(np.linalg.norm(theta)) <= 1.0 + 1e-12
        assert theta == pytest.approx([1.0, 0.0], abs=1e-6)


def full_length_reference(objective, theta1, steps, step_size, radius=None):
    """The reference loop without its fixed-point exit: always ``steps``
    evaluations. Also returns the first step whose update left theta
    unchanged (0 if none did)."""
    theta = as_vector(theta1, "theta1").copy()
    if radius is not None:
        theta = project_ball(theta, radius)
    best_theta = theta.copy()
    best_value = math.inf
    fixed_step = 0
    for t in range(1, steps + 1):
        value, grad = objective(theta)
        value = float(value)
        grad = np.asarray(grad, dtype=float)
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        nxt = theta - step_size * grad
        if radius is not None:
            nxt = project_ball(nxt, radius)
        if not fixed_step and np.array_equal(nxt, theta):
            fixed_step = t
        theta = nxt
    return best_theta, best_value, fixed_step


class CountingObjective:
    def __init__(self, objective):
        self.objective = objective
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.objective(theta)


class TestReferenceFixedPoint:
    @pytest.fixture(scope="class")
    def objective(self):
        data, _ = normalize_features(sample_gmm(preset("fig2"), 200, RngState(7)))
        return value_and_grad(1.0, data)

    # Radius 5 holds the minimizer inside the ball; radius 1 pins the
    # fixed point to the sphere through the projection.
    @pytest.mark.parametrize("radius", [5.0, 1.0])
    def test_exit_matches_full_length_loop(self, objective, radius):
        steps = 4000
        theta_full, value_full, fixed_step = full_length_reference(
            objective, np.zeros(2), steps, 1.0, radius)
        assert 0 < fixed_step < steps
        counted = CountingObjective(objective)
        theta, value = projected_gd_reference(counted, np.zeros(2), steps, 1.0, radius)
        assert counted.calls == fixed_step
        assert theta.tobytes() == theta_full.tobytes()
        assert np.float64(value).tobytes() == np.float64(value_full).tobytes()

    def test_budget_before_fixed_point(self, objective):
        steps = 500
        theta_full, value_full, fixed_step = full_length_reference(
            objective, np.zeros(2), steps, 1.0, 5.0)
        assert fixed_step == 0
        counted = CountingObjective(objective)
        theta, value = projected_gd_reference(counted, np.zeros(2), steps, 1.0, 5.0)
        assert counted.calls == steps
        assert theta.tobytes() == theta_full.tobytes() and value == value_full


def slow_reference(objective, theta1, steps, step_size, radius=None):
    """The slow oracle of ``projected_gd_reference``: its loop with the
    step size and radius checked by each use, ``np.array_equal`` for the
    fixed point and ``np.all`` for finiteness."""
    if not (float(step_size) > 0.0):
        raise DomainError(f"step_size must be positive, got {step_size!r}")
    theta = as_vector(theta1, "theta1").copy()
    if radius is not None:
        theta = project_ball(theta, radius)
    best_theta, best_value = theta.copy(), math.inf
    for t in range(1, steps + 1):
        value, grad = objective(theta)
        value, grad = float(value), np.asarray(grad, dtype=float)
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            raise NumericError(f"objective returned non-finite output at iteration {t}")
        if value < best_value:
            best_value, best_theta = value, theta.copy()
        nxt = theta - step_size * grad
        if radius is not None:
            nxt = project_ball(nxt, radius)
        if np.array_equal(nxt, theta):
            break
        theta = nxt
    return best_theta, best_value


def slow_ngd_run(objective, theta1, config):
    """The slow oracle of ``ngd_run``: (best theta, best value, iterations,
    stop reason, trace) from its loop with ``np.all`` for finiteness."""
    theta = as_vector(theta1, "theta1").copy()
    best_theta, best_value, trace, stop_reason, done = theta.copy(), math.inf, [], None, 0
    for t in range(1, config.iterations + 1):
        value, grad = objective(theta)
        value, grad = float(value), np.asarray(grad, dtype=float)
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            raise NumericError(f"objective returned non-finite output at iteration {t}")
        grad_norm = float(np.linalg.norm(grad))
        trace.append((t, theta.copy(), value, grad_norm))
        if value < best_value:
            best_value, best_theta = value, theta.copy()
        done = t
        if grad_norm < GRAD_NORM_FLOOR:
            stop_reason = f"gradient norm {grad_norm:.3e} below {GRAD_NORM_FLOOR:.0e}"
            break
        theta = theta - config.eta * (grad / grad_norm)
        if config.radius is not None:
            theta = project_ball(theta, config.radius)
    return best_theta, best_value, done, stop_reason, trace


def trace_bytes(trace):
    return [(t, theta.tobytes(), np.float64(value).tobytes(), np.float64(norm).tobytes())
            for t, theta, value, norm in trace]


class TestLoopsAgainstSlowLoops:
    """The reference and NGD loops keep the bits of their slow oracles:
    an interior minimizer (r = 5), an active ball (r = 0.5) and a run that
    ends at its step cap."""

    @pytest.fixture(scope="class", params=[0.5, 1.0], ids=["alpha=0.5", "alpha=1"])
    def objective(self, request):
        data, _ = normalize_features(sample_gmm(preset("fig2"), 300, RngState(5)))
        return value_and_grad(request.param, data)

    @pytest.mark.parametrize("radius,steps,capped", [(5.0, 4000, False), (0.5, 4000, False), (5.0, 60, True)],
                             ids=["interior", "active-ball", "step-cap"])
    def test_reference(self, objective, radius, steps, capped):
        counted = CountingObjective(objective)
        theta, value = projected_gd_reference(counted, [0.1, -0.2], steps, 1.0, radius)
        want_theta, want_value = slow_reference(objective, [0.1, -0.2], steps, 1.0, radius)
        assert (counted.calls == steps) == capped
        assert theta.tobytes() == want_theta.tobytes()
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        if radius == 0.5:
            assert float(np.linalg.norm(theta)) == pytest.approx(0.5, rel=1e-12)  # on the sphere
        else:
            assert float(np.linalg.norm(theta)) < 5.0

    @pytest.mark.parametrize("radius", [5.0, 0.5])
    def test_ngd_run(self, objective, radius):
        config = NgdConfig(eta=0.05, iterations=300, radius=radius, record_trace=True)
        result = ngd_run(objective, [0.3, 0.1], config)
        best_theta, best_value, done, stop_reason, trace = slow_ngd_run(objective, [0.3, 0.1], config)
        assert result.best_theta.tobytes() == best_theta.tobytes()
        assert np.float64(result.best_value).tobytes() == np.float64(best_value).tobytes()
        assert (result.iterations, result.stop_reason) == (done, stop_reason) == (300, None)
        assert trace_bytes(result.trace) == trace_bytes(trace)


class TestReferenceChecks:
    """The step size and radius are checked once, before the loop, and the
    error names the one that is wrong."""

    @pytest.mark.parametrize("step_size", [math.inf, math.nan, 0.0, -0.1])
    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_step_size(self, step_size, radius):
        counted = CountingObjective(quadratic_first_coord)
        message = f"step_size must be positive and finite, got {step_size!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            projected_gd_reference(counted, [1.0, 0.0], 10, step_size, radius)
        assert counted.calls == 0

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_radius(self, radius):
        counted = CountingObjective(quadratic_first_coord)
        with pytest.raises(DomainError, match=re.escape(f"radius must be positive and finite, got {radius!r}")):
            projected_gd_reference(counted, [1.0, 0.0], 10, 0.1, radius)
        assert counted.calls == 0

    # A fractional or string count raised a bare TypeError from range().
    @pytest.mark.parametrize("steps", [10.5, 3.0, "10", None])
    def test_step_count_that_is_not_an_integer(self, steps):
        counted = CountingObjective(quadratic_first_coord)
        with pytest.raises(UsageError, match=re.escape(f"steps must be an integer, got {steps!r}")):
            projected_gd_reference(counted, [1.0, 0.0], steps, 0.1)
        assert counted.calls == 0

    @pytest.mark.parametrize("steps", [0, -3])
    def test_step_count_below_one(self, steps):
        counted = CountingObjective(quadratic_first_coord)
        with pytest.raises(UsageError, match=re.escape(f"steps must be >= 1, got {steps}")):
            projected_gd_reference(counted, [1.0, 0.0], steps, 0.1)
        assert counted.calls == 0


class TestCycleExit:
    """Both loops stop at the first iterate that repeats an earlier one bit
    for bit, with the bits of their slow oracles, which run to the cap."""

    def test_workload_ngd_run_with_trace(self):
        # The benchmark's ngd workload (fig2, n = 1000, seed 42, 3,000
        # iterations at r = 5): its orbit enters a 2-cycle at step 73, seen
        # at step 75 by the comparison with the iterate two steps back.
        data, _ = normalize_features(sample_gmm(preset("fig2"), 1000, RngState(42)))
        objective = value_and_grad(1.0, data)
        theta1 = sample_ball(RngState(42).spawn(3), 2, 5.0)
        config = NgdConfig(0.05 / lipschitz_in_theta(1.0, 5.0), 3000, radius=5.0, record_trace=True)
        counted = CountingObjective(objective)
        result = ngd_run(counted, theta1, config)
        best_theta, best_value, done, stop_reason, trace = slow_ngd_run(objective, theta1, config)
        assert counted.calls == 74
        assert result.best_theta.tobytes() == best_theta.tobytes()
        assert np.float64(result.best_value).tobytes() == np.float64(best_value).tobytes()
        assert (result.iterations, result.stop_reason) == (done, stop_reason) == (3000, None)
        assert trace_bytes(result.trace) == trace_bytes(trace)
        assert len({theta.tobytes() for _, theta, _, _ in result.trace}) == 74

    def test_reference_that_cycles_before_its_cap(self):
        # fig2, n = 200, seed 2, r = 1, step 1: from step 1,020 the reference
        # alternates between two points on the sphere; none is a fixed point.
        # The loop sees the 2-cycle at step 1,022.
        data, _ = normalize_features(sample_gmm(preset("fig2"), 200, RngState(2)))
        objective = value_and_grad(1.0, data)
        steps = 4000
        theta_full, value_full, fixed_step = full_length_reference(objective, np.zeros(2), steps, 1.0, 1.0)
        assert fixed_step == 0
        counted = CountingObjective(objective)
        theta, value = projected_gd_reference(counted, np.zeros(2), steps, 1.0, 1.0)
        want_theta, want_value = slow_reference(objective, np.zeros(2), steps, 1.0, 1.0)
        assert counted.calls == 1021
        assert theta.tobytes() == want_theta.tobytes() == theta_full.tobytes()
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes() == np.float64(value_full).tobytes()
        assert float(np.linalg.norm(theta)) == pytest.approx(1.0, rel=1e-12)

    # GD with step 1 on theta_1^2 maps theta to (-theta_1, theta_2) exactly:
    # a 2-cycle from the (projected) start, seen at step 4.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
           st.none() | st.floats(1e-3, 1e3), st.integers(4, 300))
    def test_reference_on_a_two_cycle(self, start, radius, steps):
        counted = CountingObjective(quadratic_first_coord)
        theta, value = projected_gd_reference(counted, start, steps, 1.0, radius)
        want_theta, want_value = slow_reference(quadratic_first_coord, start, steps, 1.0, radius)
        assert counted.calls <= 3
        assert theta.tobytes() == want_theta.tobytes()
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()

    # NGD on the norm, started on a coordinate axis with a step past the
    # origin: the unit gradient is +-e_j, and the orbit bounces across the
    # origin (and off the sphere) into a short cycle, or stops at theta = 0.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
           st.floats(-1.0, 1.0), st.floats(1.0, 8.0), st.none() | st.floats(1.0, 10.0), st.integers(50, 400))
    def test_ngd_run_on_an_overshooting_cycle(self, axis, start, eta, radius, iterations):
        d, j = axis
        theta1 = np.zeros(d)
        theta1[j] = start
        config = NgdConfig(eta, iterations, radius=radius, record_trace=True)
        counted = CountingObjective(norm_objective)
        result = ngd_run(counted, theta1, config)
        best_theta, best_value, done, stop_reason, trace = slow_ngd_run(norm_objective, theta1, config)
        assert counted.calls < 50
        assert result.best_theta.tobytes() == best_theta.tobytes()
        assert np.float64(result.best_value).tobytes() == np.float64(best_value).tobytes()
        assert (result.iterations, result.stop_reason) == (done, stop_reason)
        assert trace_bytes(result.trace) == trace_bytes(trace)


class TestReferenceStepOnFloats:
    """The reference steps on theta's and the gradient's Python floats and
    keeps the bits of ``full_length_reference``, which steps in numpy."""

    # A separable quadratic sum_j a_j (theta_j - b_j)^2 from a drawn start,
    # with the ball (r = 1) active when b lies outside it.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
               st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d),
               st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
               st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))),
           st.floats(1e-3, 0.2), st.none() | st.just(1.0), st.integers(1, 300))
    def test_quadratic_bits(self, coefficients, step_size, radius, steps):
        a, b, start = map(np.array, coefficients)

        def bowl(theta):
            return float(np.sum(a * (theta - b) ** 2)), 2.0 * a * (theta - b)

        theta, value = projected_gd_reference(bowl, start, steps, step_size, radius)
        want_theta, want_value, _ = full_length_reference(bowl, start, steps, step_size, radius)
        assert theta.tobytes() == want_theta.tobytes()
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()

    # fig2 at n = 300: at these orders the iterates stay inside r = 5 and
    # end on the sphere of r = 1.
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("radius", [5.0, 1.0], ids=["interior", "ball-active"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_oracle_bits(self, alpha, radius, seed):
        data, _ = normalize_features(sample_gmm(preset("fig2"), 300, RngState(seed)))
        objective = value_and_grad(alpha, data)
        theta1 = sample_ball(RngState(seed).spawn(1), 2, 0.5)
        theta, value = projected_gd_reference(objective, theta1, 1500, 0.5, radius)
        want_theta, want_value, _ = full_length_reference(objective, theta1, 1500, 0.5, radius)
        assert theta.tobytes() == want_theta.tobytes()
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        norm = float(np.linalg.norm(theta))
        assert norm < 4.9 if radius == 5.0 else norm == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("output", [(math.nan, None), (math.inf, None), (None, math.nan), (None, -math.inf)],
                             ids=["nan-value", "inf-value", "nan-grad", "inf-grad"])
    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_non_finite_output_message(self, output, radius):
        # The third call returns the bad value or gradient entry; the error
        # names the iteration and theta's floats, as numpy's check did.
        seen = []

        def objective(theta):
            seen.append(theta.copy())
            value, grad = quadratic_first_coord(theta)
            if len(seen) == 3:
                value = value if output[0] is None else output[0]
                grad[1] = grad[1] if output[1] is None else output[1]
            return value, grad

        with pytest.raises(NumericError) as error:
            projected_gd_reference(objective, [0.7, -0.2], 10, 0.1, radius)
        assert len(seen) == 3
        assert str(error.value) == (
            f"objective returned non-finite output at iteration 3, theta={list(map(float, seen[-1]))!r}")

    @pytest.mark.parametrize("grad", [[-0.0, 0.0], [0.0, -0.0]])
    @pytest.mark.parametrize("radius", [None, 2.0])
    def test_signed_zero_fixed_point(self, grad, radius):
        # -0.0 - s * -0.0 is +0.0: the next iterate differs from theta only
        # in the sign of a zero, which == (as numpy's) calls a fixed point.
        def flat(theta):
            return 1.0, np.array(grad)

        start = [-0.0, 1.0]
        counted = CountingObjective(flat)
        theta, value = projected_gd_reference(counted, start, 50, 0.5, radius)
        want_theta, want_value, fixed_step = full_length_reference(flat, start, 50, 0.5, radius)
        assert counted.calls == fixed_step == 1
        assert theta.tobytes() == want_theta.tobytes() == np.array(start).tobytes()
        assert value == want_value == 1.0

    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_no_numpy_reduction_per_step(self, radius):
        # The step, the finiteness check and the fixed-point test run on
        # floats: 50 more steps make no more numpy method or ufunc method
        # calls but the cycle test's tobytes and the floats' tolist.
        grad = np.array([1e-3, -2e-3])

        def numpy_calls(steps):
            names = []

            def profile(frame, event, arg):
                if event == "c_call" and isinstance(getattr(arg, "__self__", None), (np.ndarray, np.ufunc)):
                    names.append(arg.__name__)

            sys.setprofile(profile)
            try:
                projected_gd_reference(lambda theta: (1.0, grad), [0.1, 0.2], steps, 0.5, radius)
            finally:
                sys.setprofile(None)
            return collections.Counter(names)

        more = numpy_calls(100) - numpy_calls(50)
        assert more == collections.Counter({"tobytes": 50, "tolist": 50})


class TestBallProjection:
    """The loops' projection keeps ``project_ball``'s bits and calls it only
    for a vector outside the ball."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=5),
           st.floats(1e-100, 1e100), st.integers(-64, 64))
    def test_bits_of_project_ball_at_the_sphere(self, direction, radius, ulps):
        w = np.array(direction)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            w, norm = np.ones(len(direction)), math.sqrt(len(direction))
        v = w * (radius / norm) * (1.0 + ulps * 2.0 ** -52)
        calls = []

        def counted(u, r):
            calls.append(r)
            return project_ball(u, r)

        with mock.patch.object(alphaloss.ngd, "project_ball", counted):
            got = _ball_projection(radius)(v)
        want = project_ball(v, radius)
        assert got.tobytes() == want.tobytes()
        assert len(calls) == (want is not v)  # project_ball returns a vector inside as it is

    @pytest.mark.filterwarnings("error")
    def test_overflowing_square_is_projected_without_a_warning(self):
        # Each step lands near 1e200, whose square overflows; project_ball
        # rescales it onto the sphere, with no overflow warning, and the
        # third step is a fixed point.
        def steep(theta):
            return -1e200 * float(theta[0]), np.array([-1e200, 0.0])

        counted = CountingObjective(steep)
        theta, value = projected_gd_reference(counted, [0.5, 0.5], 50, 1.0, 2.0)
        want_theta, want_value = slow_reference(steep, [0.5, 0.5], 50, 1.0, 2.0)
        assert theta.tobytes() == want_theta.tobytes() and value == want_value
        assert theta.tolist() == [2.0, 1e-200] and counted.calls == 3


class TestTraceCsv:
    def test_format(self):
        result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.5, iterations=3, record_trace=True))
        text = trace_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "t,theta_1,theta_2,value,grad_norm"
        assert len(lines) == 4
        assert lines[1].startswith("1,2,0,4,")

    def test_requires_trace(self):
        result = ngd_run(quadratic_first_coord, [2.0, 0.0], NgdConfig(eta=0.5, iterations=1))
        with pytest.raises(UsageError):
            trace_to_csv(result)
