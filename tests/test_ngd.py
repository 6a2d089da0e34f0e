import math
import re

import numpy as np
import pytest

from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.ngd import (
    GRAD_NORM_FLOOR,
    NgdConfig,
    iteration_budget,
    ngd_run,
    projected_gd_reference,
    trace_to_csv,
)
from alphaloss.data import normalize_features, preset, sample_gmm
from alphaloss.numerics import RngState, as_vector, project_ball, sigmoid
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
