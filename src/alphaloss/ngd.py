"""Normalized gradient descent with ball projection.

Each update moves a fixed length eta along the unit gradient direction;
the run returns the best of the visited iterates (first index wins ties).
A long-run projected gradient descent is included as the reference
optimizer used to measure achieved optimality gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .loss import check_in_ball
from .numerics import as_vector, check_positive_finite, csv_text, project_ball, vector_norm

# Below this gradient norm the normalized direction is meaningless; stop.
GRAD_NORM_FLOOR = 1e-14

__all__ = ["GRAD_NORM_FLOOR", "NgdConfig", "NgdResult", "ngd_run", "iteration_budget",
           "projected_gd_reference", "trace_to_csv"]


@dataclass(frozen=True)
class NgdConfig:
    """Step length eta, iteration count T, optional projection radius."""

    eta: float
    iterations: int
    radius: float | None = None
    record_trace: bool = False

    def __post_init__(self):
        check_positive_finite(self.eta, "eta")
        if int(self.iterations) < 1:
            raise DomainError(f"iterations must be >= 1, got {self.iterations!r}")
        if self.radius is not None:
            check_positive_finite(self.radius, "radius")


@dataclass(frozen=True)
class NgdResult:
    best_theta: np.ndarray
    best_value: float
    iterations: int
    stop_reason: str | None
    trace: list | None  # (t, theta, value, grad_norm) per visited iterate


def _check_objective_output(t: int, theta, value: float, grad: np.ndarray):
    if not math.isfinite(value) or not np.isfinite(grad).all():
        raise NumericError(
            f"objective returned non-finite output at iteration {t}, theta={list(map(float, theta))!r}"
        )


def ngd_run(objective, theta1, config: NgdConfig) -> NgdResult:
    """Run normalized gradient descent from theta1.

    ``objective(theta) -> (value, gradient)``. Values are taken at the
    visited iterates theta_1..theta_T (the post-update point of the final
    step is not evaluated). With a radius configured, every iterate is
    projected back onto the ball. Stops early, recording the reason, if a
    gradient norm falls below GRAD_NORM_FLOOR.
    """
    theta = as_vector(theta1, "theta1").copy()
    if config.radius is not None:
        check_in_ball(theta, config.radius, "theta1")
    best_theta = theta.copy()
    best_value = math.inf
    trace = [] if config.record_trace else None
    stop_reason = None
    done = 0
    for t in range(1, config.iterations + 1):
        value, grad = objective(theta)
        value = float(value)
        grad = np.asarray(grad, dtype=float)
        _check_objective_output(t, theta, value, grad)
        grad_norm = vector_norm(grad)
        if trace is not None:
            trace.append((t, theta.copy(), value, grad_norm))
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        done = t
        if grad_norm < GRAD_NORM_FLOOR:
            stop_reason = f"gradient norm {grad_norm:.3e} below {GRAD_NORM_FLOOR:.0e}"
            break
        theta = theta - config.eta * (grad / grad_norm)
        if config.radius is not None:
            theta = project_ball(theta, config.radius)
    return NgdResult(best_theta, best_value, done, stop_reason, trace)


def iteration_budget(epsilon: float, kappa: float, dist: float) -> int:
    """Iterations sufficient for an epsilon gap under (epsilon, kappa)-SLQC
    from a start at distance ``dist``: ceil(kappa^2 dist^2 / epsilon^2),
    at least 1."""
    epsilon = float(epsilon)
    kappa = float(kappa)
    dist = float(dist)
    if not (epsilon > 0.0) or not (kappa > 0.0):
        raise DomainError(f"epsilon and kappa must be positive, got {epsilon!r}, {kappa!r}")
    if dist < 0.0 or not math.isfinite(dist):
        raise DomainError(f"dist must be a finite nonnegative real, got {dist!r}")
    try:
        return max(1, math.ceil(kappa * kappa * dist * dist / (epsilon * epsilon)))
    except (OverflowError, ValueError, ZeroDivisionError):  # an inf, a NaN, or epsilon^2 underflowing to 0
        raise NumericError(
            f"the NGD iteration budget ceil(kappa^2 dist^2 / epsilon^2) is not a finite number at "
            f"epsilon {epsilon!r}, kappa {kappa!r}, dist {dist!r}"
        ) from None


def projected_gd_reference(objective, theta1, steps: int, step_size: float,
                           radius: float | None = None) -> tuple[np.ndarray, float]:
    """Plain projected gradient descent, used as a reference minimizer.

    Returns the best visited iterate and its value after at most ``steps``
    updates of size ``step_size`` (unnormalized gradient steps). The loop
    exits early once the projected next iterate equals the current one bit
    for bit: the objective is deterministic, so every later step would
    revisit the same point and value, and the result is the one the full
    ``steps`` would return.
    """
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    step_size = check_positive_finite(step_size, "step_size")
    theta = as_vector(theta1, "theta1").copy()
    if radius is not None:
        radius = check_positive_finite(radius, "radius")
        theta = project_ball(theta, radius)
    best_theta = theta.copy()
    best_value = math.inf
    for t in range(1, steps + 1):
        value, grad = objective(theta)
        value = float(value)
        grad = np.asarray(grad, dtype=float)
        _check_objective_output(t, theta, value, grad)
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        nxt = theta - step_size * grad
        if radius is not None:
            nxt = project_ball(nxt, radius)
        if (nxt == theta).all():
            break
        theta = nxt
    return best_theta, best_value


def trace_to_csv(result: NgdResult) -> str:
    """Serialize a recorded trace: t,theta_1..theta_d,value,grad_norm."""
    if result.trace is None:
        raise UsageError("this run did not record a trace")
    header = ["t"] + [f"theta_{j + 1}" for j in range(result.best_theta.shape[0])] + ["value", "grad_norm"]
    return csv_text(header, ([t, *theta, value, grad_norm] for t, theta, value, grad_norm in result.trace))
