"""Normalized gradient descent with ball projection.

Each update moves a fixed length eta along the unit gradient direction;
the run returns the best of the visited iterates (first index wins ties).
A long-run projected gradient descent is included as the reference
optimizer used to measure achieved optimality gaps.

Both loops take the objective to be a deterministic function of the bits
of theta, so once an iterate repeats an earlier one bit for bit, every
later step revisits points already seen. Both loops stop there, as soon
as Brent's power-of-two anchor sees the repeat (Brent 1980, *An improved
Monte Carlo factorization algorithm*; one bytes object of memory): the
best is settled (its test is a strict ``<``), and no later gradient norm
can fall below the floor. The result is that of the full loop, bit for
bit, from fewer objective calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .loss import check_in_ball
from .numerics import (
    BALL_SLACK,
    _as_int,
    as_vector,
    check_positive_finite,
    csv_text,
    project_ball,
    vector_norm,
)

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
        if _as_int(self.iterations, "iterations") < 1:
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


class _Cycle:
    """Brent's cycle test on a loop's iterates, in O(1) memory: the anchor
    is the bytes of the iterate at steps 1, 2, 4, 8, ..."""

    __slots__ = ("anchor", "anchor_step")

    def __init__(self):
        self.anchor = None
        self.anchor_step = 0

    def lag(self, t: int, theta: np.ndarray) -> int:
        """The lag L > 0 if theta_t equals theta_{t-L} (the anchor) bit for
        bit, else 0."""
        key = theta.tobytes()
        if key == self.anchor:
            return t - self.anchor_step
        if not t & (t - 1):
            self.anchor, self.anchor_step = key, t
        return 0


def _ball_projection(radius):
    """``project_ball`` onto the ball of ``radius``, which is checked once
    here. A 1-D float64 vector inside is returned without the call, by
    ``project_ball``'s own test: ``np.linalg.norm`` of it is
    ``sqrt(v.dot(v))``, and ``np.vdot`` is that BLAS ``ddot`` without an
    overflow warning. A vector outside, or whose square is not finite,
    goes to ``project_ball`` for its rescale and overflow path."""
    radius = check_positive_finite(radius, "radius")
    inside = radius * (1.0 + BALL_SLACK)

    def project(v: np.ndarray) -> np.ndarray:
        if v.ndim == 1 and math.sqrt(float(np.vdot(v, v))) <= inside:
            return v
        return project_ball(v, radius)

    return project


def ngd_run(objective, theta1, config: NgdConfig) -> NgdResult:
    """Run normalized gradient descent from theta1.

    ``objective(theta) -> (value, gradient)``, a deterministic function of
    theta's bits. Values are taken at the visited iterates theta_1..theta_T
    (the post-update point of the final step is not evaluated). With a
    radius configured, every iterate is projected back onto the ball. Stops
    early, recording the reason, if a gradient norm falls below
    GRAD_NORM_FLOOR. An iterate that repeats an earlier one bit for bit
    ends the calls: the result is the full T iterations' (``stop_reason``
    None), and a recorded trace repeats the cycle up to step T.
    """
    iterations = _as_int(config.iterations, "iterations")
    theta = as_vector(theta1, "theta1").copy()
    project = None
    if config.radius is not None:
        check_in_ball(theta, config.radius, "theta1")
        project = _ball_projection(config.radius)
    best_theta = theta.copy()
    best_value = math.inf
    trace = [] if config.record_trace else None
    stop_reason = None
    done = 0
    cycle = _Cycle()
    for t in range(1, iterations + 1):
        lag = cycle.lag(t, theta)
        if lag:
            if trace is not None:
                for u in range(t, iterations + 1):
                    _, seen, value, grad_norm = trace[u - lag - 1]
                    trace.append((u, seen.copy(), value, grad_norm))
            done = iterations
            break
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
        if project is not None:
            theta = project(theta)
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
    updates of size ``step_size`` (unnormalized gradient steps). The
    objective must be a deterministic function of theta's bits: the loop
    exits early once the projected next iterate equals the current one
    (``==``, so a fixed point is found at once), or once an iterate repeats
    an earlier one bit for bit (a cycle), because every later step would
    revisit the same points and values. The result is the one the full
    ``steps`` would return.
    """
    steps = _as_int(steps, "steps")
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    step_size = check_positive_finite(step_size, "step_size")
    theta = as_vector(theta1, "theta1").copy()
    project = None
    if radius is not None:
        project = _ball_projection(radius)
        theta = project(theta)
    best_theta = theta.copy()
    best_value = math.inf
    cycle = _Cycle()
    for t in range(1, steps + 1):
        if cycle.lag(t, theta):
            break
        value, grad = objective(theta)
        value = float(value)
        grad = np.asarray(grad, dtype=float)
        _check_objective_output(t, theta, value, grad)
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        nxt = theta - step_size * grad
        if project is not None:
            nxt = project(nxt)
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
