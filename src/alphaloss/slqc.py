"""Strict-local-quasi-convexity (SLQC) verification and evolution bounds.

A function f is (epsilon, kappa, theta0)-SLQC at a point theta when at
least one of two conditions holds: the value gap f(theta) - f(theta0) is
at most epsilon, or the gradient is nonzero and -grad f(theta) makes a
nonnegative inner product with every direction from theta into the ball
of radius rho = epsilon/kappa around theta0. For points outside that ball
the second condition is equivalent to the closed form

    <-grad f(theta), theta0 - theta> >= rho * ||grad f(theta)||,

which ``ball_min_inner`` evaluates exactly (it is the minimum of the
inner product over the ball). Points inside the ball that fail the value
gap are classified Neither: the cone condition cannot hold there with a
nonzero gradient.

This module certifies the empirical alpha-risk: strong-convexity moduli
for alpha <= 1, sampled SLQC sweeps, a sampled upper estimate of the
gradient-norm infimum over the high-risk region, and the closed-form
evolution of (epsilon, epsilon/kappa) as alpha grows from a base order.
A sampled sweep is necessarily one-sided evidence; the reports say so.
``_rule`` is the one verdict rule: a few masks over the arrays of a batch
of points, whose dot products and norms keep ``np.dot``'s bits.
``_verdicts``, the one verdict function, gives ``slqc_sweep`` its arrays
and ``check_slqc_point`` the sweep's entry for one point, which always
reaches the exact pass; the two agree up to rounding (the margin matmul
rounds a one-row batch differently).

The sweep and the gradient-infimum estimate need verdicts, counts and a
few extremes, not every exact sum, so both run risk's certified float
filter. One float pass (``float_means``) gives every point its values and
gradients with proven error bounds, and the bounds are carried through the
gap subtraction, ``np.vecdot``, ``_norms`` and the rho product, each bound
doubled to pay for the rounding of both paths and of the bound itself,
plus 2^-500 for products and squares that underflow. Rounding is
monotone, so every exact result lies in [fl(x - e), fl(x + e)] for a float
x within e of it, and a threshold outside that interval settles the
comparison. A point whose quantities stay below 2^1000 leaves its exact
counterparts no room to overflow. Only the points that the intervals
cannot settle, or that may hold a reported number, go through one exact
pass (``exact_rows``), among them every point to which ``float_means``
gives NaN bounds. The gradient-infimum estimate takes one float pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .loss import (
    check_alpha,
    check_in_ball,
    curvature_floor,
    grad_lipschitz_in_inv_alpha,
    lipschitz_in_inv_alpha,
)
from .numerics import (
    RngState,
    as_vector,
    check_positive_finite,
    csv_text,
    min_eigen_sym,
    row_norms,
    sample_ball,  # noqa: F401  unused here, but bench/tracer.py rebinds the name in this module
    sample_ball_batch,
    vector_norm,
)
from .risk import Dataset, exact_rows, float_means, may_hold_max, risk_grads, risk_values, risk_values_grads

# Absolute slack applied to both SLQC inequalities; empirical risks are
# finite sums with bounded rounding.
SLQC_TOL = 1e-9

_U = 2.0 ** -53
# Absolute slack in the float filter's norm and inner-product bounds: it
# covers squares and products that underflow, sqrt(d 2^-1074) at most.
_TINY = 2.0 ** -500
# Below this the float filter's quantities and bounds leave their exact
# counterparts no room to overflow.
_CALM = 2.0 ** 1000

__all__ = [
    "SLQC_TOL",
    "Verdict",
    "SlqcParams",
    "EvolutionRow",
    "ball_min_inner",
    "check_slqc_point",
    "slqc_sweep",
    "strong_convexity_modulus",
    "estimate_grad_infimum",
    "evolution_window",
    "evolve_bounds",
    "evolution_to_csv",
]


class Verdict(enum.Enum):
    VALUE_GAP = "value_gap"
    GRADIENT_CONE = "gradient_cone"
    NEITHER = "neither"


_KINDS = tuple(Verdict)  # verdict index -> Verdict


@dataclass(frozen=True)
class SlqcParams:
    """The (epsilon, kappa, theta0) triple; rho = epsilon/kappa, finite
    unless epsilon is inf (then every point passes the value gap)."""

    epsilon: float
    kappa: float
    theta0: np.ndarray

    def __post_init__(self):
        eps = float(self.epsilon)
        if not (eps > 0.0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon!r}")
        kap = check_positive_finite(self.kappa, "kappa")
        if math.isfinite(eps) and math.isinf(eps / kap):
            raise DomainError(f"rho = epsilon/kappa overflows at epsilon {eps!r}, kappa {kap!r}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "theta0", as_vector(self.theta0, "theta0"))

    @property
    def rho(self) -> float:
        return self.epsilon / self.kappa


def ball_min_inner(g, theta, theta0, rho: float) -> float:
    """Exact minimum over theta' in the ball B(theta0, rho) of
    <-g, theta' - theta>, namely <-g, theta0 - theta> - rho * ||g||."""
    g = as_vector(g, "g")
    theta = as_vector(theta, "theta")
    theta0 = as_vector(theta0, "theta0")
    rho = check_positive_finite(rho, "rho")
    return float(np.dot(-g, theta0 - theta)) - rho * vector_norm(g)


def _norms(a: np.ndarray) -> np.ndarray:
    """``vector_norm`` of each row, bit for bit: the root of ``np.vecdot``
    (``np.dot``'s bits), and ``row_norms`` where that overflows."""
    norms = np.sqrt(np.vecdot(a, a))
    big = np.isinf(norms)
    if big.any():
        norms[big] = row_norms(a[big])
    return norms


def _rule(params: SlqcParams, points: np.ndarray, gaps: np.ndarray, grads: np.ndarray):
    """The verdict rule on the value gaps and gradients at the rows of
    ``points``. Per row: the index of its ``Verdict``, the value gap,
    <-g, theta0 - theta>, rho ||g|| (0 where g = 0), and whether it lies in
    the epsilon/kappa ball, where only the value gap can hold (the cone
    condition would need a zero gradient)."""
    with np.errstate(all="ignore"):  # an overflow is an inf, as in float arithmetic
        to_center = params.theta0 - points
        inner = np.vecdot(-grads, to_center)
        grad_norms = _norms(grads)
        rho_grad = np.multiply(params.rho, grad_norms, out=np.zeros_like(grad_norms), where=grad_norms > 0.0)
        inside = _norms(to_center) <= params.rho
        cone = (grad_norms > 0.0) & ~inside & (inner - rho_grad >= -SLQC_TOL)
    kind = np.select([gaps <= params.epsilon + SLQC_TOL, cone], [0, 1], default=2)
    return kind, gaps, inner, rho_grad, inside


def _gap_error(gaps: np.ndarray, value_bounds: np.ndarray) -> np.ndarray:
    """Bound on |float gap - exact gap| for gaps fl(value - base) of float
    values within ``value_bounds`` of the exact ones."""
    return 2.0 * (value_bounds + 2.0 * _U * np.abs(gaps))


def _norm_error(norms: np.ndarray, grad_bounds: np.ndarray, d: int) -> np.ndarray:
    """Bound on |float norm - exact norm| (``_norms`` or ``row_norms``) for
    gradients whose coordinates lie within ``grad_bounds`` of the exact
    ones: sqrt(d) times that, plus each norm's rounding, (d/2 + 1) u."""
    return 2.0 * (math.sqrt(d) * grad_bounds + 2.0 * (d + 2) * _U * norms) + _TINY


def _verdicts(alpha: float, params: SlqcParams, points: np.ndarray, data: Dataset):
    """``_rule`` at the rows of ``points`` through the float filter: the
    kinds of every row, and the numbers of every row that may be Neither or
    hold the largest value gap or smallest cone margin, are those of
    ``_rule`` on exact sums (the largest gap always keeps a row, so a single
    point goes exact); the report never reads the other rows' float numbers."""
    base = risk_values(alpha, params.theta0, data)[0]
    means, bounds = float_means(points, data, (alpha,), alpha)
    grads, grad_bounds = means[:, 1:], bounds[:, 1]  # a point's gradient rows share one bound
    with np.errstate(all="ignore"):
        _, gaps, inner, rho_grad, inside = _rule(params, points, means[:, 0] - base, grads)
        e_gap = _gap_error(gaps, bounds[:, 0])
        norms = _norms(grads)
        e_norm = _norm_error(norms, grad_bounds, data.dim)
        offsets = np.abs(params.theta0 - points)
        spread = np.vecdot(np.abs(grads), offsets)  # sum |g_j (theta0 - theta)_j|
        e_inner = 2.0 * (grad_bounds * np.sum(offsets, axis=1) + 2.0 * data.dim * _U * spread) + _TINY
        e_rho = 2.0 * (params.rho * e_norm + 2.0 * _U * rho_grad)
        margins = inner - rho_grad
        e_margin = 2.0 * (e_inner + e_rho + 2.0 * _U * np.abs(margins))
        calm = spread + e_inner + norms + e_norm + rho_grad + e_rho < _CALM
        gap_lo, gap_hi = gaps - e_gap, gaps + e_gap
        margin_lo = margins - e_margin
        passes = gap_hi <= params.epsilon + SLQC_TOL
        fails = gap_lo > params.epsilon + SLQC_TOL
        cone = fails & calm & ~inside & (norms - e_norm > 0.0) & (margin_lo >= -SLQC_TOL)
        may_be_neither = ~(passes | cone)
        may_top_gap = may_hold_max(gap_lo, gap_hi)
        # The smallest cone margin is the largest negated one; only settled failing points bound it.
        may_least_margin = ~passes & may_hold_max(np.where(fails & calm, -(margins + e_margin), np.nan), -margin_lo)
    rows, found = exact_rows(lambda pts: risk_values_grads(alpha, pts, data), points,
                             may_be_neither | may_top_gap | may_least_margin)
    kind = np.where(passes, 0, 1)
    for whole, part in zip((kind, gaps, inner, rho_grad), _rule(params, points[rows], found[0] - base, found[1])):
        whole[rows] = part
    return kind, gaps, inner, rho_grad, inside


def _entry(points: np.ndarray, verdicts, i: int) -> dict:
    """The report entry of row i: the point, its verdict and the three
    numbers that decided it."""
    kind, gaps, inner, rho_grad, inside = verdicts
    entry = {
        "point": points[i].tolist(),
        "verdict": _KINDS[kind[i]].value,
        "value_gap": float(gaps[i]),
        "inner": float(inner[i]),
        "rho_grad_norm": float(rho_grad[i]),
    }
    if kind[i] and inside[i]:
        entry["note"] = "inside the epsilon/kappa ball with a failed value gap"
    return entry


def _ball_points(rng: RngState, dim: int, r: float, count: int, name: str) -> np.ndarray:
    """``count`` points drawn uniformly from the radius-r ball, one row each
    (``sample_ball_batch``: the points of ``count`` ``sample_ball`` calls)."""
    if count < 1:
        raise UsageError(f"{name} must be >= 1, got {count}")
    return sample_ball_batch(rng, dim, r, count)


def check_slqc_point(alpha: float, theta, params: SlqcParams, data: Dataset, r: float) -> dict:
    """Classify one point of the empirical alpha-risk against (eps, kappa,
    theta0): the entry that the sweep reports for a point. Both theta and
    theta0 must lie in the radius-r ball."""
    alpha = check_alpha(alpha)
    point = check_in_ball(theta, r, "theta")[None, :]
    check_in_ball(params.theta0, r, "theta0")
    return _entry(point, _verdicts(alpha, params, point, data), 0)


def slqc_sweep(alpha: float, params: SlqcParams, data: Dataset, r: float, n_points: int, rng: RngState) -> dict:
    """Sampled SLQC certificate: classify ``n_points`` uniform points of the
    radius-r ball and tally verdicts.

    Returns a report dict with verdict counts, the worst observed
    diagnostics (largest value gap; smallest cone margin among points past
    the gap), and up to ten Neither diagnostics. Zero Neither verdicts is
    sampled evidence for SLQC, not a proof; the report labels itself
    accordingly.
    """
    alpha = check_alpha(alpha)
    check_in_ball(params.theta0, r, "theta0")
    points = _ball_points(rng, data.dim, r, n_points, "n_points")
    verdicts = kind, gaps, inner, rho_grad, _ = _verdicts(alpha, params, points, data)
    worst_cone = float(np.min((inner - rho_grad)[kind > 0], initial=math.inf))
    return {
        "kind": "sampled SLQC sweep (necessary evidence, not a proof)",
        "params": {
            "epsilon": params.epsilon,
            "kappa": params.kappa,
            "theta0": [float(c) for c in params.theta0],
        },
        "n_points": n_points,
        "counts": {v.value: int(np.count_nonzero(kind == i)) for i, v in enumerate(_KINDS)},
        "worst_value_gap": float(np.max(gaps)),
        "worst_cone_margin": None if math.isinf(worst_cone) else worst_cone,
        "neither_diagnostics": [_entry(points, verdicts, i) for i in np.flatnonzero(kind == 2)[:10]],
    }


def strong_convexity_modulus(alpha: float, r: float, sigma_hat) -> float:
    """Strong-convexity modulus of the risk for alpha <= 1: the curvature
    floor times the smallest eigenvalue of the feature second moment."""
    return curvature_floor(alpha, r) * min_eigen_sym(sigma_hat)


def estimate_grad_infimum(
    alpha0: float,
    epsilon0: float,
    r: float,
    theta0,
    data: Dataset,
    budget: int,
    rng: RngState,
) -> float:
    """Sampled UPPER estimate of the infimum gradient norm over points of
    the radius-r ball whose risk exceeds the theta0 risk by more than
    epsilon0.

    Draws ``budget`` points uniformly from the ball and returns the
    smallest gradient norm among qualifying points; returns inf when no
    sampled point qualifies. Sampling can only over-estimate an infimum,
    so downstream windows computed from this value are optimistic;
    consumers should shrink it by a safety factor when that matters.

    One float pass, two exact calls, and the bits of exact sums: only
    points whose gap may lie on either side of epsilon0 get exact values,
    and only qualifying points that may hold the smallest norm get exact
    gradients, in a call drawn from the qualifying points alone.
    """
    alpha0 = check_alpha(alpha0)
    epsilon0 = float(epsilon0)
    if not (epsilon0 > 0.0):
        raise DomainError(f"epsilon0 must be positive, got {epsilon0!r}")
    points = _ball_points(rng, data.dim, r, budget, "budget")
    theta0 = as_vector(theta0, "theta0")
    base = risk_values(alpha0, theta0, data)[0]
    means, bounds = float_means(points, data, (alpha0,), alpha0)
    with np.errstate(all="ignore"):
        gaps = means[:, 0] - base
        e_gap = _gap_error(gaps, bounds[:, 0])
        qualifying = gaps - e_gap > epsilon0
        near = ~qualifying & ~(gaps + e_gap <= epsilon0)
    rows, values = exact_rows(lambda pts: risk_values(alpha0, pts, data), points, near)
    if rows.size:
        qualifying[rows] = values - base > epsilon0
    if not np.any(qualifying):
        return math.inf
    with np.errstate(all="ignore"):
        norms = row_norms(means[qualifying, 1:])
        e_norm = _norm_error(norms, bounds[qualifying, 1], data.dim)
        # The smallest norm is the largest of the negated intervals.
        least = may_hold_max(-(norms + e_norm), e_norm - norms) | ~(norms + e_norm < _CALM)
    _, grads = exact_rows(lambda pts: risk_grads(alpha0, pts, data), points[qualifying], least)
    return float(np.min(row_norms(grads)))


# ---------------------------------------------------------------------------
# Evolution of (epsilon, epsilon/kappa) in alpha.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionRow:
    """SLQC parameters claimed at one alpha; no claim outside the window."""

    alpha: float
    epsilon: float | None
    rho: float | None
    in_window: bool


def _check_evolution_inputs(alpha0, epsilon0, kappa0, r, grad_inf, allow_infinite_grad_inf):
    alpha0 = check_alpha(alpha0)
    if math.isinf(alpha0) or alpha0 < 1.0:
        raise DomainError(f"base order must be finite and >= 1, got {alpha0!r}")
    epsilon0 = check_positive_finite(epsilon0, "epsilon0")
    kappa0 = check_positive_finite(kappa0, "kappa0")
    r = check_positive_finite(r, "radius")
    grad_inf = float(grad_inf)
    if math.isnan(grad_inf) or grad_inf <= 0.0:
        raise DomainError(f"gradient infimum must be positive, got {grad_inf!r}")
    if math.isinf(grad_inf) and not allow_infinite_grad_inf:
        raise DomainError(
            "gradient infimum is the empty-set sentinel inf; pass "
            "allow_infinite_grad_inf=True to treat the window as unbounded"
        )
    return alpha0, epsilon0, kappa0, r, grad_inf


def evolution_window(alpha0: float, epsilon0: float, kappa0: float, r: float, grad_inf: float,
                     allow_infinite_grad_inf: bool = False) -> float:
    """Width of the admissible increase alpha - alpha0: the evolution
    formulas hold strictly below this value."""
    alpha0, epsilon0, kappa0, r, grad_inf = _check_evolution_inputs(
        alpha0, epsilon0, kappa0, r, grad_inf, allow_infinite_grad_inf
    )
    j = grad_lipschitz_in_inv_alpha(r)
    return alpha0 * alpha0 * grad_inf / (2.0 * j * (1.0 + r * kappa0 / epsilon0))


def evolve_bounds(
    alpha0: float,
    epsilon0: float,
    kappa0: float,
    r: float,
    grad_inf: float,
    alphas,
    allow_infinite_grad_inf: bool = False,
) -> list[EvolutionRow]:
    """SLQC parameters (epsilon, rho = epsilon/kappa) at each requested
    alpha >= alpha0, given that the base risk is (epsilon0, kappa0,
    theta0)-SLQC and the gradient infimum over the high-risk region is
    ``grad_inf``.

    Within the window, epsilon grows linearly with slope twice the
    risk's Lipschitz constant in 1/alpha, and rho contracts by the
    closed-form factor; rows outside the window carry no claim. At
    alpha = alpha0 the outputs equal the inputs exactly. An in-window
    row whose epsilon or rho is not finite (an order so large that the
    formulas overflow) raises NumericError.
    """
    alpha0, epsilon0, kappa0, r, grad_inf = _check_evolution_inputs(
        alpha0, epsilon0, kappa0, r, grad_inf, allow_infinite_grad_inf
    )
    window = evolution_window(alpha0, epsilon0, kappa0, r, grad_inf, allow_infinite_grad_inf)
    big_l = lipschitz_in_inv_alpha(r)
    j = grad_lipschitz_in_inv_alpha(r)
    rho0 = epsilon0 / kappa0
    rows = []
    for alpha in alphas:
        alpha = check_alpha(alpha)
        if alpha < alpha0:
            raise UsageError(f"evolution targets must satisfy alpha >= alpha0, got {alpha!r} < {alpha0!r}")
        delta = alpha - alpha0
        if not (delta < window):
            rows.append(EvolutionRow(alpha, None, None, False))
            continue
        eps = epsilon0 + 2.0 * big_l * delta
        denom = alpha * alpha0 * grad_inf - j * delta
        frac = (1.0 + 2.0 * r * kappa0 / epsilon0) * j * delta / denom
        rho = rho0 * (1.0 - frac)
        if not (math.isfinite(eps) and math.isfinite(rho)):
            raise NumericError(f"evolution bounds at alpha = {alpha!r} are not finite (epsilon {eps!r}, rho {rho!r})")
        rows.append(EvolutionRow(alpha, eps, rho, True))
    return rows


def evolution_to_csv(rows) -> str:
    """Serialize evolution rows: header alpha,epsilon,rho,in_window; rows
    outside the window leave epsilon and rho empty."""
    return csv_text(["alpha", "epsilon", "rho", "in_window"], ((r.alpha, r.epsilon, r.rho, r.in_window) for r in rows))
