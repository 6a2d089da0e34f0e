"""The alpha-loss family in the logistic model.

A single order parameter ``alpha`` in (0, inf] interpolates between the
exponential loss (alpha = 1/2), the log-loss (alpha = 1), and a soft 0-1
loss (alpha = inf). On a soft classifier probability p in (0, 1]:

    loss(alpha, p) = alpha/(alpha-1) * (1 - p^(1-1/alpha))

with the continuous extensions -log(p) at alpha = 1 and 1 - p at
alpha = inf. In the logistic model the probability assigned to the true
label is sigmoid(margin) with margin = y * <theta, x>, which gives the
pointwise loss closed-form gradient and Hessian factors implemented here,
along with the landscape constants used by the certificate modules: the
curvature floor of the Hessian factor over a parameter ball, the loss's
Lipschitz constant in theta, and the Lipschitz constants of the risk and
its gradient with respect to 1/alpha.

Each per-sample quantity has one formula, a map over log p (``*_from_logp``).
The loss and the gradient weight pick their branch once per order
(``loss_map``, ``neg_grad_weight_map``), so a caller that evaluates one
order many times, such as the ``value_and_grad`` oracle, resolves its maps
once; ``loss_from_logp`` and ``grad_weight_from_logp`` apply them, and
``loss_sum_map`` gives the row sums of ``loss_map``.

Numerical policy: every power p^(1-1/alpha) is evaluated as
exp((1-1/alpha) * log p) with log p obtained from log_sigmoid, so large
negative margins neither underflow nor lose precision; the generic-alpha
branch uses expm1 so it stays accurate arbitrarily close to alpha = 1.
Infinity is the exact float inf (exponent exactly 1), never a large
stand-in value; a finite alpha so small that 1/alpha overflows is
rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .numerics import as_vector, check_positive_finite, log_sigmoid, sigmoid, vector_norm

INFINITY = math.inf

# |1 - 1/alpha| below this switches to the exact log-loss limit branch.
LOG_BRANCH_TOL = 1e-6

# Feature vectors and model points may exceed their balls by this slack.
UNIT_BALL_TOL = 1e-9

__all__ = [
    "INFINITY",
    "LOG_BRANCH_TOL",
    "UNIT_BALL_TOL",
    "check_alpha",
    "check_in_ball",
    "is_log_order",
    "parse_alpha",
    "format_alpha",
    "alpha_loss",
    "curvature_floor",
    "lipschitz_in_theta",
    "lipschitz_in_inv_alpha",
    "grad_lipschitz_in_inv_alpha",
]


def check_alpha(alpha: float) -> float:
    """Validate the order parameter: a real in (0, inf) or exactly inf,
    whose reciprocal is finite (below ~5.6e-309, 1/alpha overflows)."""
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive (or inf), got {alpha!r}")
    if math.isinf(1.0 / alpha):
        raise DomainError(f"alpha {alpha!r} is too small: 1/alpha overflows")
    return alpha


def parse_alpha(token: str) -> float:
    """Parse an alpha from CLI text: a decimal or the literal ``inf``."""
    text = token.strip().lower()
    if text == "inf":
        return INFINITY
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"cannot parse alpha from {token!r}") from None
    return check_alpha(value)


def format_alpha(alpha: float) -> str:
    """Shortest round-trip text for an alpha (``inf`` for the infinite one)."""
    return "inf" if math.isinf(alpha) else repr(float(alpha))


def _exponent(alpha: float) -> float:
    """The power 1 - 1/alpha; exactly 1.0 at alpha = inf."""
    return 1.0 - 1.0 / alpha  # 1/inf == 0.0 exactly


def _loss_exponent(alpha: float) -> float | None:
    """1 - 1/alpha, or None where the loss is exactly -log p: |1 - 1/alpha| < LOG_BRANCH_TOL."""
    u = _exponent(alpha)
    return None if abs(u) < LOG_BRANCH_TOL else u


def is_log_order(alpha: float) -> bool:
    """Whether the loss at this order is exactly -log p (see ``_loss_exponent``)."""
    return _loss_exponent(check_alpha(alpha)) is None


def check_in_ball(theta, r: float, name: str) -> np.ndarray:
    """``theta`` as a finite 1-D array, which must lie in the radius-r ball
    up to UNIT_BALL_TOL; UsageError naming ``name`` and its norm otherwise.
    The norm is ``vector_norm``, finite wherever the norm itself is."""
    theta = as_vector(theta, name)
    r = check_positive_finite(r, "radius")
    with np.errstate(over="ignore"):
        norm = vector_norm(theta)
    if norm > r + UNIT_BALL_TOL:
        raise UsageError(f"{name} norm {norm!r} exceeds the radius-{r} ball (tolerance {UNIT_BALL_TOL:.0e})")
    return theta


# ---------------------------------------------------------------------------
# Pointwise loss.
# ---------------------------------------------------------------------------


def alpha_loss(alpha: float, p: float) -> float:
    """Pointwise loss of assigning probability p in (0, 1] to the true label."""
    alpha = check_alpha(alpha)
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    if math.isinf(alpha):
        return 1.0 - p
    u = _loss_exponent(alpha)
    if u is None:
        return -math.log(p)
    try:
        return -math.expm1(u * math.log(p)) / u
    except OverflowError:
        raise NumericError(f"the alpha-loss overflows at alpha {alpha!r}, p {p!r}") from None


# ---------------------------------------------------------------------------
# Maps over log-probability arrays: one formula per quantity.
# ---------------------------------------------------------------------------


def _negate(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-x into ``out``, as the product x * -1.0, which has the bits of
    ``np.negative`` for every input but NaN (whose sign bit a product may
    keep). numpy 2.4's AVX-512 ``np.negative`` writes wrong values when it
    works in place on a view whose elements lie 64 bytes apart, such as a
    terms row of one sample in a block of eight rows
    (``test_risk.py::TestEvaluationKernel::test_eight_orders_of_one_sample``)."""
    return np.multiply(x, -1.0, out=out)


def loss_map(alpha: float):
    """The loss map of one order, with its branch (infinite order, log
    order, other) chosen once: ``map(logp, out)`` writes the pointwise
    losses of the log-probabilities ``logp`` into ``out`` (a float array of
    logp's shape, which may be ``logp`` itself) and returns it. A caller
    evaluating one order many times resolves its map once."""
    alpha = check_alpha(alpha)
    if math.isinf(alpha):
        def one_minus_p(logp, out):
            np.expm1(logp, out=out)
            return _negate(out, out)  # 1 - p, stable for p near 1
        return one_minus_p
    u = _loss_exponent(alpha)
    if u is None:
        return lambda logp, out: _negate(logp, out)

    def power(logp, out):  # -expm1(u log p) / u, the sign moved into the divisor
        np.multiply(u, logp, out=out)
        np.expm1(out, out=out)
        return np.divide(out, -u, out=out)
    return power


def loss_sum_map(alpha: float):
    """The row sums of ``loss_map``, with its branch chosen once:
    ``sums(logp, tmp)`` returns the pairwise sums of the loss rows of the
    2-D ``logp``, with ``tmp`` (logp's shape) as scratch. At the log and
    infinite orders it sums log p or expm1(log p) and negates the sum,
    which saves writing the negated rows. Negation is exact, rounding to
    nearest is sign-symmetric, and log p and expm1(log p) are never
    positive, so each sum has the bits of the pairwise sum of the
    ``loss_map`` row, but for the sign of a zero sum (a row of zeros)."""
    alpha = check_alpha(alpha)
    if math.isinf(alpha):
        return lambda logp, tmp: -np.add.reduce(np.expm1(logp, out=tmp), axis=1)
    if _loss_exponent(alpha) is None:
        return lambda logp, tmp: -np.add.reduce(logp, axis=1)
    loss = loss_map(alpha)
    return lambda logp, tmp: np.add.reduce(loss(logp, tmp), axis=1)


def neg_grad_weight_map(alpha: float):
    """The gradient-weight map of one order, chosen once: ``map(logp, out,
    tmp)`` writes -w = p^(1-1/alpha) * expm1(log p), the negated weight
    (see ``grad_weight_from_logp``), into ``out`` (which may be ``logp``
    itself) and expm1(log p) into ``tmp``, and returns ``out``. IEEE
    products are sign-symmetric, so -w has the bits of the negated w.

    At alpha = 1 the power 1 - 1/alpha is exactly 0.0, so p^0 = exp(0.0 *
    log p) = 1.0 and 1.0 * x = x for every finite log p: the map is one
    ``expm1`` into ``out``, with the same bits, and leaves ``tmp``
    unwritten. At log p = -inf (a margin that overflowed) it gives the
    weight's limit, -1, where the formula's 0 * inf would give NaN."""
    u = _exponent(check_alpha(alpha))
    if u == 0.0:
        return lambda logp, out, tmp: np.expm1(logp, out=out)

    def neg_weight(logp, out, tmp):
        np.expm1(logp, out=tmp)  # before ``out``, which may alias logp
        np.multiply(u, logp, out=out)
        np.exp(out, out=out)
        return np.multiply(out, tmp, out=out)
    return neg_weight


def loss_from_logp(alpha: float, logp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise losses from precomputed log-probabilities (so several
    orders can share one log_sigmoid pass over the same margins), into
    ``out`` (a float array of logp's shape, which may be ``logp`` itself;
    made when it is None): ``loss_map(alpha)`` applied once."""
    logp = np.asarray(logp, dtype=float)
    return loss_map(alpha)(logp, np.empty_like(logp) if out is None else out)


def grad_weight_from_logp(alpha: float, logp: np.ndarray, out: np.ndarray | None = None,
                          tmp: np.ndarray | None = None) -> np.ndarray:
    """Nonnegative weights w with gradient factor -y * w, from log p:
    w = p^(1-1/alpha) * (1-p), with 1-p evaluated as -expm1(log p): the
    negation of ``neg_grad_weight_map``. ``out`` (which may be ``logp``
    itself) receives w and ``tmp`` expm1(log p), except at alpha = 1,
    where ``tmp`` is left as it was; each is a float array of logp's
    shape, made when it is None."""
    logp = np.asarray(logp, dtype=float)
    neg = neg_grad_weight_map(alpha)(logp, np.empty_like(logp) if out is None else out,
                                     np.empty_like(logp) if tmp is None else tmp)
    return _negate(neg, neg)


def hess_factor_from_logp(alpha: float, logp: np.ndarray) -> np.ndarray:
    """Hessian factors from log p:
    p^(1-1/alpha) * (p(1-p) - (1-1/alpha)(1-p)^2)."""
    alpha = check_alpha(alpha)
    u = _exponent(alpha)
    logp = np.asarray(logp, dtype=float)
    p = np.exp(logp)
    q = -np.expm1(logp)
    return np.exp(u * logp) * (p * q - u * q * q)


# ---------------------------------------------------------------------------
# Closed-form landscape constants.
# ---------------------------------------------------------------------------


def curvature_floor(alpha: float, r: float) -> float:
    """Lower bound of the Hessian factor over margins in [-r, r], valid for
    alpha in (0, 1]; equals the factor evaluated at margin r.

    Strictly positive, and monotonically decreasing in alpha at fixed r, so
    the risk's strong-convexity modulus grows as alpha shrinks.
    """
    alpha = check_alpha(alpha)
    r = check_positive_finite(r, "radius")
    if alpha > 1.0:
        raise DomainError(f"curvature floor requires alpha <= 1, got {alpha!r}")
    u = _exponent(alpha)
    p = sigmoid(r)
    q = sigmoid(-r)
    try:
        floor = math.exp(u * log_sigmoid(r)) * (p * q - u * q * q)
    except OverflowError:
        floor = math.inf
    if math.isinf(floor):  # the power, or its product with the bracket, passes the float range
        raise NumericError(f"the curvature floor overflows at alpha {alpha!r}, radius {r!r}")
    return floor


def lipschitz_in_theta(alpha: float, r: float) -> float:
    """Lipschitz constant of the risk in theta over the radius-r ball:
    sigmoid(r) * (1 - sigmoid(r))^(1-1/alpha), for alpha in (0, 1].

    Grows without bound as alpha decreases to 0 at fixed r.
    """
    alpha = check_alpha(alpha)
    r = check_positive_finite(r, "radius")
    if alpha > 1.0:
        raise DomainError(f"lipschitz_in_theta requires alpha <= 1, got {alpha!r}")
    u = _exponent(alpha)
    try:
        return sigmoid(r) * math.exp(u * log_sigmoid(-r))
    except OverflowError:
        raise NumericError(f"the Lipschitz constant in theta overflows at alpha {alpha!r}, radius {r!r}") from None


def lipschitz_in_inv_alpha(r: float) -> float:
    """Lipschitz constant of the risk with respect to 1/alpha on alpha in
    [1, inf]: (r + log 2)^2 / 2."""
    r = check_positive_finite(r, "radius")
    try:
        return (r + math.log(2.0)) ** 2 / 2.0
    except OverflowError:
        raise NumericError(f"the Lipschitz constant in 1/alpha, (r + log 2)^2 / 2, overflows at radius {r!r}") from None


def grad_lipschitz_in_inv_alpha(r: float) -> float:
    """Lipschitz constant of the risk gradient with respect to 1/alpha on
    alpha in [1, inf]: (r + log 2) * sigmoid(r)."""
    r = check_positive_finite(r, "radius")
    return (r + math.log(2.0)) * sigmoid(r)
