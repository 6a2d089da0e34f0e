"""Discrete-distribution layer: alpha-risk of arbitrary posteriors, the
tilted optimal posterior, Arimoto conditional entropy, and the minimal
alpha-risk.

For a joint distribution over (feature, label) and a candidate posterior
Q(label | feature), the alpha-risk is the joint-weighted mean of the
pointwise alpha-loss of Q at the true label. Its minimum over posteriors
has a closed form through the order-alpha Arimoto conditional entropy,
and the unique minimizer is the true posterior tilted by the power alpha
and renormalized. All entropies and logarithms are natural (nats).

The Arimoto conditional entropy implemented here is the standard form

    H_a(Y|X) = a/(1-a) * log sum_x ( sum_y P(x,y)^a )^(1/a),

i.e. an order-a norm over labels inside, summed over features outside.
Everything is evaluated in the log domain so very large finite orders do
not underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParseError, UsageError
from .loss import alpha_loss, check_alpha, is_log_order
from .numerics import read_text

PROB_SUM_TOL = 1e-12

__all__ = [
    "PROB_SUM_TOL",
    "DiscreteJoint",
    "Posterior",
    "discrete_alpha_risk",
    "tilted_posterior",
    "arimoto_cond_entropy",
    "min_alpha_risk",
    "load_matrix_csv",
]


def _validated_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise UsageError(f"{name} must be a 2-D matrix with at least one row and column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise DomainError(f"{name} entry ({bad[0]}, {bad[1]}) is not finite")
    if np.any(arr < 0.0):
        bad = np.argwhere(arr < 0.0)[0]
        raise DomainError(f"{name} entry ({bad[0]}, {bad[1]}) is negative: {arr[bad[0], bad[1]]!r}")
    return arr


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint probability matrix, rows = feature values, columns = labels."""

    p: np.ndarray

    def __post_init__(self):
        arr = _validated_matrix(self.p, "joint")
        total = math.fsum(arr.ravel().tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"joint must sum to 1 within {PROB_SUM_TOL:.0e}, got {total!r}")
        object.__setattr__(self, "p", arr)

    @property
    def n_x(self) -> int:
        return self.p.shape[0]

    @property
    def n_y(self) -> int:
        return self.p.shape[1]

    def marginal_x(self) -> np.ndarray:
        return self.p.sum(axis=1)


@dataclass(frozen=True)
class Posterior:
    """Conditional probability matrix; every row sums to 1."""

    q: np.ndarray

    def __post_init__(self):
        arr = _validated_matrix(self.q, "posterior")
        sums = arr.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > PROB_SUM_TOL)[0]
        if bad.size:
            raise DomainError(
                f"posterior row {bad[0]} must sum to 1 within {PROB_SUM_TOL:.0e}, got {sums[bad[0]]!r}"
            )
        object.__setattr__(self, "q", arr)


def discrete_alpha_risk(joint: DiscreteJoint, posterior: Posterior, alpha: float) -> float:
    """Joint-weighted alpha-risk of a posterior.

    A zero posterior probability on a label carrying joint mass costs inf
    for alpha <= 1, the finite saturation value alpha/(alpha - 1) for
    alpha in (1, inf), and 1 at alpha = inf.
    """
    alpha = check_alpha(alpha)
    if posterior.q.shape != joint.p.shape:
        raise UsageError(f"posterior shape {posterior.q.shape} does not match joint shape {joint.p.shape}")
    cells = joint.p > 0.0
    mass, q = joint.p[cells].tolist(), posterior.q[cells].tolist()
    if alpha <= 1.0 and 0.0 in q:
        return math.inf
    return math.fsum([_cell_risk(alpha, m, v) for m, v in zip(mass, q)])


def _cell_risk(alpha: float, mass: float, q: float) -> float:
    """mass times the alpha-loss of q, or its limit at q = 0 for alpha > 1, in
    math: numpy's log and expm1 round differently in places."""
    if q > 0.0:
        return mass * alpha_loss(alpha, q)
    if math.isinf(alpha):
        return mass
    return mass * alpha / (alpha - 1.0)


def _scaled_powers(m: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of m ** alpha over its largest entry, in the log domain (zeros stay zero), and that entry's log."""
    pos = m > 0.0
    logs = np.full_like(m, -math.inf)
    logs[pos] = alpha * np.log(m[pos])
    shifts = logs.max(axis=1, keepdims=True)
    return np.exp(logs - shifts), shifts[:, 0]


def tilted_posterior(joint: DiscreteJoint, alpha: float) -> Posterior:
    """The risk-minimizing posterior: true conditional rows raised to the
    power alpha and renormalized.

    alpha = 1 returns the true posterior; alpha = inf puts equal mass on
    every exactly-tied argmax label. Feature rows with zero marginal mass
    have no defined conditional; they are filled uniformly, contribute to
    no risk, and trigger a warning.
    """
    alpha = check_alpha(alpha)
    marg = joint.marginal_x()
    full = marg > 0.0
    out = np.full_like(joint.p, 1.0 / joint.n_y)  # a massless row stays a uniform placeholder
    cond = joint.p[full] / marg[full, None]
    if math.isinf(alpha):
        top = cond == cond.max(axis=1, keepdims=True)
        cond = top / top.sum(axis=1, keepdims=True)
    elif not is_log_order(alpha):
        weights = _scaled_powers(cond, alpha)[0]
        cond = weights / weights.sum(axis=1, keepdims=True)
    out[full] = cond
    if not full.all():
        warnings.warn(
            f"joint rows {np.flatnonzero(~full).tolist()} have zero marginal mass; tilted rows are uniform placeholders",
            RuntimeWarning,
            stacklevel=2,
        )
    return Posterior(out)


def arimoto_cond_entropy(joint: DiscreteJoint, alpha: float) -> float:
    """Order-alpha Arimoto conditional entropy of the label given the
    feature, in nats; Shannon at alpha = 1, -log(sum of row maxima) at
    alpha = inf. Lies in [0, log n_labels]."""
    alpha = check_alpha(alpha)
    if math.isinf(alpha):
        return -math.log(math.fsum(joint.p.max(axis=1).tolist()))
    if is_log_order(alpha):
        rows, cols = np.nonzero(joint.p)  # Shannon: the log-loss of the true posterior
        mass = joint.p[rows, cols]
        cond = mass / joint.marginal_x()[rows]
        return math.fsum([-m * math.log(c) for m, c in zip(mass.tolist(), cond.tolist())])
    # log of sum_x (sum_y p^alpha)^(1/alpha) over the rows with mass. A row
    # sums only its positive entries: zeros would regroup numpy's pairwise sum.
    p = joint.p[joint.marginal_x() > 0.0]
    weights, shifts = _scaled_powers(p, alpha)
    row_logs = [(s + math.log(w[m].sum())) / alpha for s, w, m in zip(shifts.tolist(), weights, p > 0.0)]
    shift = max(row_logs)
    log_s = shift + math.log(math.fsum([math.exp(v - shift) for v in row_logs]))
    return alpha / (1.0 - alpha) * log_s


def min_alpha_risk(joint: DiscreteJoint, alpha: float) -> float:
    """Minimal achievable alpha-risk over all posteriors:
    alpha/(alpha-1) * (1 - exp((1-alpha)/alpha * H_alpha)), with the
    limits H(Y|X) at alpha = 1 and 1 - exp(-H_inf) at alpha = inf."""
    alpha = check_alpha(alpha)
    entropy = arimoto_cond_entropy(joint, alpha)
    if math.isinf(alpha):
        return -math.expm1(-entropy)
    if is_log_order(alpha):
        return entropy
    try:
        return -math.expm1((1.0 - alpha) / alpha * entropy) * alpha / (alpha - 1.0)
    except OverflowError:
        raise NumericError(f"the minimal alpha-risk overflows at alpha {alpha!r}") from None


def load_matrix_csv(path) -> np.ndarray:
    """Load a plain CSV matrix of probabilities (row = feature, column =
    label). Raises ParseError with the offending line number."""
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",")
        if rows and len(fields) != len(rows[0]):
            raise ParseError(f"{path}: line {lineno}: expected {len(rows[0])} fields, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric entry") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)
