"""Empirical risk of the alpha-loss over a dataset, with gradient and
Hessian, landscape grid scans, and the saturation-distance scan.

The population risk is an expectation; this artifact works with its
empirical counterpart over seeded finite samples and says so in every
output's metadata. Every sample sum is exactly rounded: the result is the
bits of ``math.fsum`` over the row, which makes every risk value
independent of summation order and therefore identical across platforms,
block layouts and worker counts for a batch of two or more points.

``exact_row_sums`` computes those bits with numpy reductions, after the
small superaccumulators of Neal (2015, arXiv:1505.05571). Each entry is
split by exponent into two halves whose per-(row, exponent) bin sums stay
exact in float64; one ``math.fsum`` over the few scaled bin sums per row
then rounds the exact total once. Rows holding non-finite entries, or
magnitudes whose rescaling could overflow, go through ``math.fsum``
directly, which also stays the tests' oracle. Every value, gradient and
Hessian starts from one margin pass to log p (``_logp``); values and
gradients share one terms formula (``_terms``) and one block driver
(``_means``). The margin matmul rounds a one-row batch differently, so a
one-point call agrees with a batch only up to rounding. Grid scans take
every order they need from one margin pass over the grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .loss import (
    Sample,
    UNIT_BALL_TOL,
    check_alpha,
    format_alpha,
    grad_weight_from_logp,
    hess_factor_from_logp,
    loss_from_logp,
)
from .numerics import check_positive_finite, csv_text, log_sigmoid_vec

MAX_GRID_NODES = 10_000_000

# Cap on elements per evaluation block; keeps intermediates ~tens of MB.
_BLOCK_ELEMENTS = 4_000_000

# Cap on elements per exact-sum chunk; keeps the reducer's temporaries ~MB
# and every bin sum far below 2^53.
_SUM_CHUNK = 1 << 16
# Mantissa split point: the high half is an integer below 2^27, the low
# half lies on a 2^-26 grid, so bin sums of either stay exact. Both halves
# keep only bits of the entry, so rescaled bin sums are exact down to the
# subnormals.
_SPLIT_BITS = 27
# Largest frexp exponent whose bin sums rescale far from overflow; chunks
# with larger entries (above ~1e289) use math.fsum.
_EXP_MAX = 960

__all__ = [
    "Dataset",
    "GridSpec",
    "LandscapeTable",
    "empirical_risk",
    "empirical_risk_grad",
    "empirical_risk_hess",
    "value_and_grad",
    "risk_values",
    "risk_values_multi",
    "risk_grads",
    "risk_values_grads",
    "exact_row_sums",
    "landscape_scan",
    "landscape_scans",
    "saturation_sup",
    "saturation_sups",
]


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors in the unit ball; immutable once built."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=float))
        ys = np.asarray(self.ys)
        if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] < 1:
            raise UsageError(f"features must be a nonempty 2-D array, got shape {xs.shape}")
        if ys.shape != (xs.shape[0],):
            raise UsageError(f"labels shape {ys.shape} does not match {xs.shape[0]} samples")
        if not np.all(np.isfinite(xs)):
            raise DomainError("features contain non-finite entries")
        if not np.all(np.isin(ys, (-1, 1))):
            raise DomainError("labels must be -1 or +1")
        norms = np.linalg.norm(xs, axis=1)
        worst = float(np.max(norms))
        if worst > 1.0 + UNIT_BALL_TOL:
            raise DomainError(
                f"feature norm {worst!r} exceeds the unit ball (tolerance {UNIT_BALL_TOL:.0e})"
            )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", np.ascontiguousarray(ys.astype(np.int64)))
        # Label-signed features: margins are theta . (y x). A plain
        # attribute, not a field, so equality and repr are unchanged.
        object.__setattr__(self, "signed", xs * self.ys[:, None])

    @classmethod
    def from_samples(cls, samples) -> "Dataset":
        samples = list(samples)
        if not samples:
            raise UsageError("dataset must contain at least one sample")
        dims = {s.dim for s in samples}
        if len(dims) != 1:
            raise UsageError(f"samples disagree on dimension: {sorted(dims)}")
        return cls(np.stack([s.x for s in samples]), np.array([s.y for s in samples]))

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def samples(self) -> Iterator[Sample]:
        for i in range(self.n):
            yield Sample(self.xs[i], int(self.ys[i]))

    def second_moment(self) -> np.ndarray:
        """Sample mean of x x^T (exactly-rounded entry sums)."""
        return _second_moment(self.xs)

    def content_digest(self) -> str:
        """Short stable identifier of the dataset contents."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.xs).tobytes())
        h.update(np.ascontiguousarray(self.ys).tobytes())
        return h.hexdigest()[:16]


def _as_points(thetas, data: Dataset) -> np.ndarray:
    """Validate one point or an (m, d) array of points for ``data``."""
    pts = np.asarray(thetas, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise UsageError(f"expected an (m, d) array of points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("parameter points contain non-finite entries")
    if pts.shape[1] != data.dim:
        raise UsageError(f"theta dim {pts.shape[1]} does not match dataset dim {data.dim}")
    return pts


def _as_point(theta, data: Dataset) -> np.ndarray:
    """Validate one point, 1-D or a (1, d) array, as a (1, d) array."""
    pts = _as_points(theta, data)
    if len(pts) != 1:
        raise UsageError(f"expected one point, got an array of {len(pts)} points")
    return pts


def _logp(pts: np.ndarray, data: Dataset) -> np.ndarray:
    """The margin pass every risk quantity starts from: log p of the true
    label, one row per point and one column per sample."""
    return log_sigmoid_vec(pts @ data.signed.T)


def _blocks(m: int, width: int) -> Iterator[slice]:
    """Blocks of m points, max(2, _BLOCK_ELEMENTS // width) each; a one-point tail joins the last."""
    rows = max(2, _BLOCK_ELEMENTS // width)
    stops = [*range(rows, m - 1, rows), m] if m else []
    for start, stop in zip([0, *stops], stops):
        yield slice(start, stop)


def _fsum_row(row: np.ndarray) -> float:
    try:
        return math.fsum(row.tolist())
    except (ValueError, OverflowError) as exc:
        raise NumericError(f"sample sum is undefined: {exc}") from None


def _bin_terms(chunk: np.ndarray) -> np.ndarray | None:
    """Per row of ``chunk``, its per-exponent bin sums scaled back to
    values: terms whose exact sum is the row's exact sum. None when the
    chunk holds non-finite entries or entries above 2^_EXP_MAX."""
    mant, exps = np.frexp(chunk)
    lo_exp, hi_exp = int(exps.min()), int(exps.max())
    if hi_exp > _EXP_MAX:
        return None
    rows = chunk.shape[0]
    span = hi_exp - lo_exp + 1
    size = rows * span
    # Bin of entry (i, e) is i * span + (e - lo_exp).
    bins = (exps - (lo_exp - np.arange(0, size, span)[:, None])).ravel()
    mant *= 2.0 ** _SPLIT_BITS
    high = np.trunc(mant)
    with np.errstate(invalid="ignore"):  # inf - inf marks non-finite entries
        mant -= high
    sums = np.stack([np.bincount(bins, high.ravel(), size).reshape(rows, span),
                     np.bincount(bins, mant.ravel(), size).reshape(rows, span)], axis=1)
    if not np.isfinite(sums).all():  # inf or nan entries leave nan low halves
        return None
    scale = np.arange(lo_exp - _SPLIT_BITS, lo_exp - _SPLIT_BITS + span)
    return np.ldexp(sums, scale).reshape(rows, 2 * span)


def exact_row_sums(block) -> np.ndarray:
    """Exactly-rounded sum of each row of a 2-D block: the bits of
    ``math.fsum(row.tolist())``, from numpy bin reductions in chunks of at
    most 2^16 elements. A row with both +inf and -inf has no sum and raises
    NumericError; a row with infinities of one sign sums to that infinity.
    """
    block = np.asarray(block, dtype=float)
    rows, n = block.shape
    out = np.zeros(rows)
    if n == 0:
        return out
    cols = min(n, _SUM_CHUNK)
    step = _SUM_CHUNK // cols
    for start in range(0, rows, step):
        group = block[start:start + step]
        parts = [_bin_terms(group[:, c:c + cols]) for c in range(0, n, cols)]
        if any(part is None for part in parts):
            out[start:start + step] = [_fsum_row(row) for row in group]
        else:
            terms = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            out[start:start + step] = [math.fsum(row) for row in terms.tolist()]
    return out


def _second_moment(xs: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Sample mean of w * x x^T (w = 1 when omitted), with exact entry sums."""
    n, d = xs.shape
    scaled = xs if weights is None else weights[:, None] * xs
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    means = exact_row_sums(np.stack([scaled[:, j] * xs[:, k] for j, k in pairs])) / n
    out = np.empty((d, d))
    for (j, k), v in zip(pairs, means):
        out[j, k] = out[k, j] = v
    return out


def _terms(logp: np.ndarray, data: Dataset, alphas, grad_alpha=None) -> np.ndarray:
    """Per row of ``logp``, one loss row per order in ``alphas``, then one
    gradient row per coordinate at ``grad_alpha`` if set: (points * rows, n)."""
    out = np.empty((len(logp), len(alphas) + (0 if grad_alpha is None else data.dim), data.n))
    for j, alpha in enumerate(alphas):
        out[:, j] = loss_from_logp(alpha, logp)
    if grad_alpha is not None:
        np.multiply(-grad_weight_from_logp(grad_alpha, logp)[:, None], data.signed.T, out=out[:, len(alphas):])
    return out.reshape(-1, data.n)


def _means(thetas, data: Dataset, alphas=(), grad_alpha=None) -> np.ndarray:
    """(points, rows) means of the ``_terms`` rows: one margin pass and one exact sum per block."""
    alphas = [check_alpha(a) for a in alphas]
    grad_alpha = None if grad_alpha is None else check_alpha(grad_alpha)
    pts = _as_points(thetas, data)
    out = np.empty((len(pts), len(alphas) + (0 if grad_alpha is None else data.dim)))
    for sl in _blocks(len(pts), (1 + out.shape[1]) * data.n):
        sums = exact_row_sums(_terms(_logp(pts[sl], data), data, alphas, grad_alpha))
        out[sl] = sums.reshape(out[sl].shape) / data.n
    return out


def risk_values_multi(alphas, thetas, data: Dataset) -> np.ndarray:
    """Empirical risks at each row of ``thetas`` for several orders at once,
    sharing one margin and log-probability pass; returns (points, orders)."""
    return _means(thetas, data, alphas)


def risk_values(alpha: float, thetas, data: Dataset) -> np.ndarray:
    """Empirical risks at each row of ``thetas``; blocked but order-exact."""
    return risk_values_multi([alpha], thetas, data)[:, 0]


def risk_grads(alpha: float, thetas, data: Dataset) -> np.ndarray:
    """Empirical risk gradients at each row of ``thetas``."""
    return _means(thetas, data, grad_alpha=alpha)


def risk_values_grads(alpha: float, thetas, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Empirical risks and gradients at each row of ``thetas``, one pass."""
    means = _means(thetas, data, (alpha,), alpha)
    return means[:, 0], means[:, 1:]


def empirical_risk(alpha: float, theta, data: Dataset) -> float:
    """Mean pointwise loss over the dataset at parameter ``theta``."""
    return float(risk_values(alpha, _as_point(theta, data), data)[0])


def empirical_risk_grad(alpha: float, theta, data: Dataset) -> np.ndarray:
    """Gradient of the empirical risk at ``theta``."""
    return risk_grads(alpha, _as_point(theta, data), data)[0]


def empirical_risk_hess(alpha: float, theta, data: Dataset) -> np.ndarray:
    """Hessian of the empirical risk at ``theta``: mean of factor * x x^T."""
    alpha = check_alpha(alpha)
    logp = _logp(_as_point(theta, data), data)[0]
    return _second_moment(data.xs, hess_factor_from_logp(alpha, logp))


def value_and_grad(alpha: float, data: Dataset):
    """Objective oracle theta -> (risk, gradient) bound to a dataset: the
    one-point ``_terms`` summed directly, without the block loop."""
    alpha = check_alpha(alpha)

    def oracle(theta):
        means = exact_row_sums(_terms(_logp(_as_point(theta, data), data), data, (alpha,), alpha)) / data.n
        return float(means[0]), means[1:]

    return oracle


# ---------------------------------------------------------------------------
# Grid scans.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid with an optional ball mask.

    ``axes`` is one (min, max, count) triple per dimension, with finite
    min < max whose span max - min is finite too; nodes enumerate
    in row-major order (last axis fastest). With ``mask_radius`` set, nodes
    with norm beyond the radius (1e-12 slack) are omitted.
    """

    axes: tuple[tuple[float, float, int], ...]
    mask_radius: float | None = None

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(count)) for lo, hi, count in self.axes)
        if not axes:
            raise UsageError("grid needs at least one axis")
        for lo, hi, count in axes:
            if count < 2:
                raise UsageError(f"grid axis needs count >= 2, got {count}")
            if not (lo < hi):
                raise UsageError(f"grid axis needs min < max, got [{lo}, {hi}]")
            if not math.isfinite(hi - lo):  # also a bound that is inf or nan
                raise UsageError(f"grid axis needs finite bounds and a finite span, got [{lo}, {hi}]")
        object.__setattr__(self, "axes", axes)
        if self.mask_radius is not None:
            object.__setattr__(self, "mask_radius", check_positive_finite(self.mask_radius, "mask radius"))
        total = 1
        for _, _, count in axes:
            total *= count
        if total > MAX_GRID_NODES:
            raise UsageError(f"grid has {total} nodes, more than the {MAX_GRID_NODES} allowed")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        """All (masked) grid nodes as an (m, d) array in row-major order."""
        lines = [np.linspace(lo, hi, count) for lo, hi, count in self.axes]
        mesh = np.meshgrid(*lines, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if self.mask_radius is not None:
            keep = np.linalg.norm(pts, axis=1) <= self.mask_radius + 1e-12
            pts = pts[keep]
        return pts


@dataclass(frozen=True)
class LandscapeTable:
    """Risk values over grid nodes plus the metadata to regenerate them."""

    thetas: np.ndarray
    risks: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.thetas.shape[0] != self.risks.shape[0]:
            raise UsageError("row count mismatch between nodes and risks")
        if np.any(self.risks < 0):
            raise DomainError("risk values must be nonnegative")

    def to_csv(self) -> str:
        header = [f"theta_{j + 1}" for j in range(self.thetas.shape[1])] + ["risk"]
        rows = ([*row, risk] for row, risk in zip(self.thetas, self.risks))
        return csv_text(header, rows, [f"{key} = {value}" for key, value in self.metadata.items()])


def _grid_risks(alphas: list[float], grid: GridSpec, data: Dataset) -> tuple[np.ndarray, dict]:
    """The grid's nodes and, for each distinct order in ``alphas``, its risk
    at every node (order -> column), all from one margin pass. A grid with
    no node inside its mask raises UsageError, and a risk that is not
    finite raises NumericError."""
    if grid.dim != data.dim:
        raise UsageError(f"grid dim {grid.dim} does not match dataset dim {data.dim}")
    nodes = grid.nodes()
    if not len(nodes):
        raise UsageError(f"no grid node lies within the mask radius {grid.mask_radius!r}")
    orders = list(dict.fromkeys(alphas))
    values = risk_values_multi(orders, nodes, data)
    bad = [format_alpha(a) for a, ok in zip(orders, np.isfinite(values).all(axis=0)) if not ok]
    if bad:
        raise NumericError(f"risk is not finite at some grid node for order(s) {', '.join(bad)}")
    return nodes, dict(zip(orders, values.T))


def landscape_scans(alphas, grid: GridSpec, data: Dataset, metadata: dict | None = None) -> list[LandscapeTable]:
    """Empirical risk at every grid node, row-major, masked nodes omitted:
    one table per order, in input order, all from one margin pass."""
    alphas = [check_alpha(a) for a in alphas]
    nodes, risks = _grid_risks(alphas, grid, data)
    common = {
        "r": "none" if grid.mask_radius is None else repr(grid.mask_radius),
        "dataset": data.content_digest(),
    }
    common.update(metadata or {})
    return [LandscapeTable(nodes, risks[a], {"alpha": format_alpha(a), **common}) for a in alphas]


def landscape_scan(alpha: float, grid: GridSpec, data: Dataset, metadata: dict | None = None) -> LandscapeTable:
    """Empirical risk at every grid node for one order (``landscape_scans``)."""
    return landscape_scans([alpha], grid, data, metadata)[0]


def saturation_sups(alphas, grid: GridSpec, data: Dataset, reference: float = math.inf) -> list[float]:
    """Largest grid-node gap |risk(alpha) - risk(reference)| for each order
    in ``alphas``, in input order, from one margin pass over the grid.

    Every order must lie in [1, inf]; the gap obeys the Lipschitz-in-1/alpha
    bound L_r * |1/alpha - 1/reference| when the grid sits inside the
    radius-r ball.
    """
    alphas = [check_alpha(a) for a in alphas]
    reference = check_alpha(reference)
    low = [a for a in [*alphas, reference] if a < 1.0]
    if low:
        raise DomainError(f"saturation scan requires orders >= 1, got {', '.join(map(repr, low))}")
    _, risks = _grid_risks([*alphas, reference], grid, data)
    return [float(np.max(np.abs(risks[a] - risks[reference]))) for a in alphas]


def saturation_sup(alpha: float, alpha2: float, grid: GridSpec, data: Dataset) -> float:
    """Largest grid-node gap |risk(alpha) - risk(alpha2)| between two orders
    (``saturation_sups`` with one order)."""
    return saturation_sups([alpha], grid, data, reference=alpha2)[0]
