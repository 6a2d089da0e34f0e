"""Empirical risk of the alpha-loss over a dataset, with gradient and
Hessian, landscape grid scans, and the saturation-distance scan. Scans
return arrays; the command line writes them to files.

The population risk is an expectation; this artifact works with its
empirical counterpart over seeded finite samples and says so in every
output's metadata. Every sample sum is exactly rounded: the result is the
bits of ``math.fsum`` over the row, so it does not depend on summation
order, block layout or worker count. The sum itself uses only IEEE
addition and subtraction, so its bits do not depend on the CPU either; the
per-sample terms do, because numpy picks its ``exp`` and ``log1p`` kernels
(and the BLAS its matmul kernel) at run time. Risk values therefore repeat
bit for bit on the same numpy CPU dispatch and BLAS kernel.

The sums come from error-free extraction (ExtractVector of Rump, Ogita and
Oishi 2008, *Accurate floating-point summation part I*), in place on each
block of terms (``_extract_sums``). One sigma, a power of two well above
the block's largest entry, serves every row; (sigma + x) - sigma extracts
each entry's high part exactly, the high parts add up exactly in any
order, and the exact remainders feed the next, smaller sigma. After a few
such folds one ``math.fsum`` over each row's fold sums rounds the exact
total once; when two folds leave no remainder, the one float addition of
the two fold sums does. A fold costs a fixed handful of numpy calls
whatever the block's size, so a small block, such as the oracle's three
rows of 1,000 terms, is bound by the number of calls, not by the
elements. Rows holding non-finite entries or entries above 2^900 go
through ``math.fsum`` directly (``_fsum_row``), which also stays the
tests' oracle; a finite mean whose sum passes the float range is taken in
a scaled frame there.

Every value, gradient and Hessian starts from one margin pass to log p
(``_logp``). Values and gradients come from one block driver (``_means``),
whose blocks of about 200,000 elements stay in cache, and one block map
per pass, which chooses its orders' maps once per call: ``_exact_sums``
writes the terms and sums them exactly, ``_float_sums`` sums them in
floats. A batched call makes one buffer set, sized for its largest block:
the margins (overwritten by log p), one temporary and, for exact sums, the
terms and the extraction scratch. Every block reuses it: the margin pass,
the maps and the extraction run in place, so no block makes an array of
its own, and the buffers go with the call. The ``value_and_grad`` oracle
is the exact map of one point, made with its buffers when it is built.
The BLAS may round a row's margins differently with the row count of its
matmul call, so a point's bits are those of its block; a caller that needs
a batch's bits recomputes whole blocks of it. Grid scans take every order
they need from one margin pass over the grid.

The saturation scan needs only the max of the gaps, and the SLQC sweep and
gradient-infimum estimate only verdicts, counts and a few extremes, so
they sum with a certified float filter (Shewchuk 1997, *Adaptive precision
floating-point arithmetic and fast robust geometric predicates*): float
sums under a proven bound (``float_means``), and exact sums only where the
bound cannot decide. The float pass (``_float_sums``) sums the exact
pass's terms without making the terms block. A loss row is summed
pairwise by ``loss.loss_sum_map``, with the bits of the pairwise sum of
its terms row (but for the sign of a zero). The gradient rows and the weights' sum come from one BLAS
product, -w @ [signed | -1].

With u = 2^-53, a float sum S of n terms in any order is within
gamma * sum|x| of the exact sum s, gamma = (n-1)u / (1 - (n-1)u) (Higham
2002, *Accuracy and Stability of Numerical Algorithms*). Loss terms are
nonnegative (log p <= 0, and each map keeps its sign), so sum|x| = s <=
S / (1 - gamma). The mean M = fl(S / n) adds one rounding, and the exact
mean fl(fl(s) / n) is within two of s / n, so for gamma <= 0.01 (n below
about 9e13) |M - exact mean| <= (1.011 gamma + 3.03 u) M. The gap
fl(|M_a - M_b|) is then within (1.012 gamma + 5.04 u)(M_a + M_b) of the
exact gap. ``_approx_mean_error`` uses kappa = 2 (gamma + 5 u); the bound
kappa (M_a + M_b) exceeds that by more than 2 (1 + kappa) u (M_a + M_b),
which pays for rounding the bound and both sides of the filter's
comparison. A division that underflows errs by up to 2^-1075 instead, so
each mean's bound adds 2^-1070 (float sums and differences of subnormals
are exact).

Gradient rows have terms of both signs, -w_i s_ij, with gradient weights
w_i >= 0 (the same floats in both passes) and label-signed features s_i
of norm at most 1 + t, t = UNIT_BALL_TOL (``Dataset`` checks the computed
norm, which is within (d/2 + 1) u of the true one); let A = sum |w_i s_ij|
<= (1 + t)(1 + (d/2 + 1) u) sum w. The exact pass sums the rounded
products fl(-w_i s_ij) exactly, so its sum X is within u A of the real
sum P = sum -w_i s_ij. The float pass takes column j of the product: a dot
product D formed in some order, with or without fused multiply-adds, so
within gamma_n A of P, gamma_n = n u / (1 - n u) (Higham 2002, eq. 3.5).
That assumes the BLAS forms each entry of a matrix product as such a dot
product, with no Strassen-type algorithm, as OpenBLAS does. So |D - X| <=
(gamma_n + u) A; the float mean fl(D / n) adds one rounding and the exact
mean fl(fl(X) / n) two, each of u (1 + gamma_n + u) A / n at most, and the
mean's error is below (gamma_n + 4.1 u) A / n for gamma_n <= 0.01. The
product's last column sums the w_i (each -w_i * -1 is exact) in some
order, within gamma_n sum w of it, and W = fl(that / n), so sum w / n <=
(1 + 1.02 gamma_n + 1.01 u) W. With gamma_n <= gamma + 1.01 u and (d + 5)
u <= 0.01 the error is then below (1.03 gamma + 5.3 u)(1 + t) W, and
kappa (1 + t) W bounds it with room for its own rounding. A product that
underflows errs by up to 2^-1075 instead, in either pass; n of them add
2^-1075 to a mean, which the 2^-1070 pays for. So every gradient row of a
point has the bound ``_approx_mean_error((1 + t) W, n)`` (``float_means``),
which gives NaN bounds to every row of a point without finite means and
bounds; rows not settled go to ``exact_rows``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .loss import (
    UNIT_BALL_TOL,
    check_alpha,
    format_alpha,
    grad_weight_from_logp,  # noqa: F401  unused here, but bench/tracer.py rebinds the name in this module
    hess_factor_from_logp,
    loss_from_logp,  # noqa: F401  unused here, but bench/tracer.py rebinds the name in this module
    loss_map,
    loss_sum_map,
    neg_grad_weight_map,
)
from .numerics import check_positive_finite, log_sigmoid_vec, row_norms

MAX_GRID_NODES = 10_000_000

# Cap on elements per evaluation block (log p plus the stacked terms): about
# 1.6 MB of terms, so a block and its extraction scratch fit in cache.
_BLOCK_ELEMENTS = 200_000

# Folds of error-free extraction per block before what remains of a row
# joins its final fsum; loss and gradient rows settle in 2 or 3.
_MAX_FOLDS = 4
# Most columns one fold sum adds up. A fold sum of W columns is exact while
# W * 2^c <= 2^54, c = ceil(log2(W + 2)); W = 2^20 gives 2^41.
_FOLD_COLUMNS = 1 << 20
# Rows with an entry above this go to math.fsum, so sigma stays far from
# overflow.
_EXTRACT_MAX = 2.0 ** 900

__all__ = [
    "Dataset",
    "GridSpec",
    "empirical_risk",
    "empirical_risk_grad",
    "empirical_risk_hess",
    "value_and_grad",
    "risk_values",
    "risk_values_multi",
    "risk_grads",
    "risk_values_grads",
    "exact_row_sums",
    "float_means",
    "may_hold_max",
    "exact_rows",
    "landscape_scans",
    "saturation_sup",
    "saturation_sups",
]


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors in the unit ball; immutable once built. One
    labeled sample (x, y) is the one-row ``Dataset(x[None, :], [y])``."""

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
        worst = float(np.max(row_norms(xs)))
        if worst > 1.0 + UNIT_BALL_TOL:
            raise DomainError(
                f"feature norm {worst!r} exceeds the unit ball (tolerance {UNIT_BALL_TOL:.0e})"
            )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", np.ascontiguousarray(ys.astype(np.int64)))
        # Label-signed features: margins are theta . (y x). A plain
        # attribute, not a field, so equality and repr are unchanged.
        object.__setattr__(self, "signed", xs * self.ys[:, None])

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

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


def _logp(pts: np.ndarray, data: Dataset, out: np.ndarray | None = None,
          tmp: np.ndarray | None = None) -> np.ndarray:
    """The margin pass every risk quantity starts from: log p of the true
    label, one row per point and one column per sample. The margins and
    then log p go to ``out``, ``tmp`` takes log_sigmoid's log1p term; both
    are (points, n) float arrays, made when they are None."""
    margins = np.matmul(pts, data.signed.T, out=out)
    return log_sigmoid_vec(margins, out=margins, tmp=tmp)


def _blocks(m: int, width: int) -> Iterator[slice]:
    """Blocks of m points, max(2, _BLOCK_ELEMENTS // width) each; a one-point tail joins the last."""
    rows = max(2, _BLOCK_ELEMENTS // width)
    stops = [*range(rows, m - 1, rows), m] if m else []
    for start, stop in zip([0, *stops], stops):
        yield slice(start, stop)


def _fsum_row(row: np.ndarray, divisor: int = 1) -> float:
    """``math.fsum`` of a row, over ``divisor``: the catch-all for rows the
    extraction skips. When the partial sums pass the float range, the row
    is summed in a frame scaled by 2^-shift, divided there and scaled back:
    the exact sum is still rounded once and then divided, as for every
    other row, and only a result past the float range is an error."""
    values = row.tolist()
    try:
        try:
            return math.fsum(values) / divisor
        except OverflowError:
            shift = len(values).bit_length() + 1  # 2^shift > 2n: the scaled partial sums stay finite
            return math.ldexp(math.fsum(np.ldexp(row, -shift).tolist()) / divisor, shift)
    except ValueError as exc:
        raise NumericError(f"sample sum is undefined: {exc}") from None
    except OverflowError:
        raise NumericError(f"sample {'sum' if divisor == 1 else 'mean'} overflows") from None


def _extract_sums(block: np.ndarray, divisor: int = 1, scratch: np.ndarray | None = None) -> np.ndarray:
    """Exactly-rounded sum of each row of a 2-D float block, over
    ``divisor``. The block is overwritten (the remainders are left in it),
    and so is ``scratch``, a float array of at least the block's size that
    a caller summing many blocks passes to each (a fresh one is made when
    it is None).

    One sigma serves the whole block. With every |x| < 2^e in the block
    and c = ceil(log2(W + 2)) for the W columns added into one fold sum
    (all n, up to _FOLD_COLUMNS), let sigma = 2^(e + c). Each fold takes
    q = (sigma + x) - sigma and leaves x - q in the block. Both steps are
    exact: sigma + x lies in [sigma/2, 2 sigma], so the subtraction is exact
    (Sterbenz), and x - q is the rounding error of that addition, which is
    a float. Every q is a multiple of u = 2^-53 sigma and at most |x| + u,
    so a partial sum of W of them is a multiple of u of size at most W 2^e
    + W u <= sigma (2^c >= W + 2, and W u <= 2^(e+1) as W 2^c <= 2^54): a
    float, so the fold sum is exact in any order. A row far below the
    block's largest entry has every |x| below 2^e too, so the argument
    holds for it; its first folds may just take nothing. The remainders are
    at most u, so the next fold uses sigma * 2^(c + 1 - 53). Folds stop
    when every remainder is zero (tested from the second fold on) or after
    _MAX_FOLDS. One ``math.fsum`` over a row's fold sums, plus the nonzero
    entries of any remainder left, then rounds the row's exact sum once:
    ``math.fsum``'s bits. When the folds stop on a zero remainder after
    exactly two, a row's exact sum is f0 + f1, two floats, and one IEEE
    addition rounds it once, as ``math.fsum`` does; so those rows are
    summed in floats. Rows with a non-finite entry or one above
    _EXTRACT_MAX go to ``_fsum_row``.
    """
    rows, n = block.shape
    if n == 0 or rows == 0:
        return np.zeros(rows)
    scratch = np.empty_like(block) if scratch is None else scratch[:block.size].reshape(block.shape)
    top = np.abs(block, out=scratch).max()  # nan stays nan
    hard = None
    if not top <= _EXTRACT_MAX:  # summed by _fsum_row; zeroed, they keep sigma and the folds finite
        tops = scratch.max(axis=1)
        hard = np.flatnonzero(~(tops <= _EXTRACT_MAX))
        fallback = [_fsum_row(block[i], divisor) for i in hard]
        block[hard] = tops[hard] = 0.0
        top = tops.max()
    c = (min(n, _FOLD_COLUMNS) + 1).bit_length()
    sigma = math.ldexp(1.0, math.frexp(top)[1] + c)
    starts = np.arange(0, n, _FOLD_COLUMNS) if n > _FOLD_COLUMNS else None  # fold sums of many column groups
    folds, cleared = [], False
    for i in range(_MAX_FOLDS):
        np.add(block, sigma, out=scratch)
        scratch -= sigma
        block -= scratch
        folds.append(np.add.reduce(scratch, axis=1) if starts is None else np.add.reduceat(scratch, starts, axis=1))
        if i and not block.any():
            cleared = True
            break
        sigma *= 2.0 ** (c + 1 - 53)
    if cleared and len(folds) == 2 and starts is None:  # each exact sum is f0 + f1
        out = (folds[0] + folds[1]) / divisor
    else:
        terms = np.column_stack(folds).tolist()
        if not cleared:  # the remainder's nonzero entries join their rows' fsums
            for i in np.flatnonzero(block.any(axis=1)):
                terms[i] += block[i][block[i] != 0].tolist()
        out = np.array([math.fsum(row) for row in terms]) / divisor
    if hard is not None:
        out[hard] = fallback
    return out


def exact_row_sums(block) -> np.ndarray:
    """Exactly-rounded sum of each row of a 2-D block: the bits of
    ``math.fsum(row.tolist())``, by error-free extraction on a copy of the
    block (``_extract_sums``). A row with both +inf and -inf has no sum and
    raises NumericError; a row with infinities of one sign sums to that
    infinity, and a finite sum past the float range raises NumericError.
    """
    return _extract_sums(np.array(block, dtype=float))


def _second_moment(xs: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Sample mean of w * x x^T (w = 1 when omitted), with exact entry sums."""
    n, d = xs.shape
    scaled = xs if weights is None else weights[:, None] * xs
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    means = _extract_sums(np.stack([scaled[:, j] * xs[:, k] for j, k in pairs]), n)
    out = np.empty((d, d))
    for (j, k), v in zip(pairs, means):
        out[j, k] = out[k, j] = v
    return out


def _exact_sums(data: Dataset, alphas, grad_alpha, points: int):
    """The exact pass's block map ``sums(logp, tmp)``, with each order's maps
    chosen once: per row of ``logp`` (at most ``points`` rows), the exact
    means of one loss row per order in ``alphas``, then of -w times each
    label-signed feature column at ``grad_alpha`` if set, as a new array
    with a row per row of ``logp``. ``logp`` is overwritten by -w and ``tmp`` may be (see
    ``loss.neg_grad_weight_map``). The terms block and the extraction
    scratch are made once, for ``points`` rows."""
    losses = [loss_map(alpha) for alpha in alphas]
    neg_weight = None if grad_alpha is None else neg_grad_weight_map(grad_alpha)
    n, k = data.n, len(losses)
    rows = k + (0 if grad_alpha is None else data.dim)
    terms_buf, scratch = np.empty(points * rows * n), np.empty(points * rows * n)
    signed_t = data.signed.T

    def views(m):  # the terms block of m points, its loss rows and its gradient rows
        terms = terms_buf[:m * rows * n].reshape(m, rows, n)
        return terms.reshape(m * rows, n), [terms[:, j] for j in range(k)], terms[:, k:]
    full = views(points)  # made once: every oracle call, and most blocks, use it

    def sums(logp, tmp):
        m = len(logp)
        block, loss_rows, grad_rows = full if m == points else views(m)
        for loss, out in zip(losses, loss_rows):
            loss(logp, out)
        if neg_weight is not None:
            np.multiply(neg_weight(logp, logp, tmp)[:, None], signed_t, out=grad_rows)
        return _extract_sums(block, n, scratch).reshape(m, rows)
    return sums


def _float_sums(data: Dataset, alphas, grad_alpha):
    """The float pass's block map ``sums(logp, tmp)``, with each order's maps
    chosen once: per row of ``logp`` (overwritten), the float means of the
    ``_exact_sums`` rows, without making them, and of the weights, as a new
    (points, rows + 1) array. A loss row is summed pairwise
    (``loss.loss_sum_map``, with ``tmp`` as scratch); the gradient rows and
    the weights' sum come from one matrix product, -w @ [signed | -1].
    Without ``grad_alpha`` the last column is 0.0."""
    losses = [loss_sum_map(alpha) for alpha in alphas]
    n, k = data.n, len(losses)
    if grad_alpha is not None:
        neg_weight = neg_grad_weight_map(grad_alpha)
        # [signed | -1], (n, d + 1), laid out as its transpose: the BLAS
        # product runs faster that way. Each -w * -1 is w exactly.
        features = np.vstack([data.signed.T, np.full(n, -1.0)]).T

    def sums(logp, tmp):
        out = np.empty((len(logp), k + (1 if grad_alpha is None else data.dim + 1)))
        for j, loss in enumerate(losses):
            out[:, j] = loss(logp, tmp)
        if grad_alpha is None:
            out[:, -1] = 0.0
        else:
            np.matmul(neg_weight(logp, logp, tmp), features, out=out[:, k:])
        return np.divide(out, n, out=out)
    return sums


def _means(thetas, data: Dataset, alphas=(), grad_alpha=None, exact: bool = True) -> np.ndarray:
    """(points, rows) means of the ``_exact_sums`` rows: one margin pass and
    one block map per block, exactly rounded. With ``exact`` False the rows
    are summed in floats instead (``_float_sums``), and one more column holds
    each point's mean gradient weight (0.0 without ``grad_alpha``)."""
    alphas = [check_alpha(a) for a in alphas]
    grad_alpha = None if grad_alpha is None else check_alpha(grad_alpha)
    pts = _as_points(thetas, data)
    n, rows = data.n, len(alphas) + (0 if grad_alpha is None else data.dim)
    out = np.empty((len(pts), rows + (0 if exact else 1)))
    blocks = list(_blocks(len(pts), (1 + rows) * n))
    # One buffer set per call, sized for the largest block and reused by
    # every block: log p, one temporary and, for exact sums, the terms and
    # the extraction scratch. Block-sized arrays made and freed per block
    # would have the allocator return their pages and fault them in again.
    largest = max((sl.stop - sl.start for sl in blocks), default=0)
    logp_buf, tmp_buf = np.empty(largest * n), np.empty(largest * n)
    sums = _exact_sums(data, alphas, grad_alpha, largest) if exact else _float_sums(data, alphas, grad_alpha)
    for sl in blocks:
        k = sl.stop - sl.start
        tmp = tmp_buf[:k * n].reshape(k, n)
        out[sl] = sums(_logp(pts[sl], data, out=logp_buf[:k * n].reshape(k, n), tmp=tmp), tmp)
    return out


def _approx_mean_error(means: np.ndarray, n: int) -> np.ndarray:
    """Bound on |approximate mean - exact mean| for ``means`` of rows of n
    nonnegative terms: kappa_n * mean + 2^-1070 (see the module docstring)."""
    u = 2.0 ** -53
    return 2.0 * ((n - 1) * u / (1.0 - (n - 1) * u) + 5.0 * u) * means + 2.0 ** -1070


def float_means(thetas, data: Dataset, alphas=(), grad_alpha=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``_means`` rows summed in floats (``_float_sums``), and a proven bound on
    each one's distance from the exact mean: (means, bounds), both (points,
    rows). A loss row's bound is ``_approx_mean_error`` of its mean; a
    point's gradient rows share ``_approx_mean_error`` of (1 +
    UNIT_BALL_TOL) times its mean gradient weight (see the module
    docstring). Every row of a point whose means and bounds are not all
    finite, or whose loss mean is negative (nonnegative terms cannot give
    that), gets a NaN bound, which settles no comparison."""
    k = len(alphas)
    with np.errstate(all="ignore"):  # an overflow is an inf, which settles nothing
        sums = _means(thetas, data, alphas, grad_alpha, exact=False)
        means, weights = sums[:, :-1], sums[:, -1]
        bounds = np.empty_like(means)
        bounds[:, :k] = np.where(means[:, :k] >= 0.0, _approx_mean_error(means[:, :k], data.n), np.nan)
        bounds[:, k:] = _approx_mean_error((1.0 + UNIT_BALL_TOL) * weights, data.n)[:, None]
    bounds[~(np.isfinite(means) & np.isfinite(bounds)).all(axis=1)] = np.nan
    return means, bounds


def may_hold_max(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which intervals [lo, hi] may hold their column's largest value: ``hi`` is not
    below the column's largest ``lo``. A NaN end settles nothing: kept, left out of the max."""
    return np.isnan(lo) | ~(hi < np.fmax.reduce(lo, axis=0, initial=-np.inf))  # fmax passes over NaN


def exact_rows(evaluate, points: np.ndarray, keep: np.ndarray):
    """The rows of ``points`` where ``keep`` holds, and ``evaluate`` of them
    in one call: (row indices, result), with result None when no row is
    kept. When one row of several is kept, the first other row joins it: a
    one-point call rounds its margins apart from every batch. A call of two
    or more points can still round a row apart from a larger batch (see the
    module docstring); ``saturation_sups`` keeps whole blocks for that."""
    keep = np.array(keep, dtype=bool)
    if 0 < np.count_nonzero(keep) < min(2, len(points)):
        keep[np.argmin(keep)] = True
    rows = np.flatnonzero(keep)
    return rows, (evaluate(points[rows]) if rows.size else None)


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
    one-point block map of ``_means`` (``_exact_sums``), without the block
    loop. The maps, the signed features and the buffers are made with the
    oracle (so one thread calls it at a time); a call checks its point
    once, then makes the margins, log p and one block's exact means. Each
    call returns a new gradient array."""
    sums = _exact_sums(data, (alpha,), alpha, 1)
    d = data.dim
    logp, tmp = np.empty((1, data.n)), np.empty((1, data.n))

    def oracle(theta):
        pts = np.asarray(theta, dtype=float)
        if pts.shape == (d,) and np.isfinite(pts).all():
            pts = pts[None, :]
        else:  # a (1, d) point, or the error that names what is wrong
            pts = _as_point(theta, data)
        means = sums(_logp(pts, data, out=logp, tmp=tmp), tmp)[0]
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
            keep = row_norms(pts) <= self.mask_radius + 1e-12
            pts = pts[keep]
        return pts


def _grid_nodes(grid: GridSpec, data: Dataset) -> np.ndarray:
    """The grid's nodes for ``data``; UsageError for a dimension mismatch or no node inside the mask."""
    if grid.dim != data.dim:
        raise UsageError(f"grid dim {grid.dim} does not match dataset dim {data.dim}")
    nodes = grid.nodes()
    if not len(nodes):
        raise UsageError(f"no grid node lies within the mask radius {grid.mask_radius!r}")
    return nodes


def _checked_risks(orders, thetas, data: Dataset) -> np.ndarray:
    """``risk_values_multi`` of ``orders`` at ``thetas``, with the scan's finiteness and sign checks."""
    with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
        values = risk_values_multi(orders, thetas, data)
    bad = [format_alpha(a) for a, ok in zip(orders, np.isfinite(values).all(axis=0)) if not ok]
    if bad:
        raise NumericError(f"risk is not finite at some grid node for order(s) {', '.join(bad)}")
    if np.any(values < 0):
        raise DomainError("risk values must be nonnegative")
    return values


def landscape_scans(alphas, grid: GridSpec, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The grid's nodes, row-major with masked nodes omitted, and the
    empirical risk at every node: (nodes, risks), one risk column per order
    in ``alphas``, in input order. Each distinct order is evaluated once,
    all from one margin pass. A grid with no node inside its mask raises
    UsageError, a risk that is not finite NumericError, a negative one
    DomainError."""
    alphas = [check_alpha(a) for a in alphas]
    nodes = _grid_nodes(grid, data)
    orders = list(dict.fromkeys(alphas))
    return nodes, _checked_risks(orders, nodes, data)[:, [orders.index(a) for a in alphas]]


def saturation_sups(alphas, grid: GridSpec, data: Dataset, reference: float = math.inf) -> list[float]:
    """Largest grid-node gap |risk(alpha) - risk(reference)| for each order
    in ``alphas``, in input order: the bits of the max over
    ``landscape_scans([*alphas, reference], ...)``, with its errors. A filter
    pass sums every order in floats; only the scan's blocks that hold a node
    that may hold a largest gap, or has no usable bound, get exact sums and
    the scan's checks, in one ``exact_rows`` call. A union of whole blocks
    is cut into the same blocks, so each node gets the scan's bits. An order
    equal to the reference has sup 0.0.

    Every order must lie in [1, inf]; the gap obeys the Lipschitz-in-1/alpha
    bound L_r * |1/alpha - 1/reference| when the grid sits inside the
    radius-r ball.
    """
    alphas = [check_alpha(a) for a in alphas]
    reference = check_alpha(reference)
    low = [a for a in [*alphas, reference] if a < 1.0]
    if low:
        raise DomainError(f"saturation scan requires orders >= 1, got {', '.join(map(repr, low))}")
    nodes = _grid_nodes(grid, data)
    orders = list(dict.fromkeys([*alphas, reference]))  # the scan's sequence, in which its errors name orders
    means, errors = float_means(nodes, data, [*(a for a in orders if a != reference), reference])
    with np.errstate(all="ignore"):
        gaps, bounds = np.abs(means[:, :-1] - means[:, -1:]), errors[:, :-1] + errors[:, -1:]
        # With no order but the reference, a node without bounds still needs the scan's checks.
        keep = np.isnan(errors[:, -1]) | np.any(may_hold_max(gaps - bounds, gaps + bounds), axis=1)
    starts = [sl.start for sl in _blocks(len(nodes), (1 + len(orders)) * data.n)]
    keep = np.repeat(np.logical_or.reduceat(keep, starts), np.diff([*starts, len(nodes)]))
    _, exact = exact_rows(lambda pts: _checked_risks(orders, pts, data), nodes, keep)
    if exact is None:  # every order is the reference
        return [0.0] * len(alphas)
    sups = dict(zip(orders, np.max(np.abs(exact - exact[:, [orders.index(reference)]]), axis=0).tolist()))
    return [sups[a] for a in alphas]


def saturation_sup(alpha: float, alpha2: float, grid: GridSpec, data: Dataset) -> float:
    """Largest grid-node gap |risk(alpha) - risk(alpha2)| between two orders
    (``saturation_sups`` with one order)."""
    return saturation_sups([alpha], grid, data, reference=alpha2)[0]
