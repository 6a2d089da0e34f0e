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
order, and the exact remainders feed the next, smaller sigma. The folds
end only on one of two proven stops: (1) AccSum's (same paper), once the
remainders are so small that every partial sum of a column group's is a
float, so one reduction gives their exact sum R (after the first fold when
the block's |x| lie within 53 - 2c binades, c = ceil(log2(n + 2)): 33 at
n = 1,000, as on the oracle's blocks in the ``ngd`` benchmark workload);
(2) a fold after the first that leaves no remainder, the one stop of a
block with a zero. One ``math.fsum`` (in ``_fsum_row``, its one caller) over
each row's fold sums and Rs rounds the exact total once; after one fold,
the one float addition f0 + R does, and when two folds leave no remainder,
f0 + f1. A fold costs a fixed handful of numpy calls whatever the block's
size, so a small block, such as the oracle's three rows of 1,000 terms, is
bound by the number of calls, not by the elements. Rows holding non-finite
entries or entries above 2^900 skip the folds for ``_fsum_row``;
``math.fsum`` also stays the tests' oracle, and a finite mean whose sum
passes the float range is taken in a scaled frame there.

Every value, gradient and Hessian starts from one margin pass to log p
(``_logp``). Values and gradients come from one block driver (``_means``),
whose blocks of about 200,000 elements stay in cache, and one block map
per pass, which chooses its orders' maps once per call: ``_exact_sums``
writes the terms and sums them exactly, ``_float_sums`` sums them in
floats. An exact call makes one buffer set, sized for its largest block:
the margins (overwritten by log p), one temporary, the terms and the
extraction scratch. A float call of two blocks or more runs its blocks on
one thread per CPU in the process's affinity mask, the calling one among
them, and makes one buffer set per thread: the margins and one temporary.
Every block reuses its thread's set: the margin pass, the maps and the
extraction run in place, and the buffers go with the call. Each block
writes only its own rows of the result, so the bits do not depend on the
worker count. The ``value_and_grad`` oracle is the exact map of one
point, made with its buffers when it is built. A row of an (m, d) array gets the same
margins, so the same bits, in every call, whatever its size or blocks
(``_logp``). Grid scans take every order they need from one pass over the
grid.

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
bounds; the points a caller cannot settle are kept for its one exact call.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import math
import os
import threading
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
        # Label-signed features y x, with zero rows up to a multiple of 8 (``_logp``); not fields.
        object.__setattr__(self, "padded", np.zeros((-(-len(xs) // 8) * 8, xs.shape[1])))
        object.__setattr__(self, "signed", np.multiply(xs, self.ys[:, None], out=self.padded[:len(xs)]))

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
    label, one row per point and one column per sample, into ``out``, with
    log_sigmoid's log1p term in ``tmp`` ((points, n) arrays, made when None).
    A 1-D point is one matrix-vector product against ``data.signed``. The
    rows of an (m, d) array are the first n columns of one product against
    ``data.padded``, with a one-row array run as two equal rows, so the
    BLAS rounds each row the same in every call. That product is made in
    ``out`` at two rows or more and n a multiple of 8, else in a new array."""
    if pts.ndim == 1 or (len(pts) > 1 and len(data.padded) == data.n):
        margins = out = np.matmul(pts[None, :] if pts.ndim == 1 else pts, data.signed.T, out=out)
    else:
        margins = np.matmul(pts if len(pts) > 1 else np.repeat(pts, 2, axis=0), data.padded.T)[:len(pts), :data.n]
    return log_sigmoid_vec(margins, out=out, tmp=tmp)


def _blocks(m: int, width: int, least: int = 2) -> Iterator[slice]:
    """Blocks of m points, max(least, _BLOCK_ELEMENTS // width) each, for
    ``least`` 1 or 2; with 2, a one-point tail joins the last."""
    rows = max(least, _BLOCK_ELEMENTS // width)
    stops = [*range(rows, m + 1 - least, rows), m] if m else []
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


def _exact_fold(e_top: int, e_low: int, c: int) -> int:
    """The first fold k (counted from 0) of ``_extract_sums`` after which
    the remainders sum exactly in floats, for a block of nonzero entries
    with |x| < 2^e_top, ulp(min |x|) = 2^(e_low - 53) and c as there: the
    least k >= 0 with 2^c u sigma_k <= 2^53 delta = 2^e_low, where u =
    2^-53 and sigma_k = 2^(e_top + c + k (c - 52)); that is, e_top - e_low
    <= 53 - 2c + k (52 - c)."""
    return max(0, -(-(e_top - e_low - 53 + 2 * c) // (52 - c)))


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
    at most u, so the next fold uses sigma * 2^(c + 1 - 53).

    The folds end only on one of two proven tests. (1) With no zero entry,
    the abs pass that gives sigma also gives low, the smallest |x|, and
    every entry is a multiple of delta = ulp(low) = 2^(e_low - 53), e_low =
    frexp(low)[1]. Every q of fold k is a multiple of u_k = 2^-53 sigma_k, so
    each remainder stays a multiple of delta (or is zero, when u_k < delta)
    and is at most u_k. A partial sum of one column group's remainders in a
    row is then a multiple of delta below 2^c u_k; once 2^c u_k <= 2^53
    delta it is a float (also when delta is below the subnormal step
    2^-1074), so a reduction per group gives their exact sum R, in any
    order. That holds from fold k = ``_exact_fold(e, e_low, c)`` on; for the
    first fold the test is e - e_low <= 53 - 2c. (2) From the second fold
    on, every remainder is zero. That always comes: once sigma <= 2^-1022,
    each remainder r (|r| < sigma / 2) makes sigma + r a multiple of 2^-1074
    below 2^-1021, a float, so that fold takes every r exactly, and (2)
    ends the folds there (one fold later if it is the first). A block with
    a zero entry outside its hard rows has only test (2). A row's exact sum
    is its fold sums plus its Rs, and one ``math.fsum`` over those
    (``_fsum_row``) rounds it once: ``math.fsum``'s bits. When that is two
    floats, f0 + R after (1) at the first fold or f0 + f1 after (2) at the
    second, one IEEE addition rounds it once, as ``math.fsum`` does; so
    those rows are summed in floats. Hard rows, with a non-finite entry or
    one above _EXTRACT_MAX, go to ``_fsum_row`` without folding; zeroed,
    they fold as rows of zeros, which are multiples of any delta, so low
    and test (1) come from the other rows.
    """
    rows, n = block.shape
    if n == 0 or rows == 0:
        return np.zeros(rows)
    scratch = np.empty_like(block) if scratch is None else scratch[:block.size].reshape(block.shape)
    top = np.maximum.reduce(np.abs(block, out=scratch), axis=None)  # nan stays nan
    hard = stop = None  # stop: the fold of test (1), when the rows that fold have no zero entry
    c = (min(n, _FOLD_COLUMNS) + 1).bit_length()
    if not top <= _EXTRACT_MAX:  # summed by _fsum_row; zeroed, they keep sigma and the folds finite
        tops = np.maximum.reduce(scratch, axis=1)
        hard = ~(tops <= _EXTRACT_MAX)
        fallback = [_fsum_row(row, divisor) for row in block[hard]]
        block[hard] = tops[hard] = 0.0
        top = np.maximum.reduce(tops)
        scratch[hard] = top  # out of the other rows' low; a zeroed entry stays a multiple of ulp(low)
    low = np.minimum.reduce(scratch, axis=None)
    if low:  # no zero entry outside the hard rows: every entry is a multiple of ulp(low)
        stop = _exact_fold(math.frexp(top)[1], math.frexp(low)[1], c)
    sigma = math.ldexp(1.0, math.frexp(top)[1] + c)
    starts = np.arange(0, n, _FOLD_COLUMNS) if n > _FOLD_COLUMNS else None  # fold sums and R per column group
    folds = []
    for i in itertools.count():
        np.add(block, sigma, out=scratch)
        scratch -= sigma
        block -= scratch
        folds.append(np.add.reduce(scratch, axis=1) if starts is None else np.add.reduceat(scratch, starts, axis=1))
        if i == stop:  # (1): every partial sum of a group's remainders is a float, so their sum R is exact
            folds.append(np.add.reduce(block, axis=1) if starts is None else np.add.reduceat(block, starts, axis=1))
            break
        if i and not block.any():  # (2)
            break
        sigma *= 2.0 ** (c + 1 - 53)
    if len(folds) == 2 and starts is None:  # each exact sum is f0 + R or f0 + f1
        out = (folds[0] + folds[1]) / divisor
    else:
        parts = np.column_stack(folds)
        out = np.zeros(rows)
        for i in range(rows) if hard is None else np.flatnonzero(~hard):
            out[i] = _fsum_row(parts[i], divisor)
    if hard is not None:
        out[hard] = fallback
    return out


def exact_row_sums(block) -> np.ndarray:
    """Exactly-rounded sum of each row of a 2-D block: the bits of
    ``math.fsum(row.tolist())``, by error-free extraction on a copy of the
    block (``_extract_sums``). A row with both +inf and -inf has no sum and
    raises NumericError; a row with infinities of one sign sums to that
    infinity, a finite sum past the float range raises NumericError and a
    block that is not 2-D UsageError."""
    block = np.array(block, dtype=float)
    if block.ndim != 2:
        raise UsageError(f"expected a 2-D block of rows, got shape {block.shape}")
    return _extract_sums(block)


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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _means(thetas, data: Dataset, alphas=(), grad_alpha=None, exact: bool = True) -> np.ndarray:
    """(points, rows) means of the ``_exact_sums`` rows: one margin pass and
    one block map per block, exactly rounded. With ``exact`` False the rows
    are summed in floats instead (``_float_sums``), and one more column holds
    each point's mean gradient weight (0.0 without ``grad_alpha``); such a
    pass of two blocks or more runs its blocks on one thread per CPU of
    ``_cpus`` (``_on_threads``, at most one per block). A block's rows do
    not depend on which thread computes it, so the result has the same bits
    for any worker count."""
    alphas = [check_alpha(a) for a in alphas]
    grad_alpha = None if grad_alpha is None else check_alpha(grad_alpha)
    pts = _as_points(thetas, data)
    alone = np.ndim(thetas) == 1  # one point given alone: a matrix-vector product (``_logp``)
    n, rows = data.n, len(alphas) + (0 if grad_alpha is None else data.dim)
    out = np.empty((len(pts), rows + (0 if exact else 1)))
    # An exact block may hold one point: a row gets the same margins in
    # every call (``_logp``), and its exact sums do not depend on the rest
    # of its block. A float block keeps at least two, as before: the float
    # pass's BLAS product is not made row by row.
    blocks = list(_blocks(len(pts), (1 + rows) * n, 1 if exact else 2))
    # One buffer set per worker, sized for the largest block and reused by
    # each block it takes: log p and one temporary, and, for the exact
    # pass's one worker, the terms and the extraction scratch. Block-sized
    # arrays made and freed per block would have the allocator return their
    # pages and fault them in again.
    largest = max((sl.stop - sl.start for sl in blocks), default=0)
    if exact:
        sums, workers = _exact_sums(data, alphas, grad_alpha, largest), 1
    else:
        sums, workers = _float_sums(data, alphas, grad_alpha), max(1, min(len(blocks), _cpus()))
    buffers = [(np.empty(largest * n), np.empty(largest * n)) for _ in range(workers)]

    def run(sl, logp_buf, tmp_buf):
        k = sl.stop - sl.start
        tmp = tmp_buf[:k * n].reshape(k, n)
        out[sl] = sums(_logp(pts[0] if alone else pts[sl], data, out=logp_buf[:k * n].reshape(k, n), tmp=tmp), tmp)

    if workers == 1:
        for sl in blocks:
            run(sl, *buffers[0])
    else:
        _on_threads(blocks, run, buffers)
    return out


def _on_threads(blocks: list, run, buffers: list) -> None:
    """``run(block, *bufs)`` for every block, on one thread per buffer set
    ``bufs``, the calling one among them. Each thread claims the next block
    from one shared counter. The first error stops the claims and is raised
    here once every thread has ended."""
    claims, failed = itertools.count(), []  # next() on a count is atomic

    def work(*bufs):
        try:
            for i in claims:
                if i >= len(blocks) or failed:
                    return
                run(blocks[i], *bufs)
        except BaseException as exc:
            failed.append(exc)

    # A thread starts with numpy's default errstate; each runs in a copy of
    # the caller's context, which holds the caller's (numpy 2 keeps errstate
    # in a context variable).
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, *bufs))
               for bufs in buffers[1:]]
    for thread in threads:
        thread.start()
    work(*buffers[0])
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]


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


def risk_values_multi(alphas, thetas, data: Dataset) -> np.ndarray:
    """Empirical risks at each row of ``thetas`` for several orders at once,
    sharing one margin pass; returns (points, orders)."""
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
    return float(risk_values(alpha, _as_point(theta, data)[0], data)[0])


def empirical_risk_grad(alpha: float, theta, data: Dataset) -> np.ndarray:
    """Gradient of the empirical risk at ``theta``."""
    return risk_grads(alpha, _as_point(theta, data)[0], data)[0]


def empirical_risk_hess(alpha: float, theta, data: Dataset) -> np.ndarray:
    """Hessian of the empirical risk at ``theta``: mean of factor * x x^T."""
    alpha = check_alpha(alpha)
    logp = _logp(_as_point(theta, data)[0], data)[0]
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
        point = np.asarray(theta, dtype=float)
        if not (point.shape == (d,) and all(map(math.isfinite, point.tolist()))):
            point = _as_point(theta, data)[0]  # a (1, d) point, or the error that names what is wrong
        means = sums(_logp(point, data, out=logp, tmp=tmp), tmp)[0]
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
            pts = pts[row_norms(pts) <= self.mask_radius + 1e-12]
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
    pass sums every order in floats; only the nodes that may hold a largest
    gap, or have no usable bound, get exact sums and the scan's checks, in
    one call, which gives each its bits in the scan. An order equal to the
    reference has sup 0.0.

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
        kept = np.isnan(errors[:, -1]) | np.any(may_hold_max(gaps - bounds, gaps + bounds), axis=1)
    if not kept.any():  # every order is the reference
        return [0.0] * len(alphas)
    exact = _checked_risks(orders, nodes[kept], data)
    sups = dict(zip(orders, np.max(np.abs(exact - exact[:, [orders.index(reference)]]), axis=0).tolist()))
    return [sups[a] for a in alphas]


def saturation_sup(alpha: float, alpha2: float, grid: GridSpec, data: Dataset) -> float:
    """Largest grid-node gap |risk(alpha) - risk(alpha2)| between two orders
    (``saturation_sups`` with one order)."""
    return saturation_sups([alpha], grid, data, reference=alpha2)[0]
