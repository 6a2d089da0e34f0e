"""Overflow-safe scalar functions and norms, small dense linear algebra, a
deterministic PRNG, and the one CSV writer of every output table.

Everything here is dependency-light on purpose: eigenvalues come from
LAPACK (``eigvalsh``), the Cholesky factorization is written out (its fixed
operation order fixes the bits of the seeded datasets), and the random
stream is a xoshiro256++ generator seeded through splitmix64 so that a seed
reproduces the exact byte sequence of draws on every platform. The stream
comes one draw at a time (``RngState.next_u64``, the reference) or as an
array (``next_u64_array``: lanes started by jump-ahead and stepped together
in numpy uint64), with the same integers either way; ``uniforms`` and
``gaussian_pairs`` turn array draws into the scalar uniforms and Box-Muller
deviates, bit for bit. Tolerances are module constants and appear verbatim
in error messages.

All functions except RngState advancement are pure. An RngState is
single-owner; concurrent work should derive independent child streams via
``RngState.spawn``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, NumericError, ParseError, UsageError

SYM_TOL = 1e-12

__all__ = [
    "SYM_TOL",
    "as_vector",
    "as_sym_matrix",
    "check_positive_finite",
    "sigmoid",
    "log_sigmoid",
    "vector_norm",
    "row_norms",
    "project_ball",
    "min_eigen_sym",
    "cholesky",
    "MAX_SEED",
    "RngState",
    "uniforms",
    "gaussian_pairs",
    "sample_ball",
    "sample_ball_batch",
    "csv_text",
    "read_text",
]


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array (dim >= 1)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise UsageError(f"{name} must be a 1-D array with at least one entry, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} has non-finite entries")
    return arr


def as_sym_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite square matrix, symmetric within SYM_TOL.

    The returned matrix is exactly symmetrized ((A + A^T)/2) so downstream
    factorizations never see the residual asymmetry.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise UsageError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    skew = float(np.max(np.abs(arr - arr.T)))
    if skew > SYM_TOL:
        raise DomainError(
            f"{name} is not symmetric: max |A - A^T| = {skew:.3e} exceeds tolerance {SYM_TOL:.0e}"
        )
    return 0.5 * (arr + arr.T)


def check_positive_finite(value, name: str) -> float:
    """``value`` as a float, which must be positive and finite (a radius,
    say); DomainError otherwise."""
    value = float(value)
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def _check_finite_scalar(z: float, name: str) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def sigmoid(z: float) -> float:
    """Logistic function 1/(1+e^-z), computed branch-wise so neither branch
    ever exponentiates a positive argument."""
    z = _check_finite_scalar(z, "z")
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def log_sigmoid(z: float) -> float:
    """log(sigmoid(z)) = -softplus(-z), accurate for |z| up to ~700.

    Never underflows to -inf for finite input: for large positive z the
    result is the tiny negative -e^-z computed through log1p.
    """
    z = _check_finite_scalar(z, "z")
    if z >= 0.0:
        return -math.log1p(math.exp(-z))
    return z - math.log1p(math.exp(z))


def log_sigmoid_vec(z: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Vectorized log_sigmoid using the same two branches element-wise:
    min(z, 0) - log1p(exp(-|z|)), an array shaped like ``z``. ``out`` (which
    may be ``z`` itself) receives the result and ``tmp`` the log1p term;
    each is a float array of z's shape, made when it is None."""
    z = np.asarray(z, dtype=float)
    tmp = np.abs(z, out=np.empty_like(z) if tmp is None else tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    out = np.minimum(z, 0.0, out=np.empty_like(z) if out is None else out)
    return np.subtract(out, tmp, out=out)


def vector_norm(v) -> float:
    """Euclidean norm of a 1-D array: the bits of ``np.linalg.norm`` wherever
    that is finite, else ``row_norms`` of the one row. An overflow warning
    from the first attempt follows the caller's ``np.errstate``."""
    norm = float(np.linalg.norm(v))
    return float(row_norms(np.reshape(v, (1, -1)))[0]) if math.isinf(norm) else norm


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array: the bits of
    ``np.linalg.norm(a, axis=1)`` wherever those are finite. Squaring
    overflows once an entry passes about 1.3e154, although the norm may not;
    such a row is first scaled by the power of two nearest its largest
    |entry|, so its norm is inf only when it lies past the float range.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
        big = np.isinf(norms)
        if big.any():
            exps = np.frexp(np.max(np.abs(a[big]), axis=1))[1]
            norms[big] = np.ldexp(np.linalg.norm(np.ldexp(a[big], -exps[:, None]), axis=1), exps)
    return norms


def project_ball(v, r: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the origin-centered ball of radius r.

    Identity inside the ball; radial rescale v * (r/||v||) outside, with the
    norm from ``vector_norm``. The membership test carries a 4e-15 relative
    slack so that a just-projected vector (whose recomputed norm may round a
    few ulp past r) is returned unchanged, making the projection exactly
    idempotent. A vector whose norm lies past the float range is first
    divided by its largest |entry|, so it too lands on the sphere.
    """
    arr = as_vector(v)
    r = check_positive_finite(r, "radius")
    with np.errstate(over="ignore"):
        norm = vector_norm(arr)
    if norm <= r * (1.0 + 4e-15):
        return arr
    if math.isinf(norm):
        arr = arr / float(np.max(np.abs(arr)))
        norm = float(np.linalg.norm(arr))
    return arr * (r / norm)


def min_eigen_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix, by LAPACK (``eigvalsh``)."""
    try:
        return float(np.linalg.eigvalsh(as_sym_matrix(a))[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from None


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive definite A.

    Raises DomainError naming the order of the failing leading minor when a
    pivot is not strictly positive.
    """
    mat = as_sym_matrix(a)
    d = mat.shape[0]
    low = np.zeros_like(mat)
    for i in range(d):
        for j in range(i + 1):
            acc = mat[i, j] - float(np.dot(low[i, :j], low[j, :j]))
            if i == j:
                if acc <= 0.0:
                    raise DomainError(
                        f"matrix is not positive definite: leading minor of order {i + 1} "
                        f"has non-positive pivot {acc:.6e}"
                    )
                low[i, i] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


# ---------------------------------------------------------------------------
# Deterministic randomness: splitmix64-seeded xoshiro256++.
# ---------------------------------------------------------------------------

_MASK64 = MAX_SEED = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 output function; a strong 64-bit finalizer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# The array form of the xoshiro256++ update (``RngState.next_u64_array``):
# the 256 unit states, one per column; column 64 w + j holds bit j in word w.
_UNIT_STATES = np.where(np.arange(4)[:, None] == np.arange(256) // 64,
                        np.uint64(1) << np.tile(np.arange(64, dtype=np.uint64), 4), np.uint64(0))
_BYTES = np.arange(32)


def _jump_table(columns: np.ndarray) -> np.ndarray:
    """The (4, 256) columns of a bit matrix as a (32, 256, 4) table: entry
    [p, v] is the XOR of the columns that the bits of value v select in byte
    p of a little-endian state, so the matrix times a state is the XOR over
    p of entry [p, byte p]."""
    cols = columns.T.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for i in range(8):
        np.bitwise_xor(table[:, :1 << i], cols[:, i, None], out=table[:, 1 << i:2 << i])
    return table


def _step_lanes(state: np.ndarray, steps: int, out: np.ndarray | None = None, end_step: int = 0) -> np.ndarray:
    """Step every column of the (4, L) uint64 ``state`` ``steps`` times in
    place. With ``out``, an (steps, L) array, row j receives each lane's
    output before its (j + 1)-th update, and the return value is the last
    lane's state after ``end_step`` updates; without, it is ``state``.
    numpy uint64 arrays wrap without a warning, as the scalar ``& _MASK64``
    does."""
    s0, s1, s2, s3 = state
    t = np.empty_like(s0)
    end = state
    for j in range(steps):
        if out is not None:
            row = out[j]
            np.add(s0, s3, out=t)
            np.left_shift(t, np.uint64(23), out=row)
            t >>= np.uint64(41)
            row |= t
            row += s0
        np.left_shift(s1, np.uint64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, np.uint64(45), out=t)
        s3 >>= np.uint64(19)
        s3 |= t
        if j + 1 == end_step:
            end = state[:, -1].copy()
    return end


def _as_int(value, name: str) -> int:
    """``operator.index(value)``: 1.9 or '7' is a UsageError, not another integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


class RngState:
    """xoshiro256++ stream seeded by splitmix64; fully deterministic.

    The raw 64-bit and uniform streams are identical byte-for-byte across
    platforms (pure integer arithmetic). Gaussian deviates are produced by
    Box-Muller from the uniform stream and inherit the platform's libm
    rounding in cos/sin/log, which is identical in practice on IEEE-754
    doubles.

    A seed is an integer in [0, 2^64 - 1] (UsageError otherwise), so no
    two seeds give one stream.

    Splitting: ``spawn(i)`` derives a child whose seed is
    ``mix64(seed + (i + 1) * GOLDEN)``, so sharded work is reproducible
    independent of worker count.
    """

    __slots__ = ("seed", "_s")

    def __init__(self, seed: int):
        seed = _as_int(seed, "seed")
        if not 0 <= seed <= MAX_SEED:
            raise UsageError(f"seed must lie in [0, 2^64 - 1], got {seed}")
        self.seed = seed
        state = seed
        s = []
        for _ in range(4):
            state = (state + _GOLDEN) & _MASK64
            s.append(_mix64(state))
        if not any(s):
            s[0] = 1
        self._s = s

    def spawn(self, index: int) -> "RngState":
        """Child stream for shard ``index``; documented hash of (seed, index)."""
        index = _as_int(index, "stream index")
        if index < 0:
            raise UsageError(f"stream index must be non-negative, got {index}")
        return RngState(_mix64((self.seed + (index + 1) * _GOLDEN) & _MASK64))

    def next_u64_array(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``next_u64`` as a uint64 array, with
        the state left where ``count`` calls leave it.

        The stream is cut into L = min(256, isqrt(count)) lanes of b =
        ceil(count / L) draws; the last lane, which holds at least one draw,
        may be short. The update is linear over GF(2), so b steps are a
        256 x 256 bit matrix M^b, whose columns are the 256 unit states
        stepped b times. Lane k starts at M^b applied to lane k - 1's start
        (the XOR of the columns its bits select), and then all lanes step b
        times at once; the outputs are integers, so they are the scalar
        stream's bits."""
        if count < 1:
            return np.empty(0, dtype=np.uint64)
        lanes = min(256, math.isqrt(count))
        steps = -(-count // lanes)
        starts = np.empty((lanes, 4), dtype="<u8")
        starts[0] = self._s
        if lanes > 1:
            table = _jump_table(_step_lanes(_UNIT_STATES.copy(), steps))
            for k in range(1, lanes):
                starts[k] = np.bitwise_xor.reduce(table[_BYTES, starts[k - 1].view(np.uint8)], axis=0)
        out = np.empty((steps, lanes), dtype=np.uint64)
        end = _step_lanes(np.ascontiguousarray(starts.T, dtype=np.uint64), steps, out, count - (lanes - 1) * steps)
        self._s = [int(word) for word in end]
        return out.T.ravel()[:count]

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian_pair(self) -> tuple[float, float]:
        """Two independent standard normal deviates via Box-Muller.

        Consumes exactly two uniforms: u1 in (0, 1] for the radius (so the
        log never sees zero) and u2 in [0, 1) for the angle.
        """
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return radius * math.cos(angle), radius * math.sin(angle)


def uniforms(draws: np.ndarray) -> np.ndarray:
    """``RngState.uniform`` of each raw ``next_u64`` draw in a uint64 array,
    with its bits: the top 53 bits, converted exactly, times 2^-53."""
    return (draws >> np.uint64(11)).astype(float) * 2.0**-53


def gaussian_pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``RngState.gaussian_pair`` of each pair of raw ``next_u64`` draws
    (``first[i]`` then ``second[i]``, uint64 arrays of one shape), with its
    bits. The uniforms convert exactly, and the arithmetic is the scalar
    one's, in its order; ``math.log``, ``math.cos`` and ``math.sin`` run per
    element, since numpy's SIMD forms may round differently (``np.sqrt`` is
    correctly rounded, as ``math.sqrt`` is)."""
    u1 = ((first >> np.uint64(11)) + np.uint64(1)).astype(float) * 2.0**-53
    radius = np.sqrt(-2.0 * _per_element(math.log, u1))
    angle = (2.0 * math.pi) * uniforms(second)
    return radius * _per_element(math.cos, angle), radius * _per_element(math.sin, angle)


def _per_element(func, x: np.ndarray) -> np.ndarray:
    """``func``, a float function of the math module, of each entry of ``x``."""
    return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)


# Most attempts one round of ``sample_ball_batch`` draws, so a round's
# draws stay a small array whatever the count.
_BALL_ROUND = 1 << 16


def sample_ball(rng: RngState, dim: int, radius: float) -> np.ndarray:
    """One point uniform on the ball of given radius, by rejection from the
    bounding cube. Advances ``rng`` a data-dependent number of steps.

    The membership test squares coordinates, which overflows past a radius
    of about 1.3e154; it is made on the point scaled by the power of two that
    brings the radius into [0.5, 1). That scaling is exact, so the test
    decides as unscaled arithmetic would wherever that stays finite."""
    radius, exp, unit = _ball_scale(dim, radius)
    while True:
        point = np.array([(2.0 * rng.uniform() - 1.0) * radius for _ in range(dim)])
        scaled = np.ldexp(point, -exp)
        if float(np.dot(scaled, scaled)) <= unit * unit:
            return point


def sample_ball_batch(rng: RngState, dim: int, radius: float, count: int) -> np.ndarray:
    """``count`` points of ``sample_ball`` as the rows of one array: the
    points that ``count`` calls would return, with their bits, and ``rng``
    left where those calls leave it. The result is made first (UsageError
    when it cannot be). Each round draws one attempt (dim uniforms, in
    stream order) per point still needed, at most _BALL_ROUND of them, from
    one ``next_u64_array`` call through ``uniforms``, and keeps the ones the
    membership test accepts, tested all at once:
    ``np.vecdot`` has ``np.dot``'s bits. A round of k attempts accepts at
    most k points, and all k only at its last attempt, so no round draws
    past the attempt that gives the last point."""
    radius, exp, unit = _ball_scale(dim, radius)
    try:
        out = np.empty((count, dim))
    except (ValueError, MemoryError):  # past numpy's largest dimension, or past memory
        raise UsageError(f"{count} ball points of dimension {dim} cannot be allocated") from None
    done = 0
    while done < count:
        k = min(count - done, _BALL_ROUND)
        points = ((2.0 * uniforms(rng.next_u64_array(k * dim)) - 1.0) * radius).reshape(k, dim)
        scaled = np.ldexp(points, -exp)
        accepted = points[np.vecdot(scaled, scaled) <= unit * unit]
        out[done:done + len(accepted)] = accepted
        done += len(accepted)
    return out


def _ball_scale(dim: int, radius: float) -> tuple[float, int, float]:
    """The checked radius r, and the exponent e and r 2^-e in [0.5, 1) of
    the membership test (see ``sample_ball``)."""
    if dim < 1:
        raise UsageError(f"dim must be >= 1, got {dim}")
    radius = check_positive_finite(radius, "radius")
    exp = math.frexp(radius)[1]  # ldexp, since 2**-exp overflows for a subnormal radius
    return radius, exp, math.ldexp(radius, -exp)


def _csv_cell(v) -> str:
    if v is None or isinstance(v, bool):
        return {None: "", True: "true", False: "false"}[v]
    return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)


def csv_text(header, rows, comments=()) -> str:
    """Output CSV text: a ``# comment`` line per comment, the header, then a
    line per row, each ending in a newline. A float cell (numpy floats too)
    has 17 significant digits, so it parses back to the same bits (inf is
    ``inf``); None is an empty cell (no claim), a bool ``true`` or ``false``,
    and anything else, such as an int or preformatted text, ``str(v)``."""
    lines = [*(f"# {c}" for c in comments), ",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
    return "".join(line + "\n" for line in lines)


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; other bytes raise ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
