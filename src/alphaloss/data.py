"""Seeded two-component Gaussian mixture generation, feature normalization
into the unit ball, and dataset CSV I/O.

The three built-in presets reproduce the mixture parameters of the
paper-style experiment settings this package ships with (see README).
Normalization is a single global rescale by the largest raw feature norm;
``normalize_features`` returns that scale with the dataset, so every
derived output can state how its features were produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaLossError, DomainError, NumericError, ParseError, UsageError
from .numerics import RngState, as_sym_matrix, as_vector, cholesky, csv_text, read_text, row_norms
from .risk import Dataset

__all__ = [
    "GmmSpec",
    "RawDataset",
    "PRESET_NAMES",
    "PRESET_NOTES",
    "preset",
    "sample_gmm",
    "normalize_features",
    "dataset_csv",
    "read_csv",
]


@dataclass(frozen=True)
class GmmSpec:
    """Two-component Gaussian mixture: class -1 prior, per-class means and
    positive definite covariances."""

    prior_neg: float
    mean_neg: np.ndarray
    mean_pos: np.ndarray
    cov_neg: np.ndarray
    cov_pos: np.ndarray

    def __post_init__(self):
        prior = float(self.prior_neg)
        if not (0.0 < prior < 1.0):
            raise DomainError(f"prior_neg must lie in (0, 1), got {self.prior_neg!r}")
        object.__setattr__(self, "prior_neg", prior)
        object.__setattr__(self, "mean_neg", as_vector(self.mean_neg, "mean_neg"))
        object.__setattr__(self, "mean_pos", as_vector(self.mean_pos, "mean_pos"))
        if self.mean_neg.shape != self.mean_pos.shape:
            raise UsageError("class means must share a dimension")
        object.__setattr__(self, "cov_neg", as_sym_matrix(self.cov_neg, "cov_neg"))
        object.__setattr__(self, "cov_pos", as_sym_matrix(self.cov_pos, "cov_pos"))
        for name, cov in (("cov_neg", self.cov_neg), ("cov_pos", self.cov_pos)):
            if cov.shape[0] != self.dim:
                raise UsageError(f"{name} dimension {cov.shape[0]} does not match means ({self.dim})")
            cholesky(cov)  # positive definiteness check

    @property
    def dim(self) -> int:
        return self.mean_neg.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "prior_neg": self.prior_neg,
            "mean_neg": [float(v) for v in self.mean_neg],
            "mean_pos": [float(v) for v in self.mean_pos],
            "cov_neg": [[float(v) for v in row] for row in self.cov_neg],
            "cov_pos": [[float(v) for v in row] for row in self.cov_pos],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GmmSpec":
        try:
            return cls(d["prior_neg"], d["mean_neg"], d["mean_pos"], d["cov_neg"], d["cov_pos"])
        except KeyError as missing:
            raise UsageError(f"mixture spec is missing key {missing}") from None
        except AlphaLossError:
            raise
        except (TypeError, ValueError) as exc:
            raise UsageError(f"mixture spec holds a value that is not a number: {exc}") from None


@dataclass(frozen=True)
class RawDataset:
    """Pre-normalization samples; features may lie outside the unit ball."""

    xs: np.ndarray
    ys: np.ndarray


PRESET_NAMES = ("fig1", "fig2", "fig3")

# The fig1 source prints an asymmetric class -1 covariance (-2.02 vs -2.01);
# the preset stores the symmetrized average off-diagonal.
PRESET_NOTES = {
    "fig1": "cov_neg off-diagonal printed asymmetric (-2.02 / -2.01); symmetrized to -2.015",
    "fig2": "",
    "fig3": "",
}


def preset(name: str) -> GmmSpec:
    """Built-in mixture settings: imbalanced anisotropic (fig1), balanced
    shared-covariance (fig2), and the saturation-scan setting (fig3)."""
    if name == "fig1":
        return GmmSpec(
            prior_neg=0.12,
            mean_neg=[-0.18, 1.49],
            mean_pos=[-0.01, 0.16],
            cov_neg=[[3.20, -2.015], [-2.015, 2.71]],
            cov_pos=[[4.19, 1.27], [1.27, 0.90]],
        )
    if name == "fig2":
        return GmmSpec(
            prior_neg=0.5,
            mean_neg=[0.4, 0.4],
            mean_pos=[1.0, 1.0],
            cov_neg=[[3.0, 0.2], [0.2, 1.5]],
            cov_pos=[[3.0, 0.2], [0.2, 1.5]],
        )
    if name == "fig3":
        return GmmSpec(
            prior_neg=0.61,
            mean_neg=[-0.14, 0.21],
            mean_pos=[0.06, 0.43],
            cov_neg=[[0.38, 0.25], [0.25, 3.17]],
            cov_pos=[[2.07, -1.62], [-1.62, 1.97]],
        )
    raise UsageError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")


def sample_gmm(spec: GmmSpec, n: int, rng: RngState) -> RawDataset:
    """Draw n labeled points: label -1 with probability prior_neg, then the
    class mean plus a Cholesky-colored standard normal vector.

    Per sample the stream is consumed in a fixed order (one uniform for
    the label, then ceil(d/2) Box-Muller pairs with any odd deviate
    discarded), so a seed fixes the dataset exactly. Then one stacked matmul
    per class colours that class's rows with its (d, d) Cholesky factor and
    adds its mean: a matvec's bits per row, in O(n d) memory.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    d = spec.dim
    try:
        z, ys, xs = np.empty((n, d + d % 2)), np.empty(n, dtype=np.int64), np.empty((n, d))
    except (ValueError, MemoryError):  # past numpy's largest dimension, or past memory
        raise UsageError(f"n = {n} samples cannot be allocated") from None
    for i in range(n):
        ys[i] = -1 if rng.uniform() < spec.prior_neg else 1
        for j in range(0, d, 2):
            z[i, j:j + 2] = rng.gaussian_pair()
    for label, cov, mean in ((-1, spec.cov_neg, spec.mean_neg), (1, spec.cov_pos, spec.mean_pos)):
        rows = ys == label
        xs[rows] = (cholesky(cov) @ z[rows, :d, None])[:, :, 0] + mean
    return RawDataset(xs, ys)


def normalize_features(raw: RawDataset) -> tuple[Dataset, float]:
    """Divide every feature vector by the largest raw norm (floored at 1),
    producing a unit-ball dataset, and return it with that divisor (1.0
    means untouched); normalizing twice is the identity. The norms come from
    ``row_norms``, so only a norm past the float range raises NumericError."""
    xs = np.asarray(raw.xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise UsageError(f"raw features must be a nonempty 2-D array, got shape {xs.shape}")
    scale = max(1.0, float(np.max(row_norms(xs))))
    if math.isinf(scale):
        raise NumericError("the largest raw feature norm lies past the float range")
    return Dataset(xs / scale, raw.ys), scale


def dataset_csv(data: Dataset) -> str:
    """The `y,x_1,...,x_d` CSV text of a dataset; features at 17 significant
    digits."""
    header = ["y"] + [f"x_{j + 1}" for j in range(data.dim)]
    return csv_text(header, ([int(y), *x] for y, x in zip(data.ys, data.xs)))


def read_csv(path) -> Dataset:
    """Read a dataset CSV as ``dataset_csv`` writes it; malformed rows raise
    ParseError with their line number, unit-ball violations DomainError."""
    xs = []
    ys = []
    header, *lines = read_text(path).split("\n")
    if not header.startswith("y,"):
        raise ParseError(f"{path}: line 1: expected header starting with 'y,'")
    dim = len(header.strip().split(",")) - 1
    for lineno, line in enumerate(lines, start=2):
        text = line.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) != dim + 1:
            raise ParseError(f"{path}: line {lineno}: expected {dim + 1} fields, got {len(fields)}")
        try:
            label = int(fields[0])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: label {fields[0]!r} is not an integer") from None
        if label not in (-1, 1):
            raise ParseError(f"{path}: line {lineno}: label must be -1 or 1, got {label}")
        try:
            row = [float(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric feature") from None
        if not all(math.isfinite(v) for v in row):
            raise ParseError(f"{path}: line {lineno}: non-finite feature")
        xs.append(row)
        ys.append(label)
    if not xs:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(ys))
