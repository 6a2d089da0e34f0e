import math

import numpy as np
import pytest

from alphaloss.data import normalize_features, preset, sample_gmm
from alphaloss.numerics import RngState, log_sigmoid, sigmoid


@pytest.fixture(scope="session")
def fig2_small():
    """Balanced shared-covariance mixture, small for unit tests."""
    raw = sample_gmm(preset("fig2"), 400, RngState(42))
    data, _ = normalize_features(raw)
    return data


@pytest.fixture(scope="session")
def fig2_n5000():
    """The certificate-scale dataset: fig2 preset, n=5000, seed 42."""
    raw = sample_gmm(preset("fig2"), 5000, RngState(42))
    data, _ = normalize_features(raw)
    return data


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        out[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def fd_jacobian(g, x, h=1e-5):
    """Central-difference Jacobian of a vector function (used on gradients)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((g(x + step) - g(x - step)) / (2.0 * h))
    return np.stack(cols, axis=1)


def rel_err(approx, exact, floor=1e-12):
    """Norm-relative error with an absolute floor for near-zero targets."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(float(np.linalg.norm(exact)), floor)
    return float(np.linalg.norm(approx - exact)) / denom


# Scalar oracles for the per-sample quantities, written with the math
# module's sigmoid and log_sigmoid rather than the log p maps of
# alphaloss.loss, so tests that compare against them do not compare the
# kernel with itself.


def _oracle_margin_and_exponent(alpha, theta, x, y):
    return y * float(np.dot(theta, x)), 1.0 - 1.0 / alpha


def oracle_loss(alpha, theta, x, y):
    """Loss at sample (x, y): -expm1(u log p)/u, -log p at u ~ 0, 1 - p at inf."""
    z, u = _oracle_margin_and_exponent(alpha, theta, x, y)
    logp = log_sigmoid(z)
    if math.isinf(alpha):
        return -math.expm1(logp)
    if abs(u) < 1e-6:
        return -logp
    return -math.expm1(u * logp) / u


def oracle_grad_factor(alpha, theta, x, y):
    """Gradient factor at sample (x, y): -y p^u (1 - p), with 1 - p = sigmoid(-z)."""
    z, u = _oracle_margin_and_exponent(alpha, theta, x, y)
    return -y * math.exp(u * log_sigmoid(z)) * sigmoid(-z)


def oracle_hess_factor(alpha, theta, x, y):
    """Hessian factor at sample (x, y): p^u (p (1 - p) - u (1 - p)^2)."""
    z, u = _oracle_margin_and_exponent(alpha, theta, x, y)
    p, q = sigmoid(z), sigmoid(-z)
    return math.exp(u * log_sigmoid(z)) * (p * q - u * q * q)
