"""Acceptance gate: one test per criterion, each printed as a pass/fail
line with its runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.

Every numeric tolerance here is fixed by the criterion it implements;
independent oracles (central differences, dense boundary sampling,
separable simplex grids, long-run projected gradient descent) supply the
expected values.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alphaloss.cli import main as cli_main
from alphaloss.data import normalize_features, preset, sample_gmm
from alphaloss.information import DiscreteJoint, Posterior, discrete_alpha_risk, min_alpha_risk, tilted_posterior
from alphaloss.loss import INFINITY, lipschitz_in_inv_alpha, lipschitz_in_theta
from alphaloss.ngd import NgdConfig, iteration_budget, ngd_run, projected_gd_reference
from alphaloss.numerics import RngState, min_eigen_sym, sample_ball, sigmoid
from alphaloss.risk import (
    Dataset,
    GridSpec,
    empirical_risk,
    empirical_risk_hess,
    risk_values_multi,
    saturation_sup,
    value_and_grad,
)
from alphaloss.slqc import (
    SlqcParams,
    ball_min_inner,
    evolution_window,
    evolve_bounds,
    slqc_sweep,
    strong_convexity_modulus,
)

from conftest import fd_grad, fd_jacobian, rel_err

ALPHA_SWEEP = (0.5, 0.77, 1.0, 1.3, 2.0, 10.0, INFINITY)
R = 5.0


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_s:
        print(f"[FAIL] criterion {num}: {name} (runtime {elapsed:.1f}s over the {limit_s:.0f}s budget)", flush=True)
        raise AssertionError(f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s >= {limit_s:.0f}s")
    print(f"[PASS] criterion {num}: {name} ({elapsed:.1f}s, budget {limit_s:.0f}s)", flush=True)


@pytest.fixture(scope="module")
def fig1_n10000():
    data, _ = normalize_features(sample_gmm(preset("fig1"), 10_000, RngState(42)))
    return data


@pytest.fixture(scope="module")
def fig3_n10000():
    data, _ = normalize_features(sample_gmm(preset("fig3"), 10_000, RngState(42)))
    return data


def test_criterion_1_derivative_correctness():
    with criterion(1, "pointwise gradient/Hessian vs central differences", 5.0):
        rng = np.random.default_rng(12345)
        for i in range(200):
            alpha = ALPHA_SWEEP[i % len(ALPHA_SWEEP)]
            x = rng.normal(size=3)
            x = x / np.linalg.norm(x) * rng.uniform(0.0, 1.0)
            y = 1 if rng.uniform() < 0.5 else -1
            data = Dataset(x[None, :], [y])  # one labeled sample
            oracle = value_and_grad(alpha, data)
            theta = rng.normal(size=3)
            theta = theta / np.linalg.norm(theta) * rng.uniform(0.0, R)
            grad = oracle(theta)[1]
            grad_fd = fd_grad(lambda t: oracle(t)[0], theta)
            assert rel_err(grad, grad_fd, floor=1e-10) <= 1e-6
            hess = empirical_risk_hess(alpha, theta, data)
            hess_fd = fd_jacobian(lambda t: oracle(t)[1], theta)
            assert rel_err(hess, 0.5 * (hess_fd + hess_fd.T), floor=1e-10) <= 1e-5


def test_criterion_2_strong_convexity_certificate(fig2_n5000):
    with criterion(2, "Hessian floor certificate on the balanced mixture", 30.0):
        data = fig2_n5000
        moment = data.second_moment()
        rng = RngState(2025)
        points = [sample_ball(rng, 2, R) for _ in range(100)]
        for alpha in (0.25, 0.5, 1.0):
            bound = strong_convexity_modulus(alpha, R, moment)
            assert bound > 0.0
            for theta in points:
                lam = min_eigen_sym(empirical_risk_hess(alpha, theta, data))
                assert lam >= bound - 1e-8


def test_criterion_3_slqc_certificate_with_falsification(fig2_n5000):
    with criterion(3, "sampled SLQC certificate + falsification control", 60.0):
        data = fig2_n5000
        neither_with_correct_kappa = 0
        neither_with_broken_kappa = 0
        for idx, alpha in enumerate((0.5, 1.0)):
            kappa = lipschitz_in_theta(alpha, R)
            # theta0: best NGD iterate under a practical schedule
            budget = min(iteration_budget(0.1, kappa, 2 * R), 20_000)
            run = ngd_run(
                value_and_grad(alpha, data),
                np.zeros(2),
                NgdConfig(eta=0.1 / kappa, iterations=budget, radius=R),
            )
            for eps in (0.1, 0.4):
                params = SlqcParams(eps, kappa, run.best_theta)
                report = slqc_sweep(alpha, params, data, R, 1000, RngState(99).spawn(idx))
                assert sum(report["counts"].values()) == 1000
                neither_with_correct_kappa += report["counts"]["neither"]
                broken = SlqcParams(eps, kappa / 1000.0, run.best_theta)
                control = slqc_sweep(alpha, broken, data, R, 1000, RngState(99).spawn(idx))
                neither_with_broken_kappa += control["counts"]["neither"]
        assert neither_with_correct_kappa == 0
        assert neither_with_broken_kappa >= 1


def test_criterion_4_cone_condition_equivalence_fuzz():
    with criterion(4, "closed-form cone condition vs boundary sampling", 30.0):
        rng = np.random.default_rng(424242)
        angles = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        disagreements = 0
        for _ in range(10_000):
            g = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            theta = rng.normal(size=2) * 2.0
            theta0 = rng.normal(size=2) * 2.0
            dist = float(np.linalg.norm(theta - theta0))
            if dist < 1e-3:
                theta0 = theta0 + np.array([1.0, 0.0])
                dist = float(np.linalg.norm(theta - theta0))
            rho = float(rng.uniform(0.05, 0.9)) * dist
            phase = rng.uniform(0.0, 2.0 * math.pi)
            boundary = theta0 + rho * np.stack(
                [np.cos(angles + phase), np.sin(angles + phase)], axis=1
            )
            sampled = float(np.min((boundary - theta) @ (-g)))
            closed = ball_min_inner(g, theta, theta0, rho)
            # exact minimum may not exceed the sampled one
            assert closed <= sampled + 1e-9
            positive_closed = closed >= -1e-9
            positive_sampled = sampled >= -1e-9
            if positive_closed != positive_sampled:
                disagreements += 1
        assert disagreements == 0


def test_criterion_5_ngd_budget_reaches_target_gap(fig2_n5000):
    with criterion(5, "budgeted NGD reaches the target optimality gap", 120.0):
        data = fig2_n5000
        eps = 0.05
        kappa = sigmoid(R)
        objective = value_and_grad(1.0, data)
        ref_theta, ref_value = projected_gd_reference(objective, np.zeros(2), 100_000, 0.1, radius=R)
        theta1 = sample_ball(RngState(7), 2, R)
        budget = iteration_budget(eps, kappa, float(np.linalg.norm(theta1 - ref_theta)))
        result = ngd_run(objective, theta1, NgdConfig(eta=eps / kappa, iterations=budget, radius=R))
        assert result.best_value - ref_value <= eps


def test_criterion_6_saturation_bound(fig1_n10000, fig3_n10000):
    with criterion(6, "uniform saturation distances obey the Lipschitz bound", 120.0):
        grid = GridSpec(((-R, R, 101), (-R, R, 101)), mask_radius=R)
        nodes = grid.nodes()
        orders = (1.0, 2.0, 4.0, INFINITY)
        big_l = lipschitz_in_inv_alpha(R)
        for data in (fig1_n10000, fig3_n10000):
            values = risk_values_multi(orders, nodes, data)
            for i, j in ((0, 1), (1, 2), (2, 3)):
                a, b = orders[i], orders[j]
                sup = float(np.max(np.abs(values[:, i] - values[:, j])))
                inv_gap = 1.0 / a - (0.0 if math.isinf(b) else 1.0 / b)
                assert sup <= big_l * inv_gap + 1e-9
            spot = abs(
                empirical_risk(4.0, np.zeros(2), data) - empirical_risk(INFINITY, np.zeros(2), data)
            )
            assert abs(spot - 0.040528) <= 1e-6
            assert spot == pytest.approx(0.04052858999818596, abs=1e-9)
        # the dedicated scan op agrees with the column formulation exactly
        direct = saturation_sup(4.0, INFINITY, grid, fig3_n10000)
        values = risk_values_multi(orders, nodes, fig3_n10000)
        assert direct == float(np.max(np.abs(values[:, 2] - values[:, 3])))


def _separable_grid_minimum(joint: DiscreteJoint, alpha: float, steps: int = 1001):
    """Brute-force oracle: the risk decomposes over feature rows, so the
    joint grid minimum is the sum of per-row grid minima."""
    qs = np.linspace(0.0, 1.0, steps)
    best_rows = []
    total = 0.0
    for i in range(joint.n_x):
        row_mass = joint.p[i]
        best_value = math.inf
        best_q = None
        for q in qs:
            posterior_row = np.array([q, 1.0 - q])
            value = 0.0
            for j in range(2):
                if row_mass[j] == 0.0:
                    continue
                p = posterior_row[j]
                if p == 0.0:
                    if math.isinf(alpha):
                        value += row_mass[j]
                    elif alpha > 1.0:
                        value += row_mass[j] * alpha / (alpha - 1.0)
                    else:
                        value = math.inf
                        break
                elif math.isinf(alpha):
                    value += row_mass[j] * (1.0 - p)
                elif alpha == 1.0:
                    value += row_mass[j] * (-math.log(p))
                else:
                    value += row_mass[j] * alpha / (alpha - 1.0) * (1.0 - p ** (1.0 - 1.0 / alpha))
            if value < best_value:
                best_value = value
                best_q = q
        best_rows.append(best_q)
        total += best_value
    minimizer = np.array([[q, 1.0 - q] for q in best_rows])
    return total, minimizer


def test_criterion_7_minimal_risk_oracle():
    with criterion(7, "closed-form minimal risk vs simplex-grid search", 60.0):
        rng = np.random.default_rng(31415)
        for _ in range(20):
            m = rng.uniform(0.05, 1.0, size=(2, 2))
            joint = DiscreteJoint(m / m.sum())
            for alpha in (0.5, 1.0, 2.0, INFINITY):
                grid_min, grid_argmin = _separable_grid_minimum(joint, alpha)
                assert abs(min_alpha_risk(joint, alpha) - grid_min) <= 5e-3
                tilt = tilted_posterior(joint, alpha)
                assert float(np.max(np.abs(grid_argmin - tilt.q))) <= 1e-3 + 1e-9
            # cross-entropy identity at order 1 and error-probability at inf
            q = rng.uniform(0.01, 1.0, size=(2, 2))
            posterior = Posterior(q / q.sum(axis=1, keepdims=True))
            marg = joint.marginal_x()
            cross = sum(
                marg[i] * float(-((joint.p[i] / marg[i]) * np.log(posterior.q[i])).sum())
                for i in range(2)
            )
            assert abs(discrete_alpha_risk(joint, posterior, 1.0) - cross) <= 1e-12
            miss = 1.0 - float((joint.p * posterior.q).sum())
            assert abs(discrete_alpha_risk(joint, posterior, INFINITY) - miss) <= 1e-12


def test_criterion_8_evolution_evaluator():
    with criterion(8, "SLQC evolution identities and frozen window endpoint", 1.0):
        e0, grad_inf = 0.4, 0.1
        kappa0 = sigmoid(R)
        window = evolution_window(1.0, e0, kappa0, R, grad_inf)
        assert abs(window - 6.590e-4) <= 1e-6
        assert window == pytest.approx(6.590221271098518e-4, rel=1e-9)
        alphas = [1.0 + window * k / 10 for k in range(10)]
        rows = evolve_bounds(1.0, e0, kappa0, R, grad_inf, alphas)
        assert rows[0].epsilon == e0 and rows[0].rho == e0 / kappa0
        slope = (rows[5].epsilon - rows[0].epsilon) / (alphas[5] - alphas[0])
        assert abs(slope - 2.0 * lipschitz_in_inv_alpha(R)) <= 1e-12
        eps = [row.epsilon for row in rows]
        rho = [row.rho for row in rows]
        assert all(row.in_window for row in rows)
        assert all(a < b for a, b in zip(eps, eps[1:]))
        assert all(a > b for a, b in zip(rho, rho[1:]))
        assert all(v > 0.0 for v in rho)


def test_criterion_9_figure_settings_reproduce(tmp_path):
    with criterion(9, "figure-setting runs complete and reproduce byte-identically", 180.0):
        runs = {
            "fig1_landscape": [
                "landscape", "--preset", "fig1", "--n", "2000", "--seed", "42",
                "--alphas", "0.95,1,2,10", "--grid-count", "21",
            ],
            "fig2_landscape": [
                "landscape", "--preset", "fig2", "--n", "2000", "--seed", "42",
                "--alphas", "1,1.001", "--grid-count", "21",
            ],
            "fig2_certify": [
                "certify", "--preset", "fig2", "--n", "2000", "--seed", "42",
                "--epsilon0", "0.4", "--sweep", "200", "--i-budget", "500",
                "--accept-infinite-i",
            ],
        }
        for name, args in runs.items():
            first = tmp_path / name / "a"
            second = tmp_path / name / "b"
            assert cli_main(args + ["--out", str(first)]) == 0
            assert cli_main(args + ["--out", str(second)]) == 0
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in second.iterdir())
            for fname in files:
                assert (first / fname).read_bytes() == (second / fname).read_bytes(), fname

        fig1_files = sorted(p.name for p in (tmp_path / "fig1_landscape" / "a").iterdir())
        assert fig1_files == [
            "landscape_alpha=0.95.csv",
            "landscape_alpha=1.0.csv",
            "landscape_alpha=10.0.csv",
            "landscape_alpha=2.0.csv",
        ]
        text = (tmp_path / "fig1_landscape" / "a" / "landscape_alpha=0.95.csv").read_text()
        assert "# preset = fig1" in text and "# seed = 42" in text

        report = json.loads((tmp_path / "fig2_certify" / "a" / "certificate.json").read_text())
        assert report["inputs"]["preset"] == "fig2"
        assert report["inputs"]["epsilon0"] == 0.4
        assert report["evolution"][0]["epsilon"] == 0.4
