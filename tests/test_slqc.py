import math

import numpy as np
import pytest

from alphaloss import risk
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.loss import INFINITY, lipschitz_in_inv_alpha, lipschitz_in_theta, grad_lipschitz_in_inv_alpha
from alphaloss.numerics import RngState, sample_ball, sigmoid
from alphaloss.risk import Dataset, empirical_risk, empirical_risk_grad
from alphaloss.slqc import (
    SLQC_TOL,
    EvolutionRow,
    SlqcParams,
    Verdict,
    ball_min_inner,
    check_slqc_point,
    estimate_grad_infimum,
    evolution_to_csv,
    evolution_window,
    evolve_bounds,
    evolve_from_log_loss,
    slqc_sweep,
    strong_convexity_modulus,
)

# mpmath: 0.1 / (2 J_5 (1 + 5 sigma(5) / 0.4))
WINDOW_ENDPOINT = 6.590221271098518e-4
LAMBDA_1_5 = 0.00664805667079015491399853450414423675513


class TestBallMinInner:
    def test_aligned(self):
        assert ball_min_inner([1.0, 0.0], [1.0, 0.0], [0.0, 0.0], 0.5) == pytest.approx(0.5)

    def test_opposed(self):
        assert ball_min_inner([-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], 0.5) == pytest.approx(-1.5)

    def test_matches_sampled_boundary_minimum(self):
        rng = np.random.default_rng(4)
        angles = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for _ in range(200):
            g = rng.normal(size=2)
            theta = rng.normal(size=2) * 3
            theta0 = rng.normal(size=2)
            rho = float(rng.uniform(0.05, 2.0))
            closed = ball_min_inner(g, theta, theta0, rho)
            boundary = theta0 + rho * circle
            sampled = float(np.min((boundary - theta) @ (-g)))
            assert closed <= sampled + 1e-9
            # dense boundary sampling nearly attains the closed form
            assert sampled - closed <= rho * np.linalg.norm(g) * 3e-5 + 1e-12

    def test_rejects_bad_rho(self):
        with pytest.raises(DomainError):
            ball_min_inner([1.0], [1.0], [0.0], 0.0)


def line_dataset():
    """One-sample 1-D dataset: risk is softplus(-theta), gradient -sigmoid(-theta)."""
    return Dataset(np.array([[1.0]]), np.array([1]))


class TestCheckPoint:
    def test_at_theta0_is_value_gap(self, fig2_small):
        params = SlqcParams(0.1, 1.0, np.array([0.5, 0.5]))
        verdict = check_slqc_point(1.0, [0.5, 0.5], params, fig2_small, 5.0)
        assert verdict.satisfied_by is Verdict.VALUE_GAP
        assert verdict.value_gap == 0.0

    def test_infinite_epsilon_always_value_gap(self, fig2_small):
        params = SlqcParams(math.inf, 1.0, np.zeros(2))
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rng.normal(size=2)
            theta = theta / np.linalg.norm(theta) * rng.uniform(0, 5)
            verdict = check_slqc_point(2.0, theta, params, fig2_small, 5.0)
            assert verdict.satisfied_by is Verdict.VALUE_GAP

    def test_radius_violation_is_usage_error(self, fig2_small):
        params = SlqcParams(0.1, 1.0, np.zeros(2))
        with pytest.raises(UsageError):
            check_slqc_point(1.0, [6.0, 0.0], params, fig2_small, 5.0)
        with pytest.raises(UsageError):
            check_slqc_point(1.0, [0.0, 0.0], SlqcParams(0.1, 1.0, np.array([9.0, 0.0])), fig2_small, 5.0)

    def test_interior_point_with_failed_gap_is_neither(self):
        # kappa tiny makes rho huge: every non-gap point is interior -> Neither
        data = line_dataset()
        params = SlqcParams(0.01, 1e-6, np.array([5.0]))
        verdict = check_slqc_point(1.0, [-5.0], params, data, 5.0)
        assert verdict.satisfied_by is Verdict.NEITHER
        assert "inside" in verdict.note

    def test_strongly_convex_risk_never_neither(self, fig2_small):
        r = 5.0
        theta0 = np.array([1.2, 0.9])  # near the minimizer; any center works
        kappa = lipschitz_in_theta(1.0, r)
        params = SlqcParams(0.4, kappa, theta0)
        report = slqc_sweep(1.0, params, fig2_small, r, 300, RngState(11))
        assert report["counts"]["neither"] == 0

    def test_falsification_control_produces_neither(self, fig2_small):
        r = 5.0
        theta0 = np.array([1.2, 0.9])
        kappa = lipschitz_in_theta(1.0, r) / 1000.0
        params = SlqcParams(0.4, kappa, theta0)
        report = slqc_sweep(1.0, params, fig2_small, r, 300, RngState(11))
        assert report["counts"]["neither"] >= 1

    def test_sweep_report_structure(self, fig2_small):
        params = SlqcParams(0.4, 1.0, np.zeros(2))
        report = slqc_sweep(1.0, params, fig2_small, 5.0, 50, RngState(3))
        assert sum(report["counts"].values()) == 50
        assert "not a proof" in report["kind"]


def oracle_sweep(alpha, params, data, r, n_points, seed):
    """The sweep's report fields recomputed one point at a time from the
    scalar risk, the scalar gradient and ``ball_min_inner``, on the points
    that ``sample_ball`` draws from the same seed; also the points and
    their verdicts."""
    rng = RngState(seed)
    points = [sample_ball(rng, data.dim, r) for _ in range(n_points)]
    base = empirical_risk(alpha, params.theta0, data)
    counts = {v.value: 0 for v in Verdict}
    verdicts, gaps, margins, neither = [], [], [], []
    for theta in points:
        gap = empirical_risk(alpha, theta, data) - base
        grad = empirical_risk_grad(alpha, theta, data)
        grad_norm = float(np.linalg.norm(grad))
        margin = ball_min_inner(grad, theta, params.theta0, params.rho)
        note = ""
        if gap <= params.epsilon + SLQC_TOL:
            verdict = Verdict.VALUE_GAP
        else:
            margins.append(margin)
            if float(np.linalg.norm(theta - params.theta0)) <= params.rho:
                verdict = Verdict.NEITHER
                note = "inside the epsilon/kappa ball with a failed value gap"
            elif grad_norm > 0.0 and margin >= -SLQC_TOL:
                verdict = Verdict.GRADIENT_CONE
            else:
                verdict = Verdict.NEITHER
        if verdict is Verdict.NEITHER:
            diagnostic = {
                "point": [float(c) for c in theta],
                "verdict": "neither",
                "value_gap": gap,
                "inner": float(np.dot(-grad, params.theta0 - theta)),
                "rho_grad_norm": params.rho * grad_norm,
            }
            if note:
                diagnostic["note"] = note
            neither.append(diagnostic)
        counts[verdict.value] += 1
        gaps.append(gap)
        verdicts.append(verdict)
    fields = {
        "counts": counts,
        "worst_value_gap": max(gaps),
        "worst_cone_margin": min(margins) if margins else None,
        "neither_diagnostics": neither[:10],
    }
    return fields, points, verdicts


def assert_same_up_to_rounding(got, want):
    """Equal, or both floats within a few units in the last place of 1.
    The margin matmul rounds a many-row batch and a one-row batch
    differently (the gradients of 60 of the 300 points below differ in the
    last bit), so the batched sweep and the per-point oracle agree only to
    rounding."""
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestSweepOracle:
    """Every report field of the batched sweep against the per-point oracle:
    with a kappa under which the risk is SLQC, one that
    fails the cone outside the epsilon/kappa ball, and one so small that
    every point past the gap lies inside the ball."""

    R, EPSILON, N_POINTS, SEED = 5.0, 0.05, 300, 11

    def params(self, kappa_scale):
        return SlqcParams(self.EPSILON, lipschitz_in_theta(1.0, self.R) * kappa_scale, np.array([1.2, 0.9]))

    @pytest.mark.parametrize("kappa_scale", [1.0, 0.02, 1e-3])
    def test_sweep_matches_per_point_oracle(self, fig2_small, kappa_scale):
        params = self.params(kappa_scale)
        report = slqc_sweep(1.0, params, fig2_small, self.R, self.N_POINTS, RngState(self.SEED))
        fields, points, verdicts = oracle_sweep(1.0, params, fig2_small, self.R, self.N_POINTS, self.SEED)
        assert report["counts"] == fields["counts"]
        assert_same_up_to_rounding(report["worst_value_gap"], fields["worst_value_gap"])
        assert_same_up_to_rounding(report["worst_cone_margin"], fields["worst_cone_margin"])
        assert len(report["neither_diagnostics"]) == len(fields["neither_diagnostics"])
        for got, want in zip(report["neither_diagnostics"], fields["neither_diagnostics"]):
            assert got.keys() == want.keys()
            assert (got["point"], got["verdict"], got.get("note")) == (want["point"], want["verdict"], want.get("note"))
            for key in ("value_gap", "inner", "rho_grad_norm"):
                assert_same_up_to_rounding(got[key], want[key])
        for theta, verdict in zip(points, verdicts):
            assert check_slqc_point(1.0, theta, params, fig2_small, self.R).satisfied_by is verdict

    def test_sweep_takes_one_margin_pass_over_its_points(self, fig2_small, monkeypatch):
        calls = []
        original = risk._logp

        def counting(pts, data):
            calls.append(len(pts))
            return original(pts, data)

        monkeypatch.setattr(risk, "_logp", counting)
        slqc_sweep(1.0, self.params(1.0), fig2_small, self.R, self.N_POINTS, RngState(self.SEED))
        # theta0's one call, then the points in blocks that cover each point
        # once and never hold one point alone
        assert calls[0] == 1
        assert sum(calls[1:]) == self.N_POINTS and min(calls[1:]) >= 2

    def test_the_kappas_exercise_every_compared_field(self, fig2_small):
        def oracle(kappa_scale):
            return oracle_sweep(1.0, self.params(kappa_scale), fig2_small, self.R, self.N_POINTS, self.SEED)[0]

        correct, outside, inside = oracle(1.0), oracle(0.02), oracle(1e-3)
        assert correct["counts"]["gradient_cone"] > 0 and correct["counts"]["neither"] == 0
        assert correct["worst_cone_margin"] > 0.0
        notes = ["note" in d for d in outside["neither_diagnostics"]]
        assert any(notes) and not all(notes)
        assert inside["counts"]["neither"] > 10 and len(inside["neither_diagnostics"]) == 10


class TestStrongConvexityModulus:
    def test_identity_moment(self):
        assert strong_convexity_modulus(1.0, 5.0, np.eye(2)) == pytest.approx(LAMBDA_1_5, rel=1e-12)

    def test_singular_moment_degenerates(self):
        assert strong_convexity_modulus(1.0, 5.0, [[1.0, 0.0], [0.0, 0.0]]) == 0.0

    def test_grows_as_alpha_shrinks(self):
        values = [strong_convexity_modulus(a, 5.0, np.eye(2)) for a in (1.0, 0.5, 0.25)]
        assert values[0] < values[1] < values[2]

    def test_rejects_alpha_above_one(self):
        with pytest.raises(DomainError):
            strong_convexity_modulus(2.0, 5.0, np.eye(2))


class TestGradInfimum:
    def test_deterministic(self, fig2_small):
        a = estimate_grad_infimum(1.0, 0.4, 5.0, np.zeros(2), fig2_small, 300, RngState(21))
        b = estimate_grad_infimum(1.0, 0.4, 5.0, np.zeros(2), fig2_small, 300, RngState(21))
        assert a == b

    def test_empty_qualifying_set_is_inf(self, fig2_small):
        # nothing in the ball exceeds the origin risk by 100
        value = estimate_grad_infimum(1.0, 100.0, 5.0, np.zeros(2), fig2_small, 200, RngState(1))
        assert value == math.inf

    def test_one_dimensional_dense_grid_oracle(self):
        data = line_dataset()
        estimate = estimate_grad_infimum(1.0, 1.0, 5.0, np.array([5.0]), data, 100_000, RngState(77))
        # oracle: risk softplus(-t), base softplus(-5); qualifying t have
        # softplus(-t) > 1 + softplus(-5); gradient magnitude is sigmoid(-t)
        grid = np.linspace(-5.0, 5.0, 100_001)
        base = math.log1p(math.exp(-5.0))
        qualifying = np.log1p(np.exp(-grid)) - base > 1.0
        oracle = float(np.min([sigmoid(-t) for t in grid[qualifying]]))
        assert estimate == pytest.approx(oracle, abs=1e-3)

    def test_rejects_bad_budget(self, fig2_small):
        with pytest.raises(UsageError):
            estimate_grad_infimum(1.0, 0.4, 5.0, np.zeros(2), fig2_small, 0, RngState(1))


class TestEvolution:
    E0, R, I = 0.4, 5.0, 0.1

    def kappa0(self):
        return lipschitz_in_theta(1.0, self.R)

    def test_window_endpoint_frozen_value(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        assert w == pytest.approx(WINDOW_ENDPOINT, rel=1e-12)

    def test_identity_at_base_order(self):
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, [1.0])
        row = rows[0]
        assert row.in_window
        assert row.epsilon == self.E0
        assert row.rho == self.E0 / self.kappa0()

    def test_epsilon_slope_is_twice_lipschitz(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        alphas = [1.0, 1.0 + w / 2]
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, alphas)
        # divide by the realized alpha increment (alphas round at scale 1)
        slope = (rows[1].epsilon - rows[0].epsilon) / (alphas[1] - alphas[0])
        assert slope == pytest.approx(2.0 * lipschitz_in_inv_alpha(self.R), abs=1e-12)

    def test_epsilon_value_at_small_increment(self):
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, [1.0 + 1e-4])
        # mpmath: 0.4 + 2 * L_5 * 1e-4
        assert rows[0].epsilon == pytest.approx(0.4032411924819518, rel=1e-12)

    def test_out_of_window_row_carries_no_claim(self):
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, [1.0 + 1e-3])
        assert rows[0].in_window is False
        assert rows[0].epsilon is None and rows[0].rho is None

    def test_monotone_and_positive_across_window(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        alphas = [1.0 + w * k / 10 for k in range(10)]
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, alphas)
        assert all(row.in_window for row in rows)
        eps = [row.epsilon for row in rows]
        rho = [row.rho for row in rows]
        assert all(a < b for a, b in zip(eps, eps[1:]))
        assert all(a > b for a, b in zip(rho, rho[1:]))
        assert all(v > 0.0 for v in rho)

    def test_contraction_factor_below_one_near_endpoint(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, [1.0 + w * (1 - 1e-9)])
        assert rows[0].in_window and rows[0].rho > 0.0

    def test_log_loss_shortcut_matches_direct_formulas(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        alphas = [1.0 + w * k / 8 for k in range(8)]
        rows = evolve_from_log_loss(self.E0, self.R, self.I, alphas)
        sig_r = sigmoid(self.R)
        big_l = lipschitz_in_inv_alpha(self.R)
        big_j = grad_lipschitz_in_inv_alpha(self.R)
        for row, alpha in zip(rows, alphas):
            eps_direct = self.E0 + 2.0 * big_l * (alpha - 1.0)
            rho_direct = (self.E0 / sig_r) * (
                1.0
                - (1.0 + 2.0 * self.R * sig_r / self.E0)
                * big_j
                * (alpha - 1.0)
                / (alpha * self.I - big_j * (alpha - 1.0))
            )
            assert abs(row.epsilon - eps_direct) < 1e-12
            assert abs(row.rho - rho_direct) < 1e-12

    def test_log_loss_shortcut_equals_general_form(self):
        alphas = [1.0, 1.0 + WINDOW_ENDPOINT / 3]
        direct = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, alphas)
        shortcut = evolve_from_log_loss(self.E0, self.R, self.I, alphas)
        for a, b in zip(direct, shortcut):
            assert a == b

    def test_rejects_alpha_below_base(self):
        with pytest.raises(UsageError):
            evolve_bounds(1.5, self.E0, self.kappa0(), self.R, self.I, [1.2])

    def test_rejects_nonpositive_infimum(self):
        with pytest.raises(DomainError):
            evolve_bounds(1.0, self.E0, self.kappa0(), self.R, 0.0, [1.0])

    def test_infinite_infimum_needs_opt_in(self):
        with pytest.raises(DomainError, match="sentinel"):
            evolve_bounds(1.0, self.E0, self.kappa0(), self.R, math.inf, [1.0])
        rows = evolve_bounds(
            1.0, self.E0, self.kappa0(), self.R, math.inf, [1.0, 3.0], allow_infinite_grad_inf=True
        )
        assert all(row.in_window for row in rows)
        assert rows[1].rho == rows[0].rho  # no contraction with an unbounded window

    @pytest.mark.parametrize("alpha", [1e307, 1e308])
    def test_non_finite_in_window_row_is_numeric_error(self, alpha):
        # With an unbounded window, epsilon overflows to inf at 1e307 and
        # rho becomes inf/inf = nan at 1e308.
        with pytest.raises(NumericError, match="not finite"):
            evolve_bounds(1, 0.4, sigmoid(5), 5, math.inf, [alpha], True)

    def test_infinite_target_is_out_of_window(self):
        rows = evolve_bounds(1.0, self.E0, self.kappa0(), self.R, self.I, [INFINITY])
        assert rows[0].in_window is False

    def test_csv_serialization(self):
        rows = [
            EvolutionRow(1.0, 0.4, 0.5, True),
            EvolutionRow(2.0, None, None, False),
            EvolutionRow(INFINITY, None, None, False),
        ]
        text = evolution_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,epsilon,rho,in_window"
        assert lines[1] == "1,0.40000000000000002,0.5,true"
        assert lines[2] == "2,,,false"
        assert lines[3] == "inf,,,false"
