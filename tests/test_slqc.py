import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss import risk, slqc
from alphaloss.errors import DomainError, NumericError, UsageError
from alphaloss.loss import INFINITY, lipschitz_in_inv_alpha, lipschitz_in_theta, grad_lipschitz_in_inv_alpha
from alphaloss.numerics import RngState, row_norms, sample_ball, sigmoid, vector_norm
from alphaloss.risk import Dataset, empirical_risk, empirical_risk_grad
from test_risk import exact_sups
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
        assert verdict["verdict"] == Verdict.VALUE_GAP.value
        assert verdict["value_gap"] == 0.0

    def test_infinite_epsilon_always_value_gap(self, fig2_small):
        params = SlqcParams(math.inf, 1.0, np.zeros(2))
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rng.normal(size=2)
            theta = theta / np.linalg.norm(theta) * rng.uniform(0, 5)
            verdict = check_slqc_point(2.0, theta, params, fig2_small, 5.0)
            assert verdict["verdict"] == Verdict.VALUE_GAP.value

    @pytest.mark.parametrize("epsilon, kappa", [(0.05, 1e-320), (1e300, 1e-10), (0.4, 5e-324)])
    def test_overflowing_rho_is_domain_error_naming_it(self, epsilon, kappa):
        with pytest.raises(DomainError, match="^rho = epsilon/kappa overflows"):
            SlqcParams(epsilon, kappa, np.zeros(2))

    def test_radius_violation_is_usage_error(self, fig2_small):
        params = SlqcParams(0.1, 1.0, np.zeros(2))
        with pytest.raises(UsageError, match="^theta norm"):
            check_slqc_point(1.0, [6.0, 0.0], params, fig2_small, 5.0)
        with pytest.raises(UsageError, match="^theta0 norm"):
            check_slqc_point(1.0, [0.0, 0.0], SlqcParams(0.1, 1.0, np.array([9.0, 0.0])), fig2_small, 5.0)

    def test_sweep_checks_theta0_before_sampling(self, fig2_small):
        rng = RngState(5)
        with pytest.raises(UsageError, match="^theta0 norm"):
            slqc_sweep(1.0, SlqcParams(0.1, 1.0, np.array([9.0, 0.0])), fig2_small, 5.0, 10, rng)
        assert rng.next_u64() == RngState(5).next_u64()

    def test_interior_point_with_failed_gap_is_neither(self):
        # kappa tiny makes rho huge: every non-gap point is interior -> Neither
        data = line_dataset()
        params = SlqcParams(0.01, 1e-6, np.array([5.0]))
        verdict = check_slqc_point(1.0, [-5.0], params, data, 5.0)
        assert verdict["verdict"] == Verdict.NEITHER.value
        assert "inside" in verdict["note"]

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
            assert check_slqc_point(1.0, theta, params, fig2_small, self.R)["verdict"] == verdict.value

    @pytest.mark.parametrize("kappa_scale", [0.02, 1e-3])
    def test_point_check_is_the_sweep_entry(self, fig2_small, kappa_scale):
        params = self.params(kappa_scale)
        report = slqc_sweep(1.0, params, fig2_small, self.R, self.N_POINTS, RngState(self.SEED))
        for entry in report["neither_diagnostics"]:
            got = check_slqc_point(1.0, entry["point"], params, fig2_small, self.R)
            assert got.keys() == entry.keys()
            assert (got["point"], got["verdict"], got.get("note")) == (entry["point"], "neither", entry.get("note"))
            for key in ("value_gap", "inner", "rho_grad_norm"):
                assert_same_up_to_rounding(got[key], entry[key])
            assert repr(got) == repr(one_point_entry(1.0, params, entry["point"], fig2_small))

    def test_sweep_takes_one_float_pass_and_one_small_exact_pass(self, fig2_small, monkeypatch):
        passes = []
        means, logp = risk._means, risk._logp

        def counting_means(thetas, data, alphas=(), grad_alpha=None, exact=True):
            passes.append((exact, []))
            return means(thetas, data, alphas, grad_alpha, exact)

        def counting_logp(pts, data, **buffers):
            passes[-1][1].append(len(pts))
            return logp(pts, data, **buffers)

        monkeypatch.setattr(risk, "_means", counting_means)
        monkeypatch.setattr(risk, "_logp", counting_logp)
        slqc_sweep(1.0, self.params(1.0), fig2_small, self.R, self.N_POINTS, RngState(self.SEED))
        (base_exact, base_blocks), (float_exact, float_blocks), (last_exact, last_blocks) = passes
        # theta0's exact one-point pass; the float pass, in blocks that cover
        # each point once and never hold one point alone; then one exact
        # pass of a few points, never one alone
        assert base_exact and base_blocks == [1]
        assert not float_exact and sum(float_blocks) == self.N_POINTS and min(float_blocks) >= 2
        assert last_exact and 2 <= sum(last_blocks) <= 16 and min(last_blocks) >= 2

    def test_the_kappas_exercise_every_compared_field(self, fig2_small):
        def oracle(kappa_scale):
            return oracle_sweep(1.0, self.params(kappa_scale), fig2_small, self.R, self.N_POINTS, self.SEED)[0]

        correct, outside, inside = oracle(1.0), oracle(0.02), oracle(1e-3)
        assert correct["counts"]["gradient_cone"] > 0 and correct["counts"]["neither"] == 0
        assert correct["worst_cone_margin"] > 0.0
        notes = ["note" in d for d in outside["neither_diagnostics"]]
        assert any(notes) and not all(notes)
        assert inside["counts"]["neither"] > 10 and len(inside["neither_diagnostics"]) == 10


def classify_oracle(theta, params, gap, grad):
    """The per-point rule that the array verdicts replaced, as it stood:
    (verdict, value gap, inner product, rho ||g||, note) for one point."""
    rho = params.rho
    grad_norm = vector_norm(grad)
    inner = float(np.dot(-grad, params.theta0 - theta))
    rho_grad = rho * grad_norm if grad_norm > 0.0 else 0.0
    note = ""
    if gap <= params.epsilon + SLQC_TOL:
        verdict = Verdict.VALUE_GAP
    elif float(np.linalg.norm(theta - params.theta0)) <= rho:
        verdict = Verdict.NEITHER
        note = "inside the epsilon/kappa ball with a failed value gap"
    elif grad_norm > 0.0 and inner - rho_grad >= -SLQC_TOL:
        verdict = Verdict.GRADIENT_CONE
    else:
        verdict = Verdict.NEITHER
    return verdict, gap, inner, rho_grad, note


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def whole_batch_verdicts(alpha, params, points, data):
    """The oracle: the verdict arrays as they stood before the float
    filter, exact sums for every point."""
    base = risk.risk_values(alpha, params.theta0, data)[0]
    values, grads = risk.risk_values_grads(alpha, points, data)
    gaps = values - base
    with np.errstate(all="ignore"):
        to_center = params.theta0 - points
        inner = np.vecdot(-grads, to_center)
        grad_norms = slqc._norms(grads)
        rho_grad = np.multiply(params.rho, grad_norms, out=np.zeros_like(grad_norms), where=grad_norms > 0.0)
        inside = slqc._norms(to_center) <= params.rho
        cone = (grad_norms > 0.0) & ~inside & (inner - rho_grad >= -SLQC_TOL)
    kind = np.select([gaps <= params.epsilon + SLQC_TOL, cone], [0, 1], default=2)
    return kind, gaps, inner, rho_grad, inside


def whole_batch_grad_infimum(alpha0, epsilon0, r, theta0, data, budget, rng):
    """The oracle: ``estimate_grad_infimum`` as it stood before the float
    filter, exact sums for every point."""
    points = slqc._ball_points(rng, data.dim, r, budget, "budget")
    base = risk.risk_values(alpha0, np.asarray(theta0, dtype=float), data)[0]
    qualifying = risk.risk_values(alpha0, points, data) - base > epsilon0
    if not np.any(qualifying):
        return math.inf
    return float(np.min(row_norms(risk.risk_grads(alpha0, points[qualifying], data))))


def outcome(fn, *args):
    """The repr of ``fn(*args)``, which shows every float's bits, or the
    message of the NumericError it raises."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args))
    except NumericError as exc:
        return f"NumericError: {exc}"


def whole_batch_sweep(*args):
    """``slqc_sweep``'s report from the whole-batch verdicts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slqc, "_verdicts", whole_batch_verdicts)
        return outcome(slqc_sweep, *args)


def record_exact_points(patch) -> list:
    """Record the points of every batch that ``slqc`` sends to an exact pass."""
    calls = []
    for name in ("risk_values", "risk_grads", "risk_values_grads"):
        def counting(alpha, thetas, data, original=getattr(slqc, name)):
            if np.ndim(thetas) == 2:
                calls.append(np.array(thetas))
            return original(alpha, thetas, data)

        patch.setattr(slqc, name, counting)
    return calls


# (order, radius): at 0.0016 the weights reach about 1e245 on the radius-0.5
# ball, whose gradients' squares overflow, and overflow on the radius-1 ball,
# where the float sums are not finite and the exact path decides (it may
# raise NumericError)
FILTER_ORDERS = [(0.5, 3.5), (1.0, 5.0), (2.0, 5.0), (INFINITY, 5.0), (0.0016, 0.5), (0.0016, 1.0)]


class TestFilteredCertificate:
    """The float-filtered sweep and gradient-infimum estimate against the
    whole-batch exact oracles, bit for bit (errors included)."""

    @staticmethod
    def sampled_gap(alpha, theta0, data, r, count, seed, pick):
        """An exact value gap of one of the points a sweep or estimate with
        this seed draws (None when no gap exceeds 2 SLQC_TOL)."""
        points = slqc._ball_points(RngState(seed), data.dim, r, count, "count")
        with np.errstate(all="ignore"):
            gaps = risk.risk_values(alpha, points, data) - risk.risk_values(alpha, theta0, data)[0]
        gaps = gaps[np.isfinite(gaps) & (gaps > 2.0 * SLQC_TOL)]
        return float(gaps[pick % gaps.size]) if gaps.size else None

    @staticmethod
    def threshold_rhos(alpha, epsilon, theta0, data, points):
        """Per point, the rho that puts its exact cone margin on -SLQC_TOL
        (up to rounding), and whether the point can take it: it fails the
        value gap epsilon and lies outside the ball of that rho."""
        with np.errstate(all="ignore"):
            base = risk.risk_values(alpha, theta0, data)[0]
            values, grads = risk.risk_values_grads(alpha, points, data)
            offsets = theta0 - points
            rhos = (np.vecdot(-grads, offsets) + SLQC_TOL) / slqc._norms(grads)
            fit = (values - base > 2.0 * epsilon) & (rhos > 0.0) & (slqc._norms(offsets) > rhos)
        return rhos, fit & np.isfinite(rhos)

    def kappa_on_a_margin(self, alpha, epsilon, theta0, data, r, count, seed, pick):
        """A kappa that puts the cone margin of one of the points a sweep
        with this seed draws on -SLQC_TOL (None when no point can)."""
        points = slqc._ball_points(RngState(seed), data.dim, r, count, "count")
        rhos, fit = self.threshold_rhos(alpha, epsilon, theta0, data, points)
        rhos = rhos[fit]
        return float(epsilon / rhos[pick % rhos.size]) if rhos.size else None

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FILTER_ORDERS), st.sampled_from([1, 2, 3, 40, 300]), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 0.02, 1.0]), st.sampled_from(["on a gap", 0.05, 0.4]), st.integers(0, 299),
           st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)))
    def test_sweep_has_the_whole_batch_bits(self, fig2_small, order, n_points, seed, kappa_scale, epsilon, pick,
                                            center):
        alpha, r = order
        theta0 = np.array(center) * r
        if epsilon == "on a gap":  # epsilon + SLQC_TOL lands on (or next to) an exact gap: the undecided path
            gap = self.sampled_gap(alpha, theta0, fig2_small, r, n_points, seed, pick)
            epsilon = 0.05 if gap is None else gap - SLQC_TOL
        params = SlqcParams(epsilon, lipschitz_in_theta(1.0, r) * kappa_scale, theta0)
        args = (alpha, params, fig2_small, r, n_points)
        assert outcome(slqc_sweep, *args, RngState(seed)) == whole_batch_sweep(*args, RngState(seed))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FILTER_ORDERS), st.sampled_from([1, 2, 3, 40, 300]), st.integers(0, 2**32 - 1),
           st.sampled_from(["on a gap", 0.05, 0.4]), st.integers(0, 299),
           st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)))
    def test_grad_infimum_has_the_whole_batch_bits(self, fig2_small, order, budget, seed, epsilon0, pick, center):
        alpha, r = order
        theta0 = np.array(center) * r
        if epsilon0 == "on a gap":  # a point whose gap equals epsilon0 does not qualify, one ulp above does
            gap = self.sampled_gap(alpha, theta0, fig2_small, r, budget, seed, pick)
            epsilon0 = 0.05 if gap is None else gap
        args = (alpha, epsilon0, r, theta0, fig2_small, budget)
        assert outcome(estimate_grad_infimum, *args, RngState(seed)) == outcome(
            whole_batch_grad_infimum, *args, RngState(seed))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FILTER_ORDERS[:5]), st.sampled_from([2, 3, 300]), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 0.02, 1.0, "on a margin"]), st.integers(0, 299), st.sampled_from([1.0, 1e6, 1e10]))
    def test_float_errors_as_large_as_their_bounds_keep_the_bits(self, fig2_small, order, count, seed, kappa_scale,
                                                                pick, widen):
        # Every float mean moved to within 0.1% of its bound's edge, on
        # either side of the exact mean, with epsilon on a sampled gap or
        # kappa putting a sampled cone margin on -SLQC_TOL. A wider bound
        # is still a bound: widened up to 1e10 times (about 1e-3 of each
        # value), it leaves many points unsettled, and the intervals must
        # still keep every point the report reads.
        alpha, r = order
        theta0 = np.array([0.3, -0.2]) * r
        gap = self.sampled_gap(alpha, theta0, fig2_small, r, count, seed, pick) or 0.05
        epsilon, kappa = gap - SLQC_TOL, lipschitz_in_theta(1.0, r)
        if kappa_scale == "on a margin":
            epsilon = 1e-3
            kappa = self.kappa_on_a_margin(alpha, epsilon, theta0, fig2_small, r, count, seed, pick) or kappa
        else:
            kappa *= kappa_scale
        params = SlqcParams(epsilon, kappa, theta0)
        signs = np.random.default_rng(seed)

        def adversarial(thetas, data, alphas=(), grad_alpha=None):
            _, bounds = risk.float_means(thetas, data, alphas, grad_alpha)
            bounds = bounds * widen
            exact = risk._means(thetas, data, alphas, grad_alpha)
            return exact + 0.999 * bounds * signs.choice([-1.0, 1.0], bounds.shape), bounds

        sweep, estimate = (alpha, params, fig2_small, r, count), (alpha, gap, r, theta0, fig2_small, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slqc, "float_means", adversarial)
            got = outcome(slqc_sweep, *sweep, RngState(seed)), outcome(estimate_grad_infimum, *estimate, RngState(seed))
        assert got == (whole_batch_sweep(*sweep, RngState(seed)),
                       outcome(whole_batch_grad_infimum, *estimate, RngState(seed)))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FILTER_ORDERS[:5]), st.sampled_from([1, 2, 3, 40]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.sampled_from([1e-3, 0.02, 1.0]),
           st.sampled_from([0.05, 0.4, INFINITY]),
           st.lists(st.sampled_from([1.0, 2.0, INFINITY]), min_size=1, max_size=3), st.sampled_from([2.0, INFINITY]))
    def test_rows_without_a_usable_bound_keep_the_bits(self, fig2_small, order, count, seed, share, kappa_scale,
                                                       epsilon, alphas, reference):
        # A stand-in for the float pass inside float_means spoils a random
        # share of its points: one mean of each, or its mean gradient
        # weight (which bounds its gradient rows), becomes NaN, inf or
        # -inf. float_means' own rule must give such a point NaN bounds, so
        # it settles nothing and reaches the exact pass, and no NaN may
        # reach a max: the sweep, the estimate and the saturation sups keep
        # the whole-batch bits, errors included.
        alpha, r = order
        theta0 = np.array([0.3, -0.2]) * r
        spoil, means_of = np.random.default_rng(seed), risk._means

        def spoiled(thetas, data, alphas=(), grad_alpha=None, exact=True):
            means = means_of(thetas, data, alphas, grad_alpha, exact)
            if not exact:  # the last column is the mean gradient weight
                for i in np.flatnonzero(spoil.random(len(means)) < share):
                    value = spoil.choice([np.nan, np.inf, -np.inf])
                    if grad_alpha is not None and spoil.random() < 0.5:
                        means[i, -1] = value
                    else:
                        means[i, spoil.integers(means.shape[1] - 1)] = value
            return means

        sweep = (alpha, SlqcParams(epsilon, lipschitz_in_theta(1.0, r) * kappa_scale, theta0), fig2_small, r, count)
        estimate = (alpha, 0.05, r, theta0, fig2_small, count)
        scan = (alphas, risk.GridSpec(((-r, r, count + 1),) * 2), fig2_small, reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_means", spoiled)
            got = (outcome(slqc_sweep, *sweep, RngState(seed)),
                   outcome(estimate_grad_infimum, *estimate, RngState(seed)), outcome(risk.saturation_sups, *scan))
        assert got == (whole_batch_sweep(*sweep, RngState(seed)),
                       outcome(whole_batch_grad_infimum, *estimate, RngState(seed)), outcome(exact_sups, *scan))

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_float_margins_pushed_over_the_threshold_go_exact(self, fig2_small, seed):
        # kappa puts a Neither point's exact cone margin within rounding
        # below -SLQC_TOL, taking the point farthest from theta0 for its
        # rho among those that can; then every float gradient coordinate is
        # moved by 0.999 of its bound in the direction that raises its
        # point's margin. The float margin crosses the threshold, and only
        # the carried bound keeps the point out of the gradient cone.
        alpha, r, epsilon, theta0 = 1.0, 5.0, 1e-3, np.array([1.5, -1.0])
        points = slqc._ball_points(RngState(seed), 2, r, 300, "n_points")
        rhos, fit = self.threshold_rhos(alpha, epsilon, theta0, fig2_small, points)
        distances = slqc._norms(theta0 - points)
        for i in sorted(np.flatnonzero(fit), key=lambda i: rhos[i] / distances[i]):
            params = SlqcParams(epsilon, epsilon / rhos[i], theta0)
            if whole_batch_verdicts(alpha, params, points, fig2_small)[0][i] == 2:
                break
        else:
            pytest.fail("no sampled point sits just below the cone threshold")

        def raised(thetas, data, alphas=(), grad_alpha=None):
            _, bounds = risk.float_means(thetas, data, alphas, grad_alpha)
            exact = risk._means(thetas, data, alphas, grad_alpha)
            g = exact[:, 1:]
            uphill = np.sign(-(params.theta0 - thetas) - params.rho * g / slqc._norms(g)[:, None])
            exact[:, 1:] += 0.999 * bounds[:, 1:] * uphill
            return exact, bounds

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slqc, "float_means", raised)
            report = outcome(slqc_sweep, alpha, params, fig2_small, r, 300, RngState(seed))
        assert report == whole_batch_sweep(alpha, params, fig2_small, r, 300, RngState(seed))

    def test_every_neither_diagnostic_comes_from_the_exact_pass(self, fig2_small):
        oracle = TestSweepOracle()
        args = (1.0, oracle.params(1e-3), fig2_small, oracle.R, oracle.N_POINTS)
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_points(patch)
            report = slqc_sweep(*args, RngState(oracle.SEED))
        assert report["counts"]["neither"] > 10 and len(report["neither_diagnostics"]) == 10
        assert len(calls) == 1
        exact = {tuple(p) for p in calls[0].tolist()}
        assert all(tuple(entry["point"]) in exact for entry in report["neither_diagnostics"])
        assert repr(report) == whole_batch_sweep(*args, RngState(oracle.SEED))

    def test_a_threshold_just_below_a_gap_is_settled_exactly(self, fig2_small):
        # epsilon0 one ulp below the exact gap of a point whose gradient norm
        # is below that of every point with a larger gap: the point just
        # qualifies and holds the estimate, and only its exact value shows
        # that it qualifies
        theta0, budget, seed = np.array([1.2, 0.9]), 300, 4
        points = slqc._ball_points(RngState(seed), 2, 5.0, budget, "budget")
        gaps = risk.risk_values(1.0, points, fig2_small) - risk.risk_values(1.0, theta0, fig2_small)[0]
        norms = row_norms(risk.risk_grads(1.0, points, fig2_small))
        records = [i for i in np.argsort(-gaps) if norms[i] < np.min(norms[gaps > gaps[i]], initial=math.inf)]
        record = [i for i in records if gaps[i] > 0.0][-1]
        epsilon0 = float(np.nextafter(gaps[record], -math.inf))
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_points(patch)
            estimate = estimate_grad_infimum(1.0, epsilon0, 5.0, theta0, fig2_small, budget, RngState(seed))
        assert estimate == norms[record] == whole_batch_grad_infimum(1.0, epsilon0, 5.0, theta0, fig2_small, budget,
                                                                    RngState(seed))
        assert [len(c) for c in calls] == [2, 2]

    def test_estimate_takes_one_float_pass(self, fig2_small, monkeypatch):
        # One float pass gives every budget point its value and gradient;
        # the exact calls that follow sum only a few points.
        calls, float_means = [], slqc.float_means

        def counting(thetas, data, alphas=(), grad_alpha=None):
            calls.append((len(thetas), tuple(alphas), grad_alpha))
            return float_means(thetas, data, alphas, grad_alpha)

        monkeypatch.setattr(slqc, "float_means", counting)
        with pytest.MonkeyPatch.context() as patch:
            exact = record_exact_points(patch)
            estimate = estimate_grad_infimum(1.0, 0.05, 5.0, np.array([1.2, 0.9]), fig2_small, 300, RngState(4))
        assert math.isfinite(estimate) and calls == [(300, (1.0,), 1.0)]
        assert 1 <= len(exact) <= 2 and all(2 <= len(points) <= 16 for points in exact)

    def test_non_finite_float_means_take_the_exact_path(self, fig2_small):
        # Order 0.0016 on the radius-1 ball: some weights overflow. Every
        # point whose float sums are not finite goes to the one exact call,
        # with the few others that may hold a reported number.
        params = SlqcParams(0.05, 1.0, np.array([0.1, -0.1]))
        points = slqc._ball_points(RngState(2), 2, 1.0, 40, "n_points")
        _, bounds = risk.float_means(points, fig2_small, (0.0016,), 0.0016)
        unsettled = {tuple(p) for p in points[np.isnan(bounds[:, 0])].tolist()}
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_points(patch)
            with np.errstate(all="ignore"):
                report = slqc_sweep(0.0016, params, fig2_small, 1.0, 40, RngState(2))
        assert len(calls) == 1 and 2 <= len(calls[0]) < 40
        assert unsettled and unsettled <= {tuple(p) for p in calls[0].tolist()}
        assert report["worst_value_gap"] == math.inf
        assert repr(report) == whole_batch_sweep(0.0016, params, fig2_small, 1.0, 40, RngState(2))


def one_point_entry(alpha, params, theta, data):
    """The report entry of ``slqc._rule`` on a one-point exact call."""
    point = np.array([theta], dtype=float)
    base = risk.risk_values(alpha, params.theta0, data)[0]
    values, grads = risk.risk_values_grads(alpha, point, data)
    return slqc._entry(point, slqc._rule(params, point, values - base, grads), 0)


class TestArrayVerdicts:
    """``slqc._rule`` against the per-point rule, bit for bit, on the same
    ``risk_values_grads`` output; the order 0.0016 on a radius-0.5 ball
    gives gradients near 1e175, whose squares overflow."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(0.0016, 0.35), (0.5, 3.5), (1.0, 3.5), (2.0, 3.5), (INFINITY, 3.5)]),
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=40),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        st.sampled_from([1e-3, 0.05, 0.3, math.inf]),
        st.floats(1e-4, 10.0),
    )
    def test_bit_equal_to_the_per_point_rule(self, fig2_small, order, coords, center, epsilon, kappa):
        alpha, scale = order
        points = np.array(coords) * scale
        params = SlqcParams(epsilon, kappa, np.array(center) * scale)
        base = risk.risk_values(alpha, params.theta0, fig2_small)[0]
        values, grads = risk.risk_values_grads(alpha, points, fig2_small)
        kind, gaps, inner, rho_grad, inside = slqc._rule(params, points, values - base, grads)
        with np.errstate(all="ignore"):
            want = [classify_oracle(p, params, float(v - base), g) for p, v, g in zip(points, values, grads)]
        assert [slqc._KINDS[k] for k in kind] == [w[0] for w in want]
        for got, column in zip((gaps, inner, rho_grad), list(zip(*want))[1:4]):
            assert bits(got) == bits(column)
        assert [bool(k and i) for k, i in zip(kind, inside)] == [bool(w[4]) for w in want]
        # check_slqc_point: the filter sends a single point to a one-point exact call
        got = check_slqc_point(alpha, points[0], params, fig2_small, 2.0 * scale)
        assert repr(got) == repr(one_point_entry(alpha, params, points[0], fig2_small))


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

    def test_log_loss_base_matches_direct_formulas(self):
        w = evolution_window(1.0, self.E0, self.kappa0(), self.R, self.I)
        alphas = [1.0 + w * k / 8 for k in range(8)]
        rows = evolve_bounds(1.0, self.E0, lipschitz_in_theta(1.0, self.R), self.R, self.I, alphas)
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
