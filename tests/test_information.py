import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaloss.errors import DomainError, NumericError, ParseError, UsageError
from alphaloss.information import (
    DiscreteJoint,
    Posterior,
    arimoto_cond_entropy,
    discrete_alpha_risk,
    load_matrix_csv,
    min_alpha_risk,
    tilted_posterior,
)
from alphaloss.cli import main
from alphaloss.loss import INFINITY, alpha_loss

LN2 = math.log(2.0)


def random_joint(rng, nx=2, ny=2):
    m = rng.uniform(0.05, 1.0, size=(nx, ny))
    return DiscreteJoint(m / m.sum())


def random_posterior(rng, nx=2, ny=2):
    m = rng.uniform(0.01, 1.0, size=(nx, ny))
    return Posterior(m / m.sum(axis=1, keepdims=True))


class TestValidation:
    def test_joint_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum to 1"):
            DiscreteJoint([[0.5, 0.4]])

    def test_joint_rejects_negative_with_coordinates(self):
        with pytest.raises(DomainError, match=r"\(1, 0\)"):
            DiscreteJoint([[0.6, 0.5], [-0.1, 0.0]])

    def test_posterior_rows_sum_to_one(self):
        Posterior([[0.3, 0.7], [1.0, 0.0]])
        with pytest.raises(DomainError, match="row 1"):
            Posterior([[0.3, 0.7], [0.9, 0.0]])


class TestRisk:
    def test_overflowing_cell_loss_is_numeric_error_naming_it(self):
        # 0.2^(1 - 2000) is about e^3217
        joint = DiscreteJoint([[0.4, 0.1], [0.1, 0.4]])
        posterior = Posterior([[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(NumericError, match=r"alpha-loss overflows at alpha 0\.0005, p 0\.2"):
            discrete_alpha_risk(joint, posterior, 0.0005)

    def test_log_loss_mixture(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        posterior = Posterior([[0.8, 0.2]])
        # mpmath: 0.5 (-ln 0.8 - ln 0.2)
        assert discrete_alpha_risk(joint, posterior, 1.0) == pytest.approx(
            0.9162907318741551, rel=1e-12
        )

    def test_soft01_is_expected_miss_mass(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        posterior = Posterior([[0.8, 0.2]])
        assert discrete_alpha_risk(joint, posterior, INFINITY) == pytest.approx(0.5, rel=1e-15)

    def test_one_hot_on_deterministic_joint_is_free(self):
        joint = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
        posterior = Posterior([[1.0, 0.0], [0.0, 1.0]])
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            assert discrete_alpha_risk(joint, posterior, alpha) == 0.0

    def test_zero_posterior_mass_sentinels(self):
        joint = DiscreteJoint([[0.5, 0.5]])
        posterior = Posterior([[1.0, 0.0]])
        assert discrete_alpha_risk(joint, posterior, 0.5) == math.inf
        assert discrete_alpha_risk(joint, posterior, 1.0) == math.inf
        # the certain correct cell is free; the missed half saturates at
        # alpha/(alpha-1) = 2
        assert discrete_alpha_risk(joint, posterior, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert discrete_alpha_risk(joint, posterior, INFINITY) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            discrete_alpha_risk(DiscreteJoint([[1.0]]), Posterior([[0.5, 0.5]]), 1.0)

    def test_cross_entropy_identity_at_order_one(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            joint = random_joint(rng, nx=3, ny=3)
            posterior = random_posterior(rng, nx=3, ny=3)
            marg = joint.marginal_x()
            expected = 0.0
            for i in range(3):
                cond = joint.p[i] / marg[i]
                expected += marg[i] * float(-(cond * np.log(posterior.q[i])).sum())
            assert discrete_alpha_risk(joint, posterior, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_probability_of_error_identity_at_infinite_order(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            joint = random_joint(rng)
            posterior = random_posterior(rng)
            expected = 1.0 - float((joint.p * posterior.q).sum())
            assert discrete_alpha_risk(joint, posterior, INFINITY) == pytest.approx(expected, abs=1e-12)


class TestTilted:
    def test_order_two_tilt(self):
        joint = DiscreteJoint([[0.8, 0.2]])
        tilted = tilted_posterior(joint, 2.0)
        assert tilted.q[0] == pytest.approx([16.0 / 17.0, 1.0 / 17.0], rel=1e-14)

    def test_order_one_is_true_posterior(self):
        joint = DiscreteJoint([[0.3, 0.1], [0.15, 0.45]])
        tilted = tilted_posterior(joint, 1.0)
        marg = joint.marginal_x()
        assert np.allclose(tilted.q, joint.p / marg[:, None], atol=1e-15)

    def test_infinite_order_is_argmax(self):
        joint = DiscreteJoint([[0.8, 0.2]])
        assert np.array_equal(tilted_posterior(joint, INFINITY).q[0], [1.0, 0.0])

    def test_infinite_order_splits_ties(self):
        joint = DiscreteJoint([[0.25, 0.25], [0.3, 0.2]])
        tilted = tilted_posterior(joint, INFINITY)
        assert np.array_equal(tilted.q[0], [0.5, 0.5])
        assert np.array_equal(tilted.q[1], [1.0, 0.0])

    def test_zero_mass_row_is_flagged(self):
        joint = DiscreteJoint([[0.0, 0.0], [0.5, 0.5]])
        with pytest.warns(RuntimeWarning, match="zero marginal"):
            tilted = tilted_posterior(joint, 2.0)
        assert np.array_equal(tilted.q[0], [0.5, 0.5])

    def test_optimality_against_random_posteriors(self):
        rng = np.random.default_rng(60)
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            joint = random_joint(rng)
            best = discrete_alpha_risk(joint, tilted_posterior(joint, alpha), alpha)
            for _ in range(1000):
                other = discrete_alpha_risk(joint, random_posterior(rng), alpha)
                assert best <= other + 1e-12


class TestArimoto:
    UNIFORM_INDEPENDENT = [[0.3 * 0.5, 0.3 * 0.5], [0.7 * 0.5, 0.7 * 0.5]]

    def test_uniform_independent_label(self):
        joint = DiscreteJoint(self.UNIFORM_INDEPENDENT)
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            assert arimoto_cond_entropy(joint, alpha) == pytest.approx(LN2, rel=1e-12)

    def test_deterministic_label(self):
        joint = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
        for alpha in (0.5, 1.0, 2.0, INFINITY):
            assert arimoto_cond_entropy(joint, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_one_line_formula_oracle(self):
        p = np.array([[0.4, 0.1], [0.1, 0.4]])
        joint = DiscreteJoint(p)
        oracle = 2.0 / (1.0 - 2.0) * math.log(((p**2).sum(axis=1) ** 0.5).sum())
        assert arimoto_cond_entropy(joint, 2.0) == pytest.approx(oracle, rel=1e-13)

    def test_continuity_across_order_one(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            joint = random_joint(rng, nx=3, ny=4)
            base = arimoto_cond_entropy(joint, 1.0)
            assert abs(arimoto_cond_entropy(joint, 1.0 + 1e-7) - base) < 1e-6
            assert abs(arimoto_cond_entropy(joint, 1.0 - 1e-7) - base) < 1e-6

    def test_continuity_at_infinite_order(self):
        rng = np.random.default_rng(71)
        joint = random_joint(rng, nx=3, ny=3)
        assert abs(arimoto_cond_entropy(joint, 1e9) - arimoto_cond_entropy(joint, INFINITY)) < 1e-6

    def test_range(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            ny = int(rng.integers(2, 5))
            joint = random_joint(rng, nx=int(rng.integers(1, 4)), ny=ny)
            for alpha in (0.3, 1.0, 3.0, INFINITY):
                h = arimoto_cond_entropy(joint, alpha)
                assert -1e-12 <= h <= math.log(ny) + 1e-12


class TestMinRisk:
    def test_overflow_is_numeric_error_naming_it(self):
        # (1 - alpha)/alpha * H_alpha is about 1386 at alpha = 0.0005
        joint = DiscreteJoint([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(NumericError, match=r"minimal alpha-risk overflows at alpha 0\.0005"):
            min_alpha_risk(joint, 0.0005)

    def test_uniform_binary(self):
        joint = DiscreteJoint([[0.25, 0.25], [0.25, 0.25]])
        assert min_alpha_risk(joint, 1.0) == pytest.approx(LN2, rel=1e-12)
        assert min_alpha_risk(joint, INFINITY) == pytest.approx(0.5, rel=1e-12)

    def test_consistent_with_tilted_risk(self):
        rng = np.random.default_rng(80)
        for alpha in (0.5, 2.0, 5.0, INFINITY):
            for _ in range(10):
                joint = random_joint(rng)
                achieved = discrete_alpha_risk(joint, tilted_posterior(joint, alpha), alpha)
                assert min_alpha_risk(joint, alpha) == pytest.approx(achieved, abs=1e-9)

    def test_brute_force_simplex_grid(self):
        # independent oracle: exhaustive per-row grid search, step 2e-3
        rng = np.random.default_rng(81)
        joint = random_joint(rng)
        qs = np.linspace(0.0, 1.0, 501)
        for alpha in (0.5, 2.0, INFINITY):
            best = math.inf
            for q0 in qs:
                for q1 in qs:
                    posterior = Posterior([[q0, 1.0 - q0], [q1, 1.0 - q1]])
                    best = min(best, discrete_alpha_risk(joint, posterior, alpha))
            assert min_alpha_risk(joint, alpha) == pytest.approx(best, abs=5e-3)


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("0.4,0.1\n0.1,0.4\n")
        m = load_matrix_csv(path)
        assert np.array_equal(m, [[0.4, 0.1], [0.1, 0.4]])

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("0.4,0.1\n0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("0.4,x\n")
        with pytest.raises(ParseError, match="line 1"):
            load_matrix_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError, match="no data"):
            load_matrix_csv(path)


# ---------------------------------------------------------------------------
# Bit equality with per-cell oracles: the straightforward loop forms of the
# discrete layer, one matrix entry at a time.
# ---------------------------------------------------------------------------


def _oracle_risk(joint, posterior, alpha):
    terms = []
    for i in range(joint.n_x):
        for j in range(joint.n_y):
            mass, q = joint.p[i, j], posterior.q[i, j]
            if mass == 0.0:
                continue
            if q > 0.0:
                terms.append(mass * alpha_loss(alpha, q))
            elif math.isinf(alpha):
                terms.append(mass)
            elif alpha > 1.0:
                terms.append(mass * alpha / (alpha - 1.0))
            else:
                return math.inf
    return math.fsum(terms)


def _oracle_tilted(joint, alpha):
    out = np.empty_like(joint.p)
    for i in range(joint.n_x):
        row = joint.p[i]
        total = row.sum()
        if total == 0.0:
            out[i] = 1.0 / joint.n_y
            continue
        cond = row / total
        if math.isinf(alpha):
            top = cond == cond.max()
            out[i] = top / top.sum()
        elif abs(1.0 - 1.0 / alpha) < 1e-6:
            out[i] = cond
        else:
            logs = np.full_like(cond, -math.inf)
            pos = cond > 0.0
            logs[pos] = alpha * np.log(cond[pos])
            weights = np.exp(logs - logs.max())
            out[i] = weights / weights.sum()
    return Posterior(out)


def _oracle_entropy(joint, alpha):
    if math.isinf(alpha):
        return -math.log(math.fsum(joint.p.max(axis=1).tolist()))
    marg = joint.marginal_x()
    if abs(1.0 - 1.0 / alpha) < 1e-6:
        return math.fsum(-joint.p[i, j] * math.log(joint.p[i, j] / marg[i])
                         for i in range(joint.n_x) for j in range(joint.n_y) if joint.p[i, j] > 0.0)
    row_logs = []
    for row in joint.p:
        pos = row > 0.0
        if pos.any():
            logs = alpha * np.log(row[pos])
            shift = logs.max()
            row_logs.append((shift + math.log(np.exp(logs - shift).sum())) / alpha)
    shift = max(row_logs)
    return alpha / (1.0 - alpha) * (shift + math.log(math.fsum([math.exp(v - shift) for v in row_logs])))


def _outcome(f, *args):
    """The result's bytes, or the type of the error raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = f(*args)
    except Exception as exc:  # the error type is the outcome
        return type(exc)
    return np.asarray(value.q if isinstance(value, Posterior) else value, dtype=float).tobytes()


ORDERS = (0.3, 0.5, 1.0, 1.0 + 1e-7, 1.7, 2.0, 37.0, 1e6, 1e300, 1e308, INFINITY)
CELL = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 0.5]), st.floats(1e-9, 10.0))


@st.composite
def joint_and_posterior(draw):
    """A joint up to 6 x 12 with zero cells, zero-mass rows and ties, and a
    posterior of the same shape with zero cells."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    m = np.array(draw(st.lists(CELL, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    if not m.any():
        m[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))] = 1.0
    q = np.array(draw(st.lists(CELL, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    q[~q.any(axis=1), 0] = 1.0
    return DiscreteJoint(m / math.fsum(m.ravel().tolist())), Posterior(q / q.sum(axis=1, keepdims=True))


class TestArrayFormMatchesCellOracles:
    @settings(max_examples=300, deadline=None)
    @given(case=joint_and_posterior(), alpha=st.sampled_from(ORDERS))
    def test_bit_equal(self, case, alpha):
        joint, posterior = case
        assert _outcome(discrete_alpha_risk, joint, posterior, alpha) == _outcome(_oracle_risk, joint, posterior, alpha)
        tilted = _outcome(tilted_posterior, joint, alpha)
        assert tilted == _outcome(_oracle_tilted, joint, alpha)
        if not isinstance(tilted, type):
            t = Posterior(np.frombuffer(tilted).reshape(joint.p.shape))
            assert _outcome(discrete_alpha_risk, joint, t, alpha) == _outcome(_oracle_risk, joint, t, alpha)
        assert _outcome(arimoto_cond_entropy, joint, alpha) == _outcome(_oracle_entropy, joint, alpha)

    def test_rows_of_eight_or_more_labels_with_zeros(self):
        # zeros inside a long row would regroup numpy's pairwise row sum
        rng = np.random.default_rng(90)
        for ny in (7, 8, 9, 12, 17):
            for k in range(40):
                m = rng.uniform(0.0, 1.0, size=(3, ny)) * (rng.uniform(size=(3, ny)) < 0.7)
                m[0, 0] += 0.1
                m[2] *= k % 2  # every other joint has a massless row
                joint = DiscreteJoint(m / math.fsum(m.ravel().tolist()))
                for alpha in ORDERS:
                    assert _outcome(arimoto_cond_entropy, joint, alpha) == _outcome(_oracle_entropy, joint, alpha)
                    assert _outcome(tilted_posterior, joint, alpha) == _outcome(_oracle_tilted, joint, alpha)

    def test_massless_row_at_a_huge_order_stays_a_placeholder(self):
        # alpha * log(1/7) overflows at this order: the placeholder must not be tilted
        joint = DiscreteJoint(np.array([[1.0] + [0.0] * 6, [0.0] * 7]))
        with pytest.warns(RuntimeWarning, match=r"joint rows \[1\]") as record:
            q = tilted_posterior(joint, 1e308).q
        assert len(record) == 1
        assert q[0].tolist() == [1.0] + [0.0] * 6
        assert q[1].tolist() == [1.0 / 7] * 7


# sha256 of tilted.json for four runs of `tilted`, as written before the
# discrete layer took its array form.
TILTED_DIGESTS = [
    ("0.2,0.2,0.1\n0.15,0.15,0.15\n0.05,0,0\n", "inf", None,
     "f22392d37fecf0400f80e3ee60aa9cb9ab2317cb69f4886374ac987b7bf1a6de"),
    ("0.1,0.2,0,0.15,0.05,0.1,0.1,0.2,0.1\n", "2", None,
     "b04f306df3e561c2d4f5c4663dc4c57d3df9c383a38702f2351e0f2d56377159"),
    ("0.3,0.1,0\n0.05,0.25,0.3\n", "1.0000001", None,
     "76f9d420339619ed81f61ffdb71be6ae6ee3a702761f8b0efb9400cbb5217f41"),
    ("0.4,0.1\n0.1,0.4\n", "0.5", "0.8,0.2\n1,0\n",
     "d1bdf41f99c2f14d391c340c047ee6eed700f442cf2442d697a9d7242d93d5d0"),
]


@pytest.mark.parametrize("joint_text,alpha,posterior_text,digest", TILTED_DIGESTS)
def test_tilted_report_bytes_are_pinned(tmp_path, monkeypatch, joint_text, alpha, posterior_text, digest):
    monkeypatch.chdir(tmp_path)  # the report names its input files as given
    (tmp_path / "joint.csv").write_text(joint_text)
    argv = ["tilted", "--joint", "joint.csv", "--alpha", alpha, "--out", "out"]
    if posterior_text is not None:
        (tmp_path / "post.csv").write_text(posterior_text)
        argv += ["--posterior", "post.csv"]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "out" / "tilted.json").read_bytes()).hexdigest() == digest
