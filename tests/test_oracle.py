"""The brute-force oracles, checked bit for bit against plain double loops
over both Gram triangles, against Gram-free forms and on the solvers' own
guarantees."""

import numpy as np
import pytest

import fcmm.objective
import fcmm.oracle
import fcmm.solvers
from conftest import random_instance
from fcmm.dataset import DataMatrix
from fcmm.membership import MembershipMatrix, PowerMembership, init_random
from fcmm.objective import aggregates, compute_centers, fcm_objective, tangent_gradient
from fcmm.oracle import (OracleReport, classic_update_oracle, descent_chain_audit,
                         finite_diff_gradient, gram_quad_oracle, gram_vector_oracle,
                         run_suite, surrogate_argmin_oracle)
from fcmm.solvers import SolverConfig, solve_fcm_mm, update_membership_mm


def reference_gram(points):
    """Every pair's dot product, both triangles, into an ndarray."""
    n = points.shape[0]
    gram = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            gram[i, k] = float(np.dot(points[i], points[k]))
    return gram


def reference_quad(gram, g):
    total = 0.0
    for i in range(gram.shape[0]):
        for k in range(gram.shape[0]):
            total += g[i] * gram[i, k] * g[k]
    return total


def reference_vector(gram, g):
    out = np.zeros(gram.shape[0])
    for i in range(gram.shape[0]):
        for k in range(gram.shape[0]):
            out[i] += gram[i, k] * g[k]
    return out


def reference_finite_diff(gram, g_t, step):
    def ratio(g):
        num = reference_quad(gram, g)
        den = 0.0
        for i in range(g.shape[0]):
            den += g[i]
        return num / den

    out = np.empty(g_t.shape[0])
    for i in range(g_t.shape[0]):
        up = g_t.copy()
        down = g_t.copy()
        up[i] += step
        down[i] -= step
        out[i] = (ratio(up) - ratio(down)) / (2.0 * step)
    return out


def seeded_points(n, d, seed, duplicates=False):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    if duplicates and n > 1:
        points[rng.integers(0, n, size=n // 2)] = points[0]
    return rng, DataMatrix.from_points(points)


class TestOraclesMatchDoubleLoopsBitwise:
    """Pairs are mirrored and the sums run over Python floats, in the same
    order and grouping as the plain loops, so every bit must agree."""

    @pytest.mark.parametrize("n", [1, 2, 5, 80, 200])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_gram_oracles(self, n, d):
        rng, data = seeded_points(n, d, seed=100 * n + d, duplicates=d % 2 == 0)
        gram = reference_gram(data.points)
        for g in (rng.uniform(0.0, 1.0, size=n), np.ones(n), np.zeros(n),
                  np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n))):
            assert gram_quad_oracle(data, g) == reference_quad(gram, g)
            assert np.array_equal(gram_vector_oracle(data, g), reference_vector(gram, g))

    # the reference takes 2n loops over an n x n Gram matrix, so the large
    # case runs once
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 5) for d in range(1, 6)]
                             + [(80, 4)])
    def test_finite_diff_gradient(self, n, d):
        rng, data = seeded_points(n, d, seed=7 * n + d, duplicates=d % 2 == 0)
        g_t = rng.uniform(0.1, 1.0, size=n)
        expected = reference_finite_diff(reference_gram(data.points), g_t, 1e-5)
        assert np.array_equal(finite_diff_gradient(data, g_t, step=1e-5), expected)

    def test_columns_of_a_membership_matrix(self):
        rng = np.random.default_rng(77)
        data, _, G = random_instance(rng, 30, 3, 4)
        gram = reference_gram(data.points)
        for j in range(4):
            g = G.values[:, j]
            assert gram_quad_oracle(data, g) == reference_quad(gram, g)
            assert np.array_equal(gram_vector_oracle(data, g), reference_vector(gram, g))


class TestWeightShape:
    DATA = DataMatrix.from_points(np.arange(10.0).reshape(5, 2))

    @pytest.mark.parametrize("g", [np.ones(7), np.ones(3), np.ones((5, 1)),
                                   np.ones((1, 5)), 1.0, []])
    def test_gram_oracles_reject(self, g):
        with pytest.raises(ValueError, match="g must be a length-5 vector"):
            gram_quad_oracle(self.DATA, g)
        with pytest.raises(ValueError, match="g must be a length-5 vector"):
            gram_vector_oracle(self.DATA, g)

    @pytest.mark.parametrize("g_t", [np.ones(7), np.ones(3), np.ones((5, 1))])
    def test_finite_diff_rejects(self, g_t):
        with pytest.raises(ValueError, match="g_t must be a length-5 vector"):
            finite_diff_gradient(self.DATA, g_t)

    def test_lists_of_the_right_length_accepted(self):
        assert gram_quad_oracle(self.DATA, [1.0, 0.0, 0.0, 0.0, 0.0]) == 1.0
        assert finite_diff_gradient(self.DATA, [0.5] * 5).shape == (5,)


class TestGramOracle:
    def test_indicator_gives_self_norm(self):
        data = DataMatrix.from_points([[3.0, 4.0], [1.0, 2.0]])
        g = np.array([1.0, 0.0])
        assert gram_quad_oracle(data, g) == 25.0

    def test_symmetric_cancellation(self):
        data = DataMatrix.from_points([[-1.0], [1.0]])
        assert gram_quad_oracle(data, np.ones(2)) == 0.0

    def test_agrees_with_aggregates(self):
        rng = np.random.default_rng(70)
        data, _, G = random_instance(rng, 25, 3, 3)
        agg = aggregates(data, G)
        for j in range(3):
            ref = gram_quad_oracle(data, G.values[:, j])
            assert abs(agg.quad[j] - ref) <= 1e-10 * abs(ref)

    def test_vector_oracle_matches_two_product_route(self):
        rng = np.random.default_rng(71)
        data = DataMatrix.from_points(rng.normal(size=(10, 2)))
        g = rng.uniform(0.1, 1.0, size=10)
        fast = data.points @ (data.points.T @ g)
        slow = gram_vector_oracle(data, g)
        assert np.max(np.abs(fast - slow)) <= 1e-10 * (1.0 + np.max(np.abs(slow)))


class TestFiniteDifferences:
    def test_single_point_case_is_linear(self):
        # one point: ratio(g) = g * |x|^2, so the derivative is exactly |x|^2
        data = DataMatrix.from_points([[2.0, 1.0]])
        fd = finite_diff_gradient(data, np.array([0.7]), step=1e-5)
        assert fd[0] == pytest.approx(5.0, abs=1e-8)

    def test_matches_analytic_gradient(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = int(rng.integers(5, 16))
            data = DataMatrix.from_points(rng.normal(size=(n, 2)))
            g = rng.uniform(0.1, 1.0, size=n)
            an = tangent_gradient(data, g)
            fd = finite_diff_gradient(data, g, step=1e-5)
            assert np.max(np.abs(fd - an)) <= 1e-6 * (1.0 + np.max(np.abs(an)))

    def test_second_order_step_shrink(self):
        # in the truncation-dominated regime halving the step cuts the
        # error by about four
        rng = np.random.default_rng(73)
        data = DataMatrix.from_points(rng.normal(size=(10, 2)))
        g = rng.uniform(0.3, 1.0, size=10)
        an = tangent_gradient(data, g)
        err_coarse = np.max(np.abs(finite_diff_gradient(data, g, step=2e-3) - an))
        err_fine = np.max(np.abs(finite_diff_gradient(data, g, step=1e-3) - an))
        assert 2.5 < err_coarse / err_fine < 6.0

    def test_step_larger_than_components_rejected(self):
        data = DataMatrix.from_points([[1.0], [2.0]])
        with pytest.raises(ValueError):
            finite_diff_gradient(data, np.array([1e-6, 0.5]), step=1e-5)


class TestClassicUpdateOracle:
    def test_two_center_hand_case(self):
        # x=0, centers 1 and 2: squared distances 1 and 4, so (1 + 1/4)^-1 and (4 + 1)^-1
        F = classic_update_oracle(DataMatrix.from_points([[0.0]]), [[1.0], [2.0]], 2.0)
        np.testing.assert_allclose(F.values, [[0.8, 0.2]], rtol=1e-15)

    def test_point_on_center_goes_one_hot(self):
        data = DataMatrix.from_points([[1.0], [5.0]])
        F = classic_update_oracle(data, [[1.0], [3.0]], 2.0)
        np.testing.assert_array_equal(F.values[0], [1.0, 0.0])
        np.testing.assert_allclose(F.values[1], [0.2, 0.8], rtol=1e-15)

    def test_point_on_two_coincident_centers_splits(self):
        data = DataMatrix.from_points([[2.0, 1.0], [0.0, 0.0]])
        F = classic_update_oracle(data, [[2.0, 1.0], [7.0, 7.0], [2.0, 1.0]], 1.5)
        np.testing.assert_array_equal(F.values[0], [0.5, 0.0, 0.5])
        assert F.values[1, 0] == F.values[1, 2] > F.values[1, 1] > 0.0

    @pytest.mark.parametrize("r", [1.05, 20.0])
    def test_extreme_exponents_stay_on_the_simplex(self, r):
        rng = np.random.default_rng(9)
        data = DataMatrix.from_points(rng.normal(size=(40, 3)))
        F = classic_update_oracle(data, rng.normal(size=(4, 3)), r).values
        assert np.all(np.isfinite(F)) and F.min() >= 0.0
        assert np.max(np.abs(F.sum(axis=1) - 1.0)) <= 1e-14


class TestSurrogateArgmin:
    def test_random_instance_certificate(self):
        rng = np.random.default_rng(74)
        data, _, G_t = random_instance(rng, 20, 2, 3)
        report = surrogate_argmin_oracle(data, G_t, 2.0, trials=1000, seed=0)
        assert report.passed
        assert report.samples == 1001

    def test_symmetric_instance(self):
        data = DataMatrix.from_points([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        G = PowerMembership.from_values(np.full((4, 2), 0.25))
        report = surrogate_argmin_oracle(data, G, 2.0, trials=200, seed=1)
        assert report.passed

    def test_deterministic(self):
        rng = np.random.default_rng(75)
        data, _, G_t = random_instance(rng, 10, 2, 2)
        a = surrogate_argmin_oracle(data, G_t, 2.0, trials=50, seed=7)
        b = surrogate_argmin_oracle(data, G_t, 2.0, trials=50, seed=7)
        assert a == b

    def test_needs_a_trial(self):
        data, _, G_t = random_instance(np.random.default_rng(77), 5, 2, 2)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            surrogate_argmin_oracle(data, G_t, 2.0, trials=0, seed=0)

    def test_output_beats_its_own_perturbations(self):
        # feasible perturbations of the closed-form output never lower h,
        # the fuzzy-means cost at the anchor's centers
        rng = np.random.default_rng(76)
        data, _, G_t = random_instance(rng, 15, 2, 3)
        centers_t = compute_centers(aggregates(data, G_t))
        F_star = update_membership_mm(data, G_t, 2.0)
        h_star = fcm_objective(data, F_star, centers_t, 2.0)
        tol = 1e-9 * (1.0 + abs(h_star))
        for _ in range(200):
            t = rng.uniform(1e-4, 0.2)
            other = rng.dirichlet(np.ones(3), size=15)
            mixed = MembershipMatrix.from_values((1 - t) * F_star.values + t * other)
            assert fcm_objective(data, mixed, centers_t, 2.0) >= h_star - tol

    def test_anchor_aggregates_taken_once(self, monkeypatch):
        # once for the anchor's centers and once inside the MM update,
        # however many trials run
        calls = []

        def counted(data, G):
            calls.append(G)
            return aggregates(data, G)

        for module in (fcmm.objective, fcmm.oracle, fcmm.solvers):
            monkeypatch.setattr(module, "aggregates", counted)
        data, _, G_t = random_instance(np.random.default_rng(78), 40, 2, 3)
        assert surrogate_argmin_oracle(data, G_t, 2.0, trials=1000, seed=0).passed
        assert len(calls) == 2 and all(G is G_t for G in calls)


class TestDescentChainAudit:
    def test_blobs_pass(self):
        from fcmm.dataset import SyntheticSpec, make_blobs
        data = make_blobs(SyntheticSpec(blob_count=3, points_per_blob=20, dim=2,
                                        blob_stddev=0.5, blob_center_scale=5.0, seed=0))
        report = descent_chain_audit(data, init_random(data.n, 3, 0),
                                     SolverConfig(c=3), steps=50)
        assert report.passed
        assert report.samples == 50

    def test_iris_pass(self, iris_data):
        report = descent_chain_audit(iris_data, init_random(iris_data.n, 3, 42),
                                     SolverConfig(c=3), steps=100)
        assert report.passed

    def test_needs_a_step(self):
        data = DataMatrix.from_points(np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            descent_chain_audit(data, init_random(5, 2, 0), SolverConfig(c=2), steps=0)

    def test_fixed_point_gives_equalities(self):
        from fcmm.dataset import SyntheticSpec, make_blobs
        data = make_blobs(SyntheticSpec(blob_count=2, points_per_blob=25, dim=2,
                                        blob_stddev=0.2, blob_center_scale=5.0, seed=3))
        settled = solve_fcm_mm(data, init_random(data.n, 2, 4),
                               SolverConfig(c=2, outer_tol=1e-14, max_outer_iters=2000))
        report = descent_chain_audit(data, settled.F_final, SolverConfig(c=2), steps=5)
        assert report.passed


class TestOracleReport:
    def test_pass_iff_error_within_tolerance(self):
        good = OracleReport.from_error("x", 1e-12, 1e-10, 5)
        bad = OracleReport.from_error("x", 1e-8, 1e-10, 5)
        assert good.passed and not bad.passed

    def test_str_includes_status(self):
        line = str(OracleReport.from_error("tangency", 0.0, 1e-10, 3))
        assert line.startswith("[PASS] tangency")


def test_run_suite_quick_all_pass():
    # every check, in order, with its tolerance and sample count: a refactor
    # may not drop, shrink or loosen one
    reports = run_suite("quick", seed=0)
    assert [(r.check_name, r.tolerance, r.samples) for r in reports[:-1]] == [
        ("gram_agreement", 1e-10, 16),
        ("gradient_fd", 1e-6, 10),
        ("tangency", 1e-10, 5),
        ("domination", 1e-9, 200),
        ("single_step_equivalence", 1e-12, 20),
        ("classic_coincidence", 1e-12, 20),
        ("descent_chain", 1e-10, 50),
    ]
    last = reports[-1]
    # 1e-9 * (1 + |h_star|), relative to the certificate's own optimum
    assert (last.check_name, last.samples) == ("surrogate_argmin", 201)
    assert last.tolerance == pytest.approx(1.1230884424710005e-08, rel=1e-9)
    assert all(r.passed for r in reports)


def _negated(tangent_gradient):
    return lambda data, g_t: -tangent_gradient(data, g_t)


def _sharper(update_membership_classic):
    return lambda data, centers, r: update_membership_classic(data, centers, 1.05 * r)


def _inflated(phi):
    return lambda data, G: phi(data, G) * (1.0 + 1e-9)


@pytest.mark.parametrize("module, name, plant, caught_by", [
    (fcmm.oracle, "tangent_gradient", _negated, {"gradient_fd"}),
    (fcmm.solvers, "update_membership_classic", _sharper, {"classic_coincidence"}),
    (fcmm.oracle, "phi", _inflated, {"tangency", "descent_chain"}),
], ids=["gradient-sign", "kernel-exponent", "phi-scale"])
def test_run_suite_catches_a_planted_bug(monkeypatch, module, name, plant, caught_by):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = {r.check_name for r in run_suite("quick", seed=0) if not r.passed}
    assert failed == caught_by


def test_run_suite_rejects_unknown_scale():
    with pytest.raises(ValueError):
        run_suite("huge")
