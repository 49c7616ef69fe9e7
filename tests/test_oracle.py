"""The brute-force oracles, checked bit for bit against plain Python loops
over both Gram triangles, against Gram-free forms and on the solvers' own
guarantees."""

import dataclasses

import numpy as np
import pytest

import fcmm.objective
import fcmm.oracle
import fcmm.solvers
from conftest import bracket_gradient, random_instance
from fcmm.dataset import DataMatrix
from fcmm.membership import MembershipMatrix, PowerMembership, init_random, to_power
from fcmm.objective import aggregates, compute_centers, fcm_objective, phi
from fcmm.oracle import (OracleReport, classic_update_oracle, descent_chain_audit,
                         finite_diff_gradient, gram_quad_oracle, gram_vector_oracle,
                         run_suite, surrogate_argmin_oracle)
from fcmm.solvers import SolverConfig, solve_fcm_mm, update_membership_mm


def reference_gram(points):
    """Every pair's coordinate products summed from 0.0 in coordinate
    order, both triangles, as lists of Python floats: no numpy arithmetic."""
    rows = points.tolist()
    gram = []
    for x_i in rows:
        gram_row = []
        for x_k in rows:
            total = 0.0
            for a, b in zip(x_i, x_k):
                total += a * b
            gram_row.append(total)
        gram.append(gram_row)
    return gram


def reference_quad(gram, g):
    total = 0.0
    for g_i, row in zip(g, gram):
        for gram_ik, g_k in zip(row, g):
            total += g_i * gram_ik * g_k
    return total


def reference_vector(gram, g):
    out = []
    for row in gram:
        total = 0.0
        for gram_ik, g_k in zip(row, g):
            total += gram_ik * g_k
        out.append(total)
    return out


def reference_finite_diff(gram, g_t, step):
    def ratio(g):
        den = 0.0
        for g_i in g:
            den += g_i
        return reference_quad(gram, g) / den

    out = []
    for i in range(len(g_t)):
        up = list(g_t)
        down = list(g_t)
        up[i] += step
        down[i] -= step
        out.append((ratio(up) - ratio(down)) / (2.0 * step))
    return out


def same_bits(array, floats):
    """An oracle's float64 vector holds exactly these Python floats, signs
    of zero included (``==`` and ``array_equal`` take -0.0 for 0.0)."""
    return array.dtype == np.float64 and array.tobytes() == np.array(floats).tobytes()


def seeded_points(n, d, seed, duplicates=False):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    if duplicates and n > 1:
        points[rng.integers(0, n, size=n // 2)] = points[0]
    return rng, DataMatrix.from_points(points)


class TestOraclesMatchDoubleLoopsBitwise:
    """The oracles' array sums run in the plain loops' order from 0.0, so
    every bit must agree, the sign of a zero result included."""

    @pytest.mark.parametrize("n", [1, 2, 5, 80, 200])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_gram_oracles(self, n, d):
        rng, data = seeded_points(n, d, seed=100 * n + d, duplicates=d % 2 == 0)
        gram = reference_gram(data.points)
        assert same_bits(fcmm.oracle._gram_matrix(data), gram)
        # signed zeros: where every product is -0.0 (n = 1, or a row of
        # positive entries), a sum that starts from its first term instead
        # of from 0.0 returns -0.0
        for g in (rng.uniform(0.0, 1.0, size=n), np.ones(n), np.zeros(n),
                  np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n)),
                  np.where(np.arange(n) % 2 == 0, -0.0, 0.0), np.full(n, -0.0)):
            assert gram_quad_oracle(data, g).hex() == reference_quad(gram, g.tolist()).hex()
            assert same_bits(gram_vector_oracle(data, g), reference_vector(gram, g.tolist()))

    # the reference takes 2n loops over an n x n Gram matrix, so the large
    # case runs once
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 5) for d in range(1, 6)]
                             + [(80, 4)])
    def test_finite_diff_gradient(self, n, d):
        rng, data = seeded_points(n, d, seed=7 * n + d, duplicates=d % 2 == 0)
        g_t = rng.uniform(0.1, 1.0, size=n)
        expected = reference_finite_diff(reference_gram(data.points), g_t.tolist(), 1e-5)
        assert same_bits(finite_diff_gradient(data, g_t, step=1e-5), expected)

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 6, 7, 8])
    def test_finite_diff_gradient_in_chunks(self, monkeypatch, width):
        # chunks of `width` components (0: fewer products than one
        # component's, still one), the last short where 7 is no multiple
        monkeypatch.setattr(fcmm.oracle, "_FD_TERMS", max(1, 2 * 7 * 7 * width))
        rng, data = seeded_points(7, 3, seed=90 + width)
        g_t = rng.uniform(0.1, 1.0, size=7)
        expected = reference_finite_diff(reference_gram(data.points), g_t.tolist(), 1e-5)
        assert same_bits(finite_diff_gradient(data, g_t, step=1e-5), expected)

    def test_columns_of_a_membership_matrix(self):
        rng = np.random.default_rng(77)
        data, _, G = random_instance(rng, 30, 3, 4)
        gram = reference_gram(data.points)
        for j in range(4):
            g = G.values[:, j]
            assert gram_quad_oracle(data, g).hex() == reference_quad(gram, g.tolist()).hex()
            assert same_bits(gram_vector_oracle(data, g), reference_vector(gram, g.tolist()))


def count_builds(monkeypatch):
    """List of the distinct Gram matrices the oracles have received from
    here on: a held matrix is the same object, so each entry is a build."""
    built = []
    gram_matrix = fcmm.oracle._gram_matrix

    def counted(data):
        gram = gram_matrix(data)
        if not any(gram is other for other in built):
            built.append(gram)
        return gram

    monkeypatch.setattr(fcmm.oracle, "_gram_matrix", counted)
    return built


def count_distances(monkeypatch):
    """List that grows by one per set of point-to-center distances taken."""
    calls = []
    distances = fcmm.objective._sq_distances

    def counted(points, centers):
        calls.append(1)
        return distances(points, centers)

    for module in (fcmm.objective, fcmm.oracle):
        monkeypatch.setattr(module, "_sq_distances", counted)
    return calls


class TestHeldGram:
    def test_built_once_per_data_matrix(self, monkeypatch):
        rng, data = seeded_points(12, 3, seed=80)
        g = rng.uniform(0.1, 1.0, size=12)
        built = count_builds(monkeypatch)
        quad = gram_quad_oracle(data, g)
        vector = gram_vector_oracle(data, g)
        fd = finite_diff_gradient(data, g)
        assert gram_quad_oracle(data, g) == quad
        assert np.array_equal(gram_vector_oracle(data, g), vector)
        assert np.array_equal(finite_diff_gradient(data, g), fd)
        assert len(built) == 1

        # the same points array, held as is, in another DataMatrix
        other = DataMatrix.from_points(data.points)
        assert other.points is data.points
        assert gram_quad_oracle(other, g) == quad
        assert np.array_equal(gram_vector_oracle(other, g), vector)
        assert len(built) == 2

    def test_held_gram_is_read_only(self):
        _, data = seeded_points(4, 2, seed=81)
        gram = fcmm.oracle._gram_matrix(data)
        assert fcmm.oracle._gram_matrix(data) is gram
        assert isinstance(gram, np.ndarray) and gram.shape == (4, 4)
        with pytest.raises(ValueError, match="read-only"):
            gram[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 0] = 1.0

    def test_data_compares_and_prints_as_before(self):
        # one point of one feature, so the fields' == reduces to a bool
        data = DataMatrix.from_points([[2.0]])
        fresh = DataMatrix.from_points([[2.0]])
        text = repr(data)
        assert gram_quad_oracle(data, [1.0]) == 4.0
        assert [f.name for f in dataclasses.fields(data)] == ["points", "sq_norms"]
        assert data == fresh and fresh == data
        assert repr(data) == text == repr(fresh)
        assert "gram" not in repr(data)


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
            an = bracket_gradient(data, g)
            fd = finite_diff_gradient(data, g, step=1e-5)
            assert np.max(np.abs(fd - an)) <= 1e-6 * (1.0 + np.max(np.abs(an)))

    def test_second_order_step_shrink(self):
        # in the truncation-dominated regime halving the step cuts the
        # error by about four
        rng = np.random.default_rng(73)
        data = DataMatrix.from_points(rng.normal(size=(10, 2)))
        g = rng.uniform(0.3, 1.0, size=10)
        an = bracket_gradient(data, g)
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

    def test_distances_taken_once(self, monkeypatch):
        calls = count_distances(monkeypatch)
        data, _, G_t = random_instance(np.random.default_rng(79), 40, 2, 3)
        assert surrogate_argmin_oracle(data, G_t, 2.0, trials=1000, seed=0).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_same_bits_as_one_objective_per_trial(self, r):
        data, _, G_t = random_instance(np.random.default_rng(80), 40, 2, 3, r)
        centers_t = compute_centers(aggregates(data, G_t))
        h_star = fcm_objective(data, update_membership_mm(data, G_t, r), centers_t, r)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=40))
            worst = max(worst, h_star - fcm_objective(data, F, centers_t, r))
        report = surrogate_argmin_oracle(data, G_t, r, trials=1000, seed=5)
        assert report.max_error.hex() == max(0.0, worst).hex()
        assert report.tolerance.hex() == (1e-9 * (1.0 + abs(h_star))).hex()

    @pytest.mark.parametrize("trials", [1, fcmm.oracle._CHUNK - 1, fcmm.oracle._CHUNK,
                                        fcmm.oracle._CHUNK + 1, 1000])
    def test_chunks_same_bits_as_one_draw_per_trial(self, monkeypatch, trials):
        # The closed-form update is swapped for every point on its farthest
        # center, which each draw beats (f**r <= f), so max_error is the
        # best draw's margin and every draw's bits can move it.
        data, _, G_t = random_instance(np.random.default_rng(80), 40, 2, 3, 1.5)
        centers_t = compute_centers(aggregates(data, G_t))

        def farthest(data, G, r):
            far = np.square(data.points[:, None, :] - centers_t).sum(axis=2).argmax(axis=1)
            return MembershipMatrix.from_values(np.eye(3)[far])

        monkeypatch.setattr(fcmm.oracle, "update_membership_mm", farthest)
        h_bad = fcm_objective(data, farthest(data, G_t, 1.5), centers_t, 1.5)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(trials):
            F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=40))
            worst = max(worst, h_bad - fcm_objective(data, F, centers_t, 1.5))
        report = surrogate_argmin_oracle(data, G_t, 1.5, trials=trials, seed=5)
        assert worst > 0.0
        assert report.max_error.hex() == worst.hex()
        assert report.samples == trials + 1

    def test_non_finite_draw_refused(self, monkeypatch):
        data, _, G_t = random_instance(np.random.default_rng(81), 10, 2, 3)

        class NanInLastChunk:
            def dirichlet(self, alpha, size):
                draws = np.full(np.shape(np.empty(size)) + (len(alpha),), 1.0 / len(alpha))
                if np.shape(draws)[0] < fcmm.oracle._CHUNK:
                    draws[-1, 0, 0] = np.nan
                return draws

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NanInLastChunk())
        with pytest.raises(ValueError, match="must be finite"):
            surrogate_argmin_oracle(data, G_t, 2.0, trials=fcmm.oracle._CHUNK + 3, seed=0)


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


    def test_distances_taken_once_per_step(self, monkeypatch):
        calls = count_distances(monkeypatch)
        data = DataMatrix.from_points(np.random.default_rng(82).normal(size=(30, 2)))
        assert descent_chain_audit(data, init_random(30, 3, 0), SolverConfig(c=3),
                                   steps=20).passed
        assert len(calls) == 20

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_same_bits_as_two_objectives_per_step(self, r):
        data = DataMatrix.from_points(np.random.default_rng(83).normal(size=(30, 2)))
        F = init_random(30, 3, 1)
        G = to_power(F, r)
        obj = phi(data, G)
        worst = 0.0
        for _ in range(40):
            centers = compute_centers(aggregates(data, G))
            F_next = update_membership_mm(data, G, r)
            G_next = to_power(F_next, r)
            h_next = fcm_objective(data, F_next, centers, r)
            h_self = fcm_objective(data, F, centers, r)
            obj_next = phi(data, G_next)
            scale = 1.0 + abs(obj)
            worst = max(worst, (obj_next - h_next) / scale, (h_next - h_self) / scale,
                        abs(h_self - obj) / scale)
            F, G, obj = F_next, G_next, obj_next
        report = descent_chain_audit(data, init_random(30, 3, 1), SolverConfig(c=3, r=r),
                                     steps=40)
        assert worst > 0.0
        assert report.max_error.hex() == worst.hex()

    @pytest.mark.parametrize("start, c, match", [
        ("rows sum to 2", 3, "not row-stochastic"),
        ("3 clusters", 5, "3 clusters but config asks for 5"),
        ("negative entry", 3, "not row-stochastic"),
    ])
    def test_refuses_the_starts_the_solvers_refuse(self, start, c, match):
        rng = np.random.default_rng(84)
        data = DataMatrix.from_points(rng.normal(size=(30, 2)))
        values = rng.dirichlet(np.ones(3), size=30)
        if start == "rows sum to 2":
            values = 2.0 * values
        elif start == "negative entry":
            values[0] = [1.5, -0.5, 0.0]
        F0 = MembershipMatrix.from_values(values)
        cfg = SolverConfig(c=c)
        with pytest.raises(ValueError, match=match):
            solve_fcm_mm(data, F0, cfg)
        with pytest.raises(ValueError, match=match):
            descent_chain_audit(data, F0, cfg, steps=5)


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
        # 16 from the five drawn instances, 2 x 5 from the two of one shape
        ("gram_agreement", 1e-10, 26),
        ("gradient_fd", 1e-6, 10),
        ("tangency", 1e-10, 5),
        ("domination", 1e-9, 200),
        ("single_step_equivalence", 1e-12, 20),
        # 20 MM steps against the textbook update, 5 kernel calls near centers
        ("classic_coincidence", 1e-12, 25),
        ("descent_chain", 1e-10, 50),
    ]
    last = reports[-1]
    # 1e-9 * (1 + |h_star|), relative to the certificate's own optimum
    assert (last.check_name, last.samples) == ("surrogate_argmin", 201)
    assert last.tolerance == pytest.approx(1.1230884424710005e-08, rel=1e-9)
    assert all(r.passed for r in reports)


def _undivided(compute_centers):
    return lambda agg: agg.y  # the weighted sums, not divided by the masses


def _sharper(update_membership_classic):
    return lambda data, centers, r: update_membership_classic(data, centers, 1.05 * r)


def _inflated(phi):
    return lambda data, G: phi(data, G) * (1.0 + 1e-9)


def _per_shape(gram_matrix):
    held = {}
    return lambda data: held.setdefault(data.points.shape, gram_matrix(data))


def _expanded(sq_distances):
    # the near-center rows from the expanded form their recompute replaces
    def expanded(points, centers):
        sq_norms = np.einsum("id,id->i", points, points)
        return [sq_norms + center @ center - 2.0 * (points @ center) for center in centers]
    return expanded


def _stale_row_min(update_membership_classic):
    # the kernel with its near-center rows recomputed but their smallest
    # bracket left at the expanded form's, which may be zero or negative
    # where the recomputed row is not: its rows come out NaN (numpy's
    # warning silenced, as outside the tests) and the membership check
    # raises ValueError; one block, as at these n
    def stale(data, centers, r):
        center_sq = np.einsum("cd,cd->c", centers, centers)
        brackets = (-2.0 * centers) @ data.points.T
        brackets += center_sq[:, None] + data.sq_norms
        row_min = brackets.min(axis=0)
        rows = np.flatnonzero(row_min < 1e-4 * (data.sq_norms + center_sq.max()))
        brackets[:, rows] = fcmm.solvers._sq_distances(data.points[rows], centers)
        out = np.empty((data.n, len(centers)), order="F")
        with np.errstate(invalid="ignore"):
            values = fcmm.solvers._memberships_from_brackets(brackets.T, row_min, r, out)
        return MembershipMatrix(values)
    return stale


@pytest.mark.parametrize("module, name, plant, caught_by", [
    (fcmm.oracle, "compute_centers", _undivided,
     {"gradient_fd", "tangency", "classic_coincidence", "descent_chain"}),
    (fcmm.solvers, "update_membership_classic", _sharper, {"classic_coincidence"}),
    (fcmm.oracle, "phi", _inflated, {"tangency", "descent_chain"}),
    (fcmm.oracle, "_gram_matrix", _per_shape, {"gram_agreement", "gradient_fd"}),
    (fcmm.solvers, "_sq_distances", _expanded, {"classic_coincidence"}),
    (fcmm.oracle, "update_membership_classic", _stale_row_min, {"classic_coincidence"}),
], ids=["center-mass", "kernel-exponent", "phi-scale", "gram-per-shape",
        "near-center-recompute", "stale-row-min"])
def test_run_suite_catches_a_planted_bug(monkeypatch, module, name, plant, caught_by):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = {r.check_name for r in run_suite("quick", seed=0) if not r.passed}
    assert failed == caught_by


def _raises(*args):
    raise ValueError("membership values must be finite")


def test_run_suite_reports_a_raising_solver_update(monkeypatch):
    # the re-weighting update serves single_step_equivalence alone
    monkeypatch.setattr(fcmm.oracle, "update_membership_irw", _raises)
    reports = run_suite("quick", seed=0)
    assert [(r.check_name, r.max_error) for r in reports if not r.passed] == [
        ("single_step_equivalence", np.inf)]


def test_run_suite_raises_where_the_reference_raises(monkeypatch):
    monkeypatch.setattr(fcmm.oracle, "classic_update_oracle", _raises)
    with pytest.raises(ValueError, match="must be finite"):
        run_suite("quick", seed=0)


def test_run_suite_rejects_unknown_scale():
    with pytest.raises(ValueError):
        run_suite("huge")
