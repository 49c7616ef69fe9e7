import dataclasses

import numpy as np
import pytest

from conftest import bracket_gradient, count_products, random_instance
from fcmm import objective
from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs
from fcmm.membership import MembershipMatrix, PowerMembership, init_random, to_power
from fcmm.objective import (_sq_distances, _weighted_cost, aggregates, compute_centers,
                            fcm_objective, phi)
from fcmm.oracle import finite_diff_gradient, gram_quad_oracle
from fcmm.solvers import (SolverConfig, solve_fcm_classic,
                          update_membership_classic)

TWO_POINTS_1D = DataMatrix.from_points([[-1.0], [1.0]])


def single_cluster(g):
    return PowerMembership.from_values(np.asarray(g, dtype=float)[:, None])


class TestAggregates:
    def test_single_point_indicator(self):
        data = DataMatrix.from_points([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        agg = aggregates(data, single_cluster([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(agg.y, [[3.0, 4.0]])
        assert agg.quad[0] == 25.0
        assert agg.mass[0] == 1.0

    def test_symmetric_cancellation(self):
        agg = aggregates(TWO_POINTS_1D, single_cluster([1.0, 1.0]))
        assert agg.y[0, 0] == 0.0
        assert agg.quad[0] == 0.0
        assert agg.mass[0] == 2.0

    def test_quad_matches_gram_oracle(self):
        rng = np.random.default_rng(21)
        data, _, G = random_instance(rng, 5, 2, 3)
        agg = aggregates(data, G)
        for j in range(3):
            ref = gram_quad_oracle(data, G.values[:, j])
            assert abs(agg.quad[j] - ref) <= 1e-10 * abs(ref)

    def test_quad_is_norm_of_y(self):
        rng = np.random.default_rng(22)
        data, _, G = random_instance(rng, 30, 4, 3)
        agg = aggregates(data, G)
        norms = np.einsum("cd,cd->c", agg.y, agg.y)
        assert np.max(np.abs(agg.quad - norms)) <= 1e-12 * np.max(norms)

    def test_row_mismatch_rejected(self):
        data = DataMatrix.from_points(np.arange(6.0).reshape(3, 2))
        G = PowerMembership.from_values(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="2 rows but data has 3 points"):
            aggregates(data, G)

    def test_mismatch_raises_before_the_held_result_is_read(self):
        data, _, G = random_instance(np.random.default_rng(24), 4, 2, 2)
        aggregates(data, G)
        other = DataMatrix.from_points(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="4 rows but data has 3 points"):
            aggregates(other, G)


class TestHeldAggregates:
    def test_one_product_per_data_and_g(self, monkeypatch):
        data, _, G = random_instance(np.random.default_rng(25), 30, 4, 3)
        products = count_products(monkeypatch)
        agg = aggregates(data, G)
        assert aggregates(data, G) is agg
        assert len(products) == 1

    def test_other_objects_get_their_own_equal_result(self, monkeypatch):
        data, _, G = random_instance(np.random.default_rng(26), 30, 4, 3)
        agg = aggregates(data, G)
        products = count_products(monkeypatch)
        same_points = DataMatrix.from_points(data.points.copy())
        same_values = PowerMembership(G.values.copy())
        for other in (aggregates(same_points, G), aggregates(data, same_values)):
            assert other is not agg
            for name in ("y", "quad", "mass"):
                assert getattr(other, name).tobytes() == getattr(agg, name).tobytes()
        assert len(products) == 2

    def test_result_is_read_only(self):
        data, _, G = random_instance(np.random.default_rng(27), 10, 3, 2)
        agg = aggregates(data, G)
        for array in (agg.y, agg.quad, agg.mass):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_g_compares_and_prints_as_before(self):
        # one entry, so the fields' == reduces to a bool
        G = single_cluster([0.5])
        fresh = PowerMembership(G.values.copy())
        text = repr(G)
        aggregates(DataMatrix.from_points([[2.0, 3.0]]), G)
        assert [f.name for f in dataclasses.fields(G)] == ["values", "col_sums"]
        assert G == fresh and fresh == G
        assert repr(G) == text == repr(fresh)
        assert "aggregates" not in repr(G)


class TestComputeCenters:
    def test_reuses_the_product_phi_took(self, monkeypatch):
        data, _, G = random_instance(np.random.default_rng(28), 30, 4, 3)
        products = count_products(monkeypatch)
        phi(data, G)
        centers = compute_centers(data, G)
        assert centers.tobytes() == (aggregates(data, G).y / G.col_sums[:, None]).tobytes()
        assert len(products) == 1

    def test_uniform_centroid(self):
        data = DataMatrix.from_points([[0.0, 0.0], [2.0, 2.0]])
        centers = compute_centers(data, single_cluster([1.0, 1.0]))
        np.testing.assert_array_equal(centers, [[1.0, 1.0]])

    def test_indicator_reproduces_point(self):
        rng = np.random.default_rng(23)
        data = DataMatrix.from_points(rng.normal(size=(6, 3)))
        for i in range(6):
            g = np.zeros(6)
            g[i] = 1.0
            centers = compute_centers(data, single_cluster(g))
            np.testing.assert_allclose(centers[0], data.points[i], rtol=1e-15)

    def test_centers_in_data_bounding_box(self):
        rng = np.random.default_rng(24)
        data, _, G = random_instance(rng, 40, 3, 4)
        centers = compute_centers(data, G)
        lo, hi = data.points.min(axis=0), data.points.max(axis=0)
        assert np.all(centers >= lo - 1e-12) and np.all(centers <= hi + 1e-12)

    def test_stationary_at_converged_fixed_point(self):
        spec = SyntheticSpec(blob_count=2, points_per_blob=30, dim=2,
                             blob_stddev=0.2, blob_center_scale=5.0, seed=2)
        data = make_blobs(spec)
        cfg = SolverConfig(c=2, outer_tol=1e-15, max_outer_iters=1000)
        F = solve_fcm_classic(data, init_random(data.n, 2, 1), cfg).F_final
        # polish to the fixed point before testing stationarity
        for _ in range(2000):
            centers = compute_centers(data, to_power(F, 2.0))
            F_next = update_membership_classic(data, centers, 2.0)
            if np.max(np.abs(F_next.values - F.values)) <= 1e-14:
                F = F_next
                break
            F = F_next
        c0 = compute_centers(data, to_power(F, 2.0))
        F1 = update_membership_classic(data, compute_centers(data, to_power(F, 2.0)), 2.0)
        c1 = compute_centers(data, to_power(F1, 2.0))
        assert np.max(np.abs(c1 - c0)) <= 1e-9


def reference_cost(G, dists):
    """``sum_j g_.j . dists[j]`` on Python floats: over the points from 0.0
    for each cluster, then over the clusters in order from 0.0."""
    rows = G.tolist()
    total = 0.0
    for j, dist in enumerate(dists):
        cluster = 0.0
        for g_i, d_i in zip(rows, dist.tolist()):
            cluster += g_i[j] * d_i
        total += cluster
    return total


class TestCostMatchesDoubleLoopBitwise:
    """The fuzzy-means cost sums in a plain double loop's order and calls
    no BLAS, so every bit agrees, sign of zero included, in either memory
    order and for one G or a stack of them."""

    @pytest.mark.parametrize("n", [1, 2, 8, 17, 129])
    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_weighted_cost(self, n, c, order):
        rng = np.random.default_rng(10 * n + c)
        dists = _sq_distances(rng.normal(size=(n, 2)), rng.normal(size=(c, 2)))
        stack = rng.uniform(0.0, 1.0, size=(5, n, c))
        stack[1] = rng.normal(size=(n, c))
        stack[2] = -0.0
        stack[3] = np.where(rng.random((n, c)) < 0.5, -0.0, 0.0)
        stack = np.asarray(stack, order=order)
        singles = [np.asarray(G, order=order) for G in stack]
        for G in singles:
            assert _weighted_cost(G, dists).hex() == reference_cost(G, dists).hex()
        costs = _weighted_cost(stack, dists)
        assert costs.tobytes() == np.array([_weighted_cost(G, dists) for G in singles]).tobytes()
        # a stack of distances broadcast against stacks of G, as the descent audit pairs them
        paired = _weighted_cost(np.stack([stack, stack[::-1]]),
                                np.stack([dists, 2.0 * dists])[:, None])
        expected = np.array([costs, _weighted_cost(stack[::-1], 2.0 * dists)])
        assert paired.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 8, 17, 129])
    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [None, 1, 2], ids=["default-budget", "1-center",
                                                          "2-centers"])
    def test_fcm_objective(self, monkeypatch, n, c, order, width):
        # the distances come a chunk of `width` centers at a time (None: the
        # default budget, every center here in one chunk)
        rng = np.random.default_rng(20 * n + c)
        data = DataMatrix.from_points(rng.normal(size=(n, 3)))
        F = MembershipMatrix(np.asarray(rng.dirichlet(np.ones(c), size=n), order=order))
        centers = rng.normal(size=(c, 3))
        expected = reference_cost(F.values ** 1.5, _sq_distances(data.points, centers))
        chunks = []
        monkeypatch.setattr(objective, "_sq_distances",
                            lambda *args: chunks.append(1) or _sq_distances(*args))
        if width is not None:
            monkeypatch.setattr(objective, "_TERMS", width * n * 3)
        assert fcm_objective(data, F, centers, 1.5).hex() == expected.hex()
        assert len(chunks) == -(-c // (width or c))
        assert fcm_objective(data, F, centers.tolist(), 1.5).hex() == expected.hex()


def per_center_distances(points, centers):
    """``|x_i - m_j|^2`` one center at a time, each an ``id,id->i`` pass over its differences."""
    out = []
    for center in centers:
        diff = points - center
        out.append(np.einsum("id,id->i", diff, diff))
    return np.array(out)


class TestSqDistances:
    @pytest.mark.parametrize("d", [*range(1, 21), 32, 50, 64])
    def test_a_stack_has_each_centers_bits(self, d):
        # a (k, c, d) stack gives the k calls' c x n distances, each row one center's alone,
        # as a call on that center by itself gives it
        rng = np.random.default_rng(d)
        for n in (1, 2, 3, 7, 100, 1000, 8192):
            for scale in (1e-3, 1.0, 1e3):
                points = scale * rng.normal(size=(n, d))
                centers = scale * rng.normal(size=(2, 3, d))
                dists = _sq_distances(points, centers)
                assert dists.shape == (2, 3, n)
                assert _sq_distances(points, centers[1, 2]).tobytes() == dists[1, 2].tobytes()
                for got, one in zip(dists, centers):
                    assert got.tobytes() == _sq_distances(points, one).tobytes()
                    assert got.tobytes() == per_center_distances(points, one).tobytes()

    def test_centers_as_lists(self):
        rng = np.random.default_rng(30)
        points, centers = rng.normal(size=(9, 2)), rng.normal(size=(3, 2))
        expected = per_center_distances(points, centers).tobytes()
        assert _sq_distances(points, centers.tolist()).tobytes() == expected
        assert _sq_distances(points, list(centers)).tobytes() == expected


class TestObjectiveValues:
    def test_zero_at_own_centers(self):
        data = DataMatrix.from_points([[0.0, 0.0], [4.0, 0.0]])
        F = MembershipMatrix.from_values([[1.0, 0.0], [0.0, 1.0]])
        centers = compute_centers(data, to_power(F, 2.0))
        assert fcm_objective(data, F, centers, 2.0) == 0.0

    def test_symmetric_two_point_instance(self):
        # one cluster holding both points, centered at the origin
        F = MembershipMatrix.from_values([[1.0], [1.0]])
        centers = np.array([[0.0]])
        assert fcm_objective(TWO_POINTS_1D, F, centers, 2.0) == pytest.approx(2.0)

    def test_phi_two_point_instance(self):
        assert phi(TWO_POINTS_1D, single_cluster([1.0, 1.0])) == pytest.approx(2.0)

    def test_phi_zero_for_identical_points(self):
        data = DataMatrix.from_points([[2.0, 1.0]] * 5)
        G = single_cluster(np.full(5, 0.3))
        assert abs(phi(data, G)) <= 1e-12

    def test_phi_equals_objective_at_optimal_centers(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            data, F, G = random_instance(rng, int(rng.integers(6, 30)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)))
            centers = compute_centers(data, G)
            a = phi(data, G)
            b = fcm_objective(data, F, centers, 2.0)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    def test_phi_six_point_instance(self):
        rng = np.random.default_rng(32)
        data, F, G = random_instance(rng, 6, 2, 2)
        centers = compute_centers(data, G)
        assert phi(data, G) == pytest.approx(fcm_objective(data, F, centers, 2.0), rel=1e-10)

    def test_fcm_objective_rejects_bad_input(self):
        data = DataMatrix.from_points(np.arange(6.0).reshape(3, 2))
        F = MembershipMatrix.from_values(np.full((3, 2), 0.5))
        centers = np.zeros((2, 2))
        with pytest.raises(ValueError, match="r must be a real number > 1"):
            fcm_objective(data, F, centers, 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fcm_objective(data, F, np.zeros((2, 3)), 2.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fcm_objective(data, MembershipMatrix.from_values(np.full((2, 2), 0.5)), centers, 2.0)

    @pytest.mark.parametrize("centers", [
        [[0.0, 0.0]],
        [[0.0, 0.0], [8.0, 4.0], [4.0, 2.0]],
        [0.0, 0.0],
    ], ids=["one-center", "three-centers", "1-d"])
    def test_fcm_objective_needs_one_center_per_cluster(self, centers):
        # one center must not silently price cluster 0 alone (4.5)
        data = DataMatrix.from_points([[0.0, 0.0], [4.0, 2.0], [8.0, 4.0]])
        F = MembershipMatrix.from_values([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            fcm_objective(data, F, np.array(centers), 2.0)


def anchor_centers(data, G_t):
    return compute_centers(data, G_t)


class TestMajorizer:
    """h(G | G_t) is the fuzzy-means cost at G_t's optimal centers."""

    def test_tangent_at_anchor(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            data, F_t, G_t = random_instance(rng, int(rng.integers(5, 30)), 2, 3)
            p = phi(data, G_t)
            h = fcm_objective(data, F_t, anchor_centers(data, G_t), 2.0)
            assert abs(h - p) <= 1e-10 * (1.0 + abs(p))

    def test_dominates_objective(self):
        rng = np.random.default_rng(37)
        data, _, G_t = random_instance(rng, 20, 2, 3)
        centers_t = anchor_centers(data, G_t)
        for _ in range(500):
            F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=20))
            p = phi(data, to_power(F, 2.0))
            assert fcm_objective(data, F, centers_t, 2.0) >= p - 1e-9 * (1.0 + abs(p))

    def test_hand_evaluated_two_point_case(self):
        # anchor g_t = (1,1) on {-1, +1} has its center at 0, so h reduces
        # to the plain weighted sum of squared norms, sum(f^2)
        centers_t = anchor_centers(TWO_POINTS_1D, single_cluster([1.0, 1.0]))
        for f in ([0.5, 0.7], [1.0, 1.0], [0.2, 1.5]):
            F = MembershipMatrix.from_values(np.array(f)[:, None])
            h = fcm_objective(TWO_POINTS_1D, F, centers_t, 2.0)
            assert h == pytest.approx(sum(v * v for v in f), rel=1e-12)

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (5.0, 1.0), (-5.0, 1e3),
                                              (5.0, 1e-3), (-3.0, 1e-3), (2.0, 1e3)])
    def test_equals_the_tangent_plane_form(self, shift, scale):
        # the paper's form: phi's linear part minus the tangent plane of
        # each quad_j/mass_j at g_j^t, which by Euler has no constant term;
        # its coefficients expanded, 2 x_i.m_j - |m_j|^2, not as differences
        rng = np.random.default_rng(43)
        for _ in range(20):
            n, d, c = int(rng.integers(5, 30)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
            points = scale * (shift + rng.normal(size=(n, d)))
            data = DataMatrix.from_points(points)
            r = float(rng.choice([1.5, 2.0, 3.0]))
            F_t = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
            F = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
            G_t, G = to_power(F_t, r), to_power(F, r)
            centers_t = anchor_centers(data, G_t)
            h_tan = float(data.sq_norms @ G.values.sum(axis=1)) - sum(
                float((2.0 * data.points @ m - m @ m) @ G.values[:, j])
                for j, m in enumerate(centers_t))
            h = fcm_objective(data, F, centers_t, r)
            # relative to |h| alone, so the 1e-3 scales get no absolute floor
            assert abs(h_tan - h) <= 1e-10 * abs(h)


class TestTangentGradient:
    """phi's gradient at G is the bracket matrix |x_i - m_j|^2 at G's centers."""

    def test_phi_matches_finite_differences(self):
        rng = np.random.default_rng(38)
        data, _, G = random_instance(rng, 8, 2, 3)
        brackets = np.stack([np.einsum("id,id->i", data.points - m, data.points - m)
                             for m in anchor_centers(data, G)], axis=1)
        step = 1e-5
        fd = np.empty_like(brackets)
        for i, j in np.ndindex(*brackets.shape):
            up, down = G.values.copy(), G.values.copy()
            up[i, j] += step
            down[i, j] -= step
            fd[i, j] = (phi(data, PowerMembership(up))
                        - phi(data, PowerMembership(down))) / (2.0 * step)
        assert np.max(np.abs(fd - brackets)) <= 1e-6 * (1.0 + np.max(np.abs(brackets)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        data = DataMatrix.from_points(rng.normal(size=(15, 3)))
        g_t = rng.uniform(0.1, 1.0, size=15)
        grad = bracket_gradient(data, g_t)
        fd = finite_diff_gradient(data, g_t, step=1e-5)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * (1.0 + np.max(np.abs(grad)))

    def test_indicator_hand_expansion(self):
        # g = e_0 puts the center on x_0, so q's gradient is 2 x.x_0 - |x_0|^2
        rng = np.random.default_rng(40)
        data = DataMatrix.from_points(rng.normal(size=(8, 3)))
        g = np.zeros(8)
        g[0] = 1.0
        grad = bracket_gradient(data, g)
        x0 = data.points[0]
        expect = np.array([2 * float(x @ x0) for x in data.points]) - float(x0 @ x0)
        np.testing.assert_allclose(grad, expect, rtol=1e-12, atol=1e-12)


def test_quad_over_mass_is_convex():
    rng = np.random.default_rng(42)
    data = DataMatrix.from_points(rng.normal(size=(15, 3)))

    def ratio(g):
        y = data.points.T @ g
        return float(y @ y) / float(g.sum())

    for _ in range(200):
        g1 = rng.uniform(0.05, 1.0, size=15)
        g2 = rng.uniform(0.05, 1.0, size=15)
        lam = rng.uniform(0.0, 1.0)
        mid = ratio(lam * g1 + (1 - lam) * g2)
        assert mid <= lam * ratio(g1) + (1 - lam) * ratio(g2) + 1e-9
