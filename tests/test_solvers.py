import numpy as np
import pytest

from conftest import random_instance
from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs
from fcmm.membership import (MembershipMatrix, PowerMembership, init_random,
                             to_power, validate)
from fcmm.objective import ClusterCenters, aggregates, compute_centers, phi
from fcmm.oracle import gram_vector_oracle, gram_quad_oracle
from fcmm.solvers import (IrwAuxiliary, SolverConfig, irw_auxiliary,
                          solve_fcm_classic, solve_fcm_mm, solve_irw_fcm,
                          update_membership_classic, update_membership_irw,
                          update_membership_mm)

R = 2.0


def descent_slack(obj):
    return 1e-12 * (1.0 + abs(obj))


class TestClassicUpdate:
    def test_two_center_hand_case(self):
        # x=0, centers 1 and 2: inverse squared distances (1, 1/4)
        data = DataMatrix.from_points([[0.0]])
        centers = ClusterCenters(np.array([[1.0], [2.0]]))
        F = update_membership_classic(data, centers, R)
        np.testing.assert_allclose(F.values, [[0.8, 0.2]], rtol=1e-12)

    def test_equidistant_point_gets_uniform_row(self):
        data = DataMatrix.from_points([[0.0, 0.0]])
        centers = ClusterCenters(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        F = update_membership_classic(data, centers, R)
        np.testing.assert_allclose(F.values, [[1 / 3] * 3], rtol=1e-12)

    def test_point_on_center_goes_one_hot(self):
        data = DataMatrix.from_points([[1.0], [5.0]])
        centers = ClusterCenters(np.array([[1.0], [3.0]]))
        F = update_membership_classic(data, centers, R)
        np.testing.assert_array_equal(F.values[0], [1.0, 0.0])
        assert 0 < F.values[1, 0] < F.values[1, 1]


class TestIrwAuxiliary:
    def test_single_point_indicator(self):
        data = DataMatrix.from_points([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        G = PowerMembership.from_values(np.array([[1.0], [0.0], [0.0]]), R)
        aux = irw_auxiliary(data, G)
        assert aux.s[0] == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(aux.a[0], [5.0, 0.6, 1.6], rtol=1e-15)

    def test_identical_points(self):
        data = DataMatrix.from_points([[3.0, 4.0]] * 4)
        G = PowerMembership.from_values(np.array([[0.5], [1.0], [2.0], [0.25]]), R)
        aux = irw_auxiliary(data, G)
        assert aux.s[0] == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(aux.a[0], np.full(4, 5.0), rtol=1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(50)
        data, _, G = random_instance(rng, 12, 3, 3)
        aux = irw_auxiliary(data, G)
        for j in range(3):
            g = G.values[:, j]
            ref = gram_vector_oracle(data, g) / np.sqrt(gram_quad_oracle(data, g))
            assert np.max(np.abs(aux.a[j] - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))

    def test_zero_weighted_image_is_degenerate(self):
        from fcmm.exceptions import DegenerateClusterError
        data = DataMatrix.from_points(np.zeros((4, 2)))
        G = PowerMembership.from_values(np.full((4, 2), 0.25), R)
        with pytest.raises(DegenerateClusterError):
            irw_auxiliary(data, G)


class TestIrwUpdate:
    def test_equal_brackets_give_uniform_row(self):
        data = DataMatrix.from_points([[1.0], [2.0]])
        aux = IrwAuxiliary(s=np.array([1.0, 1.0]), a=np.array([[0.3, 0.4], [0.3, 0.4]]))
        F = update_membership_irw(data, aux, R)
        np.testing.assert_allclose(F.values, 0.5, rtol=1e-12)

    def test_negative_bracket_wins_row(self):
        # bracket_0 = 1 + 1 - 2*1.0000001 < 0 rounds through the floor rule
        data = DataMatrix.from_points([[1.0]])
        aux = IrwAuxiliary(s=np.array([1.0, 5.0]), a=np.array([[1.0000001], [0.0]]))
        F = update_membership_irw(data, aux, R)
        np.testing.assert_array_equal(F.values, [[1.0, 0.0]])

    def test_matches_classic_at_anchor_centers(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)))
            F_irw = update_membership_irw(data, irw_auxiliary(data, G), R)
            centers = compute_centers(aggregates(data, G))
            F_classic = update_membership_classic(data, centers, R)
            assert np.max(np.abs(F_irw.values - F_classic.values)) <= 1e-12


class TestMmUpdate:
    def test_matches_irw_single_step(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            r = float(rng.choice([1.5, 2.0, 3.0]))
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)), r)
            F_mm = update_membership_mm(data, G, r)
            F_irw = update_membership_irw(data, irw_auxiliary(data, G), r)
            assert np.max(np.abs(F_mm.values - F_irw.values)) <= 1e-12

    def test_matches_classic_at_anchor_centers(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)))
            F_mm = update_membership_mm(data, G, R)
            centers = compute_centers(aggregates(data, G))
            F_classic = update_membership_classic(data, centers, R)
            assert np.max(np.abs(F_mm.values - F_classic.values)) <= 1e-12

    def test_symmetric_instance_goes_uniform(self):
        data = DataMatrix.from_points([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        G = PowerMembership.from_values(np.full((4, 2), 0.25), R)
        F = update_membership_mm(data, G, R)
        np.testing.assert_allclose(F.values, 0.5, rtol=1e-12)


def blob_instance(seed=0):
    spec = SyntheticSpec(blob_count=2, points_per_blob=30, dim=2,
                         blob_stddev=0.3, blob_center_scale=6.0, seed=seed)
    return make_blobs(spec)


def polish_fixed_point(data, F, r=R, tol=1e-14, iters=3000):
    for _ in range(iters):
        centers = compute_centers(aggregates(data, to_power(F, r)))
        F_next = update_membership_classic(data, centers, r)
        delta = np.max(np.abs(F_next.values - F.values))
        F = F_next
        if delta <= tol:
            break
    return F


class TestSolveClassic:
    def test_recovers_separated_blobs(self):
        data = blob_instance(seed=8)
        result = solve_fcm_classic(data, init_random(data.n, 2, 3), SolverConfig(c=2))
        assert result.termination == "converged"
        truth = np.array([data.points[:30].mean(axis=0), data.points[30:].mean(axis=0)])
        found = result.centers_final.centers
        for center in truth:
            assert np.min(np.linalg.norm(found - center, axis=1)) < 0.5

    def test_fixed_point_terminates_fast(self):
        data = blob_instance(seed=9)
        F0 = polish_fixed_point(data, init_random(data.n, 2, 4))
        result = solve_fcm_classic(data, F0, SolverConfig(c=2))
        assert result.termination == "converged"
        assert result.trace.records[-1].outer_iter <= 2

    def test_objective_non_increasing_on_iris(self, iris_data):
        result = solve_fcm_classic(iris_data, init_random(iris_data.n, 3, 42),
                                   SolverConfig(c=3))
        objs = result.trace.objectives()
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + descent_slack(prev)


class TestSolveIrw:
    def test_huge_inner_tol_reproduces_mm_trajectory(self):
        data = blob_instance(seed=10)
        F0 = init_random(data.n, 2, 5)
        loose = SolverConfig(c=2, inner_tol=1e9)
        full_irw = solve_irw_fcm(data, F0, loose)
        full_mm = solve_fcm_mm(data, F0, SolverConfig(c=2))
        assert all(rec.inner_iters == 1 for rec in full_irw.trace.records[1:])
        assert len(full_irw.trace.records) == len(full_mm.trace.records)
        assert np.max(np.abs(full_irw.F_final.values - full_mm.F_final.values)) <= 1e-12
        for k in range(1, min(9, full_mm.trace.records[-1].outer_iter + 1)):
            capped = SolverConfig(c=2, inner_tol=1e9, max_outer_iters=k)
            irw_k = solve_irw_fcm(data, F0, capped)
            mm_k = solve_fcm_mm(data, F0, SolverConfig(c=2, max_outer_iters=k))
            assert np.max(np.abs(irw_k.F_final.values - mm_k.F_final.values)) <= 1e-12

    def test_agrees_with_mm_on_iris(self, iris_data):
        F0 = init_random(iris_data.n, 3, 42)
        cfg = SolverConfig(c=3, seed=42)
        res_irw = solve_irw_fcm(iris_data, F0, cfg)
        res_mm = solve_fcm_mm(iris_data, F0, cfg)
        diff = abs(res_irw.objective_final - res_mm.objective_final)
        assert diff <= 1e-6 * (1.0 + abs(res_mm.objective_final))

    def test_outer_objectives_non_increasing(self, iris_data):
        result = solve_irw_fcm(iris_data, init_random(iris_data.n, 3, 7),
                               SolverConfig(c=3))
        objs = result.trace.objectives()
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + descent_slack(prev)

    def test_counts_every_inner_update(self):
        data = blob_instance(seed=12)
        result = solve_irw_fcm(data, init_random(data.n, 2, 6), SolverConfig(c=2))
        records = result.trace.records
        assert records[0].membership_updates == 0
        for prev, cur in zip(records, records[1:]):
            assert cur.inner_iters >= 1
            assert cur.membership_updates == prev.membership_updates + cur.inner_iters


class TestSolveMm:
    def test_per_step_descent(self, iris_data):
        result = solve_fcm_mm(iris_data, init_random(iris_data.n, 3, 13),
                              SolverConfig(c=3))
        objs = result.trace.objectives()
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + descent_slack(prev)

    def test_fixed_point_terminates_fast(self):
        data = blob_instance(seed=14)
        F0 = polish_fixed_point(data, init_random(data.n, 2, 15))
        result = solve_fcm_mm(data, F0, SolverConfig(c=2))
        assert result.termination == "converged"
        assert result.trace.records[-1].outer_iter <= 2

    def test_one_update_per_iteration(self):
        data = blob_instance(seed=16)
        result = solve_fcm_mm(data, init_random(data.n, 2, 17), SolverConfig(c=2))
        for rec in result.trace.records:
            assert rec.membership_updates == rec.outer_iter
            assert rec.inner_iters == 0

    def test_fewer_updates_than_irw_to_common_objective(self, iris_data):
        F0 = init_random(iris_data.n, 3, 42)
        cfg = SolverConfig(c=3, seed=42)
        res_mm = solve_fcm_mm(iris_data, F0, cfg)
        res_irw = solve_irw_fcm(iris_data, F0, cfg)
        best = min(res_mm.objective_final, res_irw.objective_final)
        threshold = best + 1e-6 * (1.0 + abs(best))

        def updates_to(result):
            for rec in result.trace.records:
                if rec.objective <= threshold:
                    return rec.membership_updates
            raise AssertionError("landmark never reached")

        assert updates_to(res_mm) <= updates_to(res_irw)


class TestTrajectoryCoincidence:
    def test_classic_equals_mm_pathwise(self):
        rng = np.random.default_rng(60)
        for _ in range(6):
            n, d, c = int(rng.integers(8, 25)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
            data = DataMatrix.from_points(rng.normal(size=(n, d)))
            F0 = init_random(n, c, int(rng.integers(0, 1 << 32)))
            full_mm = solve_fcm_mm(data, F0, SolverConfig(c=c))
            full_cl = solve_fcm_classic(data, F0, SolverConfig(c=c))
            assert len(full_mm.trace.records) == len(full_cl.trace.records)
            assert np.max(np.abs(full_mm.F_final.values - full_cl.F_final.values)) <= 1e-12
            for k in (1, 2, 4, 7):
                mm_k = solve_fcm_mm(data, F0, SolverConfig(c=c, max_outer_iters=k))
                cl_k = solve_fcm_classic(data, F0, SolverConfig(c=c, max_outer_iters=k))
                assert np.max(np.abs(mm_k.F_final.values - cl_k.F_final.values)) <= 1e-12


class TestDegenerateHandling:
    def test_all_points_at_origin_mm_goes_uniform(self):
        data = DataMatrix.from_points(np.zeros((6, 2)))
        result = solve_fcm_mm(data, init_random(6, 3, 1), SolverConfig(c=3))
        assert result.termination == "converged"
        np.testing.assert_allclose(result.F_final.values, 1 / 3, rtol=1e-12)
        assert result.objective_final == pytest.approx(0.0, abs=1e-12)

    def test_all_points_at_origin_irw_degenerates(self):
        data = DataMatrix.from_points(np.zeros((6, 2)))
        result = solve_irw_fcm(data, init_random(6, 3, 1), SolverConfig(c=3))
        assert result.termination == "degenerate"
        assert len(result.trace.records) >= 1

    def test_zero_column_start_degenerates_immediately(self):
        F0 = MembershipMatrix.from_values(np.column_stack([np.ones(4), np.zeros(4)]))
        data = DataMatrix.from_points(np.arange(8.0).reshape(4, 2))
        result = solve_fcm_mm(data, F0, SolverConfig(c=2))
        assert result.termination == "degenerate"
        assert result.centers_final is None
        assert np.isnan(result.objective_final)
        assert len(result.trace.records) == 0

    def test_degenerate_rule_preserves_simplex(self):
        # symmetric instance: both centers land on the middle point forever
        data = DataMatrix.from_points([[-1.0], [0.0], [1.0]])
        F0 = MembershipMatrix.from_values(np.full((3, 2), 0.5))
        for k in range(1, 6):
            for solver in (solve_fcm_mm, solve_fcm_classic):
                res = solver(data, F0, SolverConfig(c=2, max_outer_iters=k))
                assert validate(res.F_final).passed


class TestSolverContracts:
    def test_result_objective_matches_recomputation(self):
        data = blob_instance(seed=18)
        result = solve_fcm_mm(data, init_random(data.n, 2, 19), SolverConfig(c=2))
        recomputed = phi(data, to_power(result.F_final, R))
        assert abs(result.objective_final - recomputed) <= 1e-12 * (1.0 + abs(recomputed))

    def test_deterministic_given_same_inputs(self):
        data = blob_instance(seed=20)
        F0 = init_random(data.n, 2, 21)
        cfg = SolverConfig(c=2)
        a = solve_irw_fcm(data, F0, cfg)
        b = solve_irw_fcm(data, F0, cfg)
        assert np.array_equal(a.F_final.values, b.F_final.values)
        assert [r.objective for r in a.trace.records] == [r.objective for r in b.trace.records]
        assert [r.membership_updates for r in a.trace.records] == \
               [r.membership_updates for r in b.trace.records]

    def test_start_matrix_must_be_row_stochastic(self):
        data = blob_instance(seed=22)
        bad = MembershipMatrix.from_values(np.full((data.n, 2), 0.4))
        with pytest.raises(ValueError, match="row-stochastic"):
            solve_fcm_mm(data, bad, SolverConfig(c=2))

    def test_config_cluster_count_must_match(self):
        data = blob_instance(seed=23)
        with pytest.raises(ValueError, match="clusters"):
            solve_fcm_mm(data, init_random(data.n, 2, 0), SolverConfig(c=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(c=1)
        with pytest.raises(ValueError):
            SolverConfig(c=2, r=1.0)
        with pytest.raises(ValueError):
            SolverConfig(c=2, outer_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(c=2, max_outer_iters=0)

    @pytest.mark.parametrize("field", ["r", "outer_tol", "inner_tol", "dist_floor"])
    def test_config_rejects_non_finite(self, field):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(c=2, **{field: value})

    def test_max_iters_termination(self):
        data = blob_instance(seed=24)
        result = solve_fcm_mm(data, init_random(data.n, 2, 25),
                              SolverConfig(c=2, outer_tol=1e-16, max_outer_iters=3))
        assert result.termination == "max_iters"
        assert result.trace.records[-1].outer_iter == 3

    def test_every_iterate_is_row_stochastic(self, iris_data):
        F0 = init_random(iris_data.n, 3, 26)
        for k in (1, 3, 6, 10):
            for solver in (solve_fcm_classic, solve_irw_fcm, solve_fcm_mm):
                res = solver(iris_data, F0, SolverConfig(c=3, max_outer_iters=k))
                assert validate(res.F_final).passed
