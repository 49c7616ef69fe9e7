import re
import warnings

import numpy as np
import pytest

from conftest import count_products, random_instance
from fcmm import objective, solvers
from fcmm.cli import SYNTHETIC_PRESETS
from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs, standardize
from fcmm.exceptions import DegenerateClusterError
from fcmm.membership import (MembershipMatrix, PowerMembership, init_random,
                             to_power, validate)
from fcmm.objective import aggregates, compute_centers, fcm_objective, phi
from fcmm.oracle import (_draw_instance, _draw_on_centers, classic_update_oracle,
                         descent_chain_audit, gram_quad_oracle)
from fcmm.solvers import (SolverConfig, irw_auxiliary, solve_fcm_classic, solve_fcm_mm,
                          solve_irw_fcm, update_membership_classic, update_membership_irw,
                          update_membership_mm)

R = 2.0


def descent_slack(obj):
    return 1e-12 * (1.0 + abs(obj))


class TestClassicUpdate:
    def test_two_center_hand_case(self):
        # x=0, centers 1 and 2: inverse squared distances (1, 1/4)
        data = DataMatrix.from_points([[0.0]])
        centers = np.array([[1.0], [2.0]])
        F = update_membership_classic(data, centers, R)
        np.testing.assert_allclose(F.values, [[0.8, 0.2]], rtol=1e-12)

    def test_equidistant_point_gets_uniform_row(self):
        data = DataMatrix.from_points([[0.0, 0.0]])
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        F = update_membership_classic(data, centers, R)
        np.testing.assert_allclose(F.values, [[1 / 3] * 3], rtol=1e-12)

    def test_exponent_at_most_one_rejected(self):
        data = DataMatrix.from_points([[0.0], [2.0]])
        with pytest.raises(ValueError, match="r must be a real number > 1"):
            update_membership_classic(data, np.array([[1.0], [3.0]]), 1.0)

    def test_point_on_center_goes_one_hot(self):
        data = DataMatrix.from_points([[1.0], [5.0]])
        centers = np.array([[1.0], [3.0]])
        F = update_membership_classic(data, centers, R)
        np.testing.assert_array_equal(F.values[0], [1.0, 0.0])
        assert 0 < F.values[1, 0] < F.values[1, 1]


@pytest.mark.parametrize("update", [update_membership_classic, classic_update_oracle])
class TestCentersAsFcmObjectiveTakesThem:
    """The update and its reference read ``centers`` as ``np.asarray`` does,
    and refuse any shape but c >= 1 rows of ``data.d`` coordinates."""

    def test_nested_lists_are_the_array(self, update):
        data, _, G = random_instance(np.random.default_rng(85), 20, 2, 3)
        centers = compute_centers(data, G)
        got = update(data, centers.tolist(), R).values
        assert got.tobytes() == update(data, centers, R).values.tobytes()

    @pytest.mark.parametrize("shape", [(6,), (3, 3), (3, 1), (1, 3, 2), (0, 2)],
                             ids=["1-D", "too-wide", "too-narrow", "3-D", "no-centers"])
    def test_other_shapes_refused(self, update, shape):
        data = DataMatrix.from_points(np.random.default_rng(86).normal(size=(20, 2)))
        message = f"centers must have shape (c, 2) with c >= 1; got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            update(data, np.ones(shape), R)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    def test_non_finite_centers_refused_before_any_warning(self, update, value):
        data = DataMatrix.from_points(np.random.default_rng(87).normal(size=(20, 2)))
        centers = np.zeros((3, 2))
        centers[1, 0] = value
        message = "centers must be finite; non-finite value at center 1, feature 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                update(data, centers, R)


class TestIrwAuxiliary:
    def test_single_point_indicator(self):
        # s = (|(3,4)| / 1, |(1,0)| / 1), so the centers are points 0 and 1
        data = DataMatrix.from_points([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        G = PowerMembership.from_values(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        s = irw_auxiliary(data, G)
        np.testing.assert_allclose(s, [5.0, 1.0], rtol=1e-15)
        F = update_membership_irw(data, G, s, R)
        # point 2 sits at squared distances 13 and 5
        np.testing.assert_allclose(F.values, [[1.0, 0.0], [0.0, 1.0], [5 / 18, 13 / 18]],
                                   rtol=1e-14)

    def test_identical_points(self):
        data = DataMatrix.from_points([[3.0, 4.0]] * 4)
        G = PowerMembership.from_values(np.array([[0.5], [1.0], [2.0], [0.25]]))
        assert irw_auxiliary(data, G)[0] == pytest.approx(5.0, rel=1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(50)
        data, _, G = random_instance(rng, 12, 3, 3)
        s = irw_auxiliary(data, G)
        for j in range(3):
            g = G.values[:, j]
            ref = np.sqrt(gram_quad_oracle(data, g)) / g.sum()
            assert abs(s[j] - ref) <= 1e-10 * (1.0 + ref)

    def test_zero_weighted_image_is_degenerate(self):
        from fcmm.exceptions import DegenerateClusterError
        data = DataMatrix.from_points(np.zeros((4, 2)))
        G = PowerMembership.from_values(np.full((4, 2), 0.25))
        with pytest.raises(DegenerateClusterError):
            update_membership_irw(data, G, irw_auxiliary(data, G), R)


class TestIrwUpdate:
    def test_equal_brackets_give_uniform_row(self):
        # identical columns of G and equal s put both centers in one place
        data = DataMatrix.from_points([[1.0], [2.0]])
        G = PowerMembership.from_values(np.full((2, 2), 0.25))
        F = update_membership_irw(data, G, np.array([1.0, 1.0]), R)
        np.testing.assert_allclose(F.values, 0.5, rtol=1e-12)

    def test_negative_bracket_wins_row(self):
        # point 0 is its own re-weighting center; its expanded bracket
        # rounds to about -4e-16, is recomputed from the differences as 0
        # and splits the row
        data = DataMatrix.from_points([[0.4, -1.1], [50.0, 50.0]])
        G = PowerMembership.from_values(np.eye(2))
        F = update_membership_irw(data, G, irw_auxiliary(data, G), R)
        np.testing.assert_array_equal(F.values, np.eye(2))

    def test_matches_classic_at_anchor_centers(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)))
            F_irw = update_membership_irw(data, G, irw_auxiliary(data, G), R)
            centers = compute_centers(data, G)
            F_classic = classic_update_oracle(data, centers, R)
            assert np.max(np.abs(F_irw.values - F_classic.values)) <= 1e-12

    def test_matches_classic_away_from_anchor(self):
        # s frozen at one G, update taken at another: the inner steps past the first
        rng = np.random.default_rng(54)
        for _ in range(20):
            r = float(rng.choice([1.5, 2.0, 3.0]))
            n, d, c = int(rng.integers(5, 40)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
            data, _, G_anchor = random_instance(rng, n, d, c, r)
            G = to_power(MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n)), r)
            s = irw_auxiliary(data, G_anchor)
            F_irw = update_membership_irw(data, G, s, r)
            y = aggregates(data, G).y
            centers = y * (s / np.linalg.norm(y, axis=1))[:, None]
            F_classic = classic_update_oracle(data, centers, r)
            assert np.max(np.abs(F_irw.values - F_classic.values)) <= 1e-12

    def test_battery_draws_match_oracle_at_own_centers(self):
        # the battery's draws, a quarter with points on and 1e-9 from the centers;
        # the oracle takes the differences to s_j y_j / |y_j|, the kernel s_j^2
        rng = np.random.default_rng(56)
        for k in range(1000):
            if k % 4:
                data, G, r = _draw_instance(rng, 100)
            else:
                data, G, r = _draw_on_centers(rng, 100, (3.0, 1.5, 2.0)[k // 4 % 3])
            s = irw_auxiliary(data, G)
            y = aggregates(data, G).y
            centers = y * (s / np.linalg.norm(y, axis=1))[:, None]
            F_irw = update_membership_irw(data, G, s, r)
            F_classic = classic_update_oracle(data, centers, r)
            assert np.max(np.abs(F_irw.values - F_classic.values)) <= 1e-12

    @pytest.mark.parametrize("wrong", [lambda s: s[:1], lambda s: 0.5, lambda s: s[:2],
                                       lambda s: s.reshape(3, 1)],
                             ids=["length-1", "float", "length-2", "column"])
    def test_s_of_another_shape_is_refused(self, wrong):
        data, _, G = random_instance(np.random.default_rng(57), 20, 2, 3)
        s = irw_auxiliary(data, G)
        with pytest.raises(ValueError, match=r"s must have shape \(3,\)"):
            update_membership_irw(data, G, wrong(s), R)

    @pytest.mark.parametrize("wrong", [lambda s: -s, lambda s: np.where([0, 1, 0], np.nan, s),
                                       lambda s: np.where([0, 0, 1], np.inf, s)],
                             ids=["negated", "nan", "inf"])
    def test_s_negative_or_not_finite_is_refused(self, wrong):
        # -s would mirror the centers; a NaN or inf would surface as non-finite memberships
        data, _, G = random_instance(np.random.default_rng(57), 20, 2, 3)
        s = irw_auxiliary(data, G)
        with pytest.raises(ValueError, match=r"s must be finite and >= 0"):
            update_membership_irw(data, G, wrong(s), R)

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_zero_s_puts_every_center_at_the_origin(self, r):
        # MM's own center when y_j = 0: every bracket of a row is x_i.x_i
        data, _, G = random_instance(np.random.default_rng(58), 20, 2, 3)
        F = update_membership_irw(data, G, np.zeros(3), r)
        assert F.values.tobytes() == update_membership_classic(data, np.zeros((3, 2)),
                                                               r).values.tobytes()
        assert np.ptp(F.values, axis=1).max() == 0.0
        np.testing.assert_allclose(F.values, 1.0 / 3.0, rtol=1e-15)


class TestMmUpdate:
    def test_matches_irw_single_step(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            r = float(rng.choice([1.5, 2.0, 3.0]))
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)), r)
            F_mm = update_membership_mm(data, G, r)
            F_irw = update_membership_irw(data, G, irw_auxiliary(data, G), r)
            assert np.max(np.abs(F_mm.values - F_irw.values)) <= 1e-12

    def test_matches_classic_at_anchor_centers(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            data, _, G = random_instance(rng, int(rng.integers(5, 40)),
                                         int(rng.integers(1, 5)),
                                         int(rng.integers(2, 5)))
            F_mm = update_membership_mm(data, G, R)
            centers = compute_centers(data, G)
            F_classic = classic_update_oracle(data, centers, R)
            assert np.max(np.abs(F_mm.values - F_classic.values)) <= 1e-12

    def test_symmetric_instance_goes_uniform(self):
        data = DataMatrix.from_points([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        G = PowerMembership.from_values(np.full((4, 2), 0.25))
        F = update_membership_mm(data, G, R)
        np.testing.assert_allclose(F.values, 0.5, rtol=1e-12)


def blob_instance(seed=0):
    spec = SyntheticSpec(blob_count=2, points_per_blob=30, dim=2,
                         blob_stddev=0.3, blob_center_scale=6.0, seed=seed)
    return make_blobs(spec)


def polish_fixed_point(data, F, r=R, tol=1e-14, iters=3000):
    for _ in range(iters):
        centers = compute_centers(data, to_power(F, r))
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
        found = result.centers_final
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


def assert_bitwise_same_run(a, b):
    """Memberships, objectives (by hex) and trace columns other than time."""
    assert np.array_equal(a.F_final.values, b.F_final.values)
    assert np.array_equal(a.centers_final, b.centers_final)
    assert a.objective_final.hex() == b.objective_final.hex()
    assert a.termination == b.termination
    assert len(a.trace) == len(b.trace)
    for x, y in zip(a.trace.records, b.trace.records):
        assert (x.outer_iter, x.objective.hex(), x.membership_updates, x.inner_iters) == \
            (y.outer_iter, y.objective.hex(), y.membership_updates, y.inner_iters)


class TestSolveIrw:
    def test_one_step_cap_reproduces_mm_trajectory(self):
        data = blob_instance(seed=10)
        F0 = init_random(data.n, 2, 5)
        one_step = SolverConfig(c=2, max_inner_iters=1)
        full_irw = solve_irw_fcm(data, F0, one_step)
        full_mm = solve_fcm_mm(data, F0, SolverConfig(c=2))
        assert all(rec.inner_iters == 1 for rec in full_irw.trace.records[1:])
        assert_bitwise_same_run(full_irw, full_mm)
        for k in range(1, min(9, full_mm.trace.records[-1].outer_iter + 1)):
            capped = SolverConfig(c=2, max_inner_iters=1, max_outer_iters=k)
            irw_k = solve_irw_fcm(data, F0, capped)
            mm_k = solve_fcm_mm(data, F0, SolverConfig(c=2, max_outer_iters=k))
            assert_bitwise_same_run(irw_k, mm_k)

    @pytest.mark.parametrize("dataset", ["iris", "blobs-small"])
    def test_one_inner_step_is_the_single_loop(self, dataset, iris_data):
        for seed in range(10):
            if dataset == "iris":
                data = iris_data
            else:
                spec = SyntheticSpec(seed=seed, **SYNTHETIC_PRESETS["blobs-small"])
                data = standardize(make_blobs(spec))
            F0 = init_random(data.n, 3, seed)
            irw = solve_irw_fcm(data, F0, SolverConfig(c=3, max_inner_iters=1))
            mm = solve_fcm_mm(data, F0, SolverConfig(c=3))
            assert_bitwise_same_run(irw, mm)

    @pytest.mark.parametrize("max_inner", [1, 100])
    def test_auxiliary_only_for_a_second_inner_step(self, iris_data, monkeypatch, max_inner):
        calls = []

        def counted(data, G):
            calls.append(1)
            return aggregates(data, G)

        monkeypatch.setattr(objective, "aggregates", counted)
        monkeypatch.setattr(solvers, "aggregates", counted)
        products = count_products(monkeypatch)
        cfg = SolverConfig(c=3, max_inner_iters=max_inner, max_outer_iters=1)
        result = solve_irw_fcm(iris_data, init_random(iris_data.n, 3, 3), cfg)
        k = result.trace.records[1].inner_iters
        # Outside the step: phi at the start and after it, and the final centers.
        # Inside: the MM step, and the auxiliary when a second step runs; later
        # steps take their product on plain arrays.
        step_calls = len(calls) - 3
        if max_inner == 1:
            assert (k, step_calls) == (1, 1)
        else:
            assert k >= 2 and step_calls == 2
        # One product per G: the start's, then each inner step's (the last in
        # phi); the anchor's auxiliary and the final centers reuse theirs.
        assert len(products) == 1 + k

    def test_anchor_constants_built_once_per_outer_iteration(self, iris_data, monkeypatch):
        # s, s^2, its maximum and the near-center bound come once per outer iteration
        # that takes a second inner step, and every later step's kernel call takes
        # those same objects
        scalars, constants = [], []
        auxiliary, kernel = solvers.irw_auxiliary, solvers._classic_values

        def spied_auxiliary(data, G):
            scalars.append(auxiliary(data, G))
            return scalars[-1]

        def spied_kernel(data, scaled, center_sq, top, bound, r):
            constants.append((center_sq, top, bound))
            return kernel(data, scaled, center_sq, top, bound, r)

        monkeypatch.setattr(solvers, "irw_auxiliary", spied_auxiliary)
        monkeypatch.setattr(solvers, "_classic_values", spied_kernel)
        F0 = init_random(iris_data.n, 3, 3)
        for solve in (solve_fcm_mm, solve_fcm_classic):
            solve(iris_data, F0, SolverConfig(c=3))
        assert scalars == []
        constants.clear()
        result = solve_irw_fcm(iris_data, F0, SolverConfig(c=3))
        inner = [rec.inner_iters for rec in result.trace.records[1:]]
        assert len(scalars) == sum(k >= 2 for k in inner) > 0
        assert len(constants) == sum(inner)
        anchors, start = iter(scalars), 0
        for k in inner:
            steps, start = constants[start:start + k], start + k
            if k >= 2:
                s, (s_sq, top, bound) = next(anchors), steps[1]
                assert s_sq.tobytes() == (s * s).tobytes() and top == (s * s).max()
                assert bound == 1e-4 * (iris_data.sq_norms.max() + top)
                assert all(sq is s_sq and t is top and b is bound for sq, t, b in steps[2:])
                assert steps[0][0] is not s_sq  # the MM step takes its centers' own

    def test_zero_image_at_anchor_takes_the_mm_step(self):
        # Uniform memberships on symmetric data: every y_j is exactly 0, so
        # the re-weighting direction y_j / |y_j| is undefined at the anchor,
        # but the first inner step is the MM step and lands on the start.
        data = DataMatrix.from_points([[-1.0], [1.0]])
        F0 = MembershipMatrix.from_values(np.full((2, 2), 0.5))
        result = solve_irw_fcm(data, F0, SolverConfig(c=2))
        assert result.termination == "converged"
        assert result.trace.records[1].inner_iters == 1
        assert np.array_equal(result.F_final.values, F0.values)

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
            assert rec.inner_iters == min(rec.outer_iter, 1)

    def test_one_product_per_iterate(self, iris_data, monkeypatch):
        calls = []

        def counted(data, G):
            calls.append(1)
            return aggregates(data, G)

        monkeypatch.setattr(objective, "aggregates", counted)
        monkeypatch.setattr(solvers, "aggregates", counted)
        products = count_products(monkeypatch)
        result = solve_fcm_mm(iris_data, init_random(iris_data.n, 3, 5), SolverConfig(c=3))
        iters = len(result.trace) - 1
        assert iters >= 5
        # phi and the next step's centers share each G's product.
        assert len(calls) == 2 * iters + 2
        assert len(products) == iters + 1

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
    def test_classic_equals_mm_pathwise(self, iris_data):
        # classic runs MM's driver: bitwise MM's run in every trace column
        runs = [(iris_data, init_random(iris_data.n, 3, seed), SolverConfig(c=3))
                for seed in range(40)]
        blobs = standardize(make_blobs(SyntheticSpec(blob_count=4, points_per_blob=500,
                                                     dim=3, seed=0)))
        runs.append((blobs, init_random(blobs.n, 4, 1), SolverConfig(c=4, r=1.2)))
        for data, F0, cfg in runs:
            assert_bitwise_same_run(solve_fcm_mm(data, F0, cfg),
                                    solve_fcm_classic(data, F0, cfg))


class TestStoppingRule:
    """The outer test is relative to the objective, so a solve's stop has no unit."""

    @pytest.mark.parametrize("solve", [solve_fcm_classic, solve_irw_fcm, solve_fcm_mm])
    def test_whole_solve_ignores_the_data_unit(self, solve):
        base = make_blobs(SyntheticSpec(blob_count=3, points_per_blob=50, dim=2,
                                        blob_stddev=0.5, blob_center_scale=5.0, seed=0))
        for seed in range(3):
            F0 = init_random(base.n, 3, seed)
            ref = solve(base, F0, SolverConfig(c=3))
            for scale in (1e-7, 1e-3, 1e3, 1e7):
                res = solve(DataMatrix.from_points(base.points * scale), F0, SolverConfig(c=3))
                assert res.trace.records[-1].outer_iter == ref.trace.records[-1].outer_iter
                assert (res.trace.total_membership_updates()
                        == ref.trace.total_membership_updates())
                rescaled = res.objective_final / scale ** 2
                assert abs(rescaled - ref.objective_final) <= 1e-10 * ref.objective_final

    @pytest.mark.parametrize("solve", [solve_irw_fcm, solve_fcm_mm])
    def test_large_r_runs_to_the_optimum(self, iris_data, solve):
        # phi is about 4e-7 at r = 20 and 2e-21 at r = 50, where a unit floor decided alone
        for r in (20.0, 50.0):
            for seed in range(3):
                F0 = init_random(iris_data.n, 3, seed)
                res = solve(iris_data, F0, SolverConfig(c=3, r=r))
                tight = solve(iris_data, F0, SolverConfig(c=3, r=r, outer_tol=1e-13,
                                                          max_outer_iters=5000))
                # the tight run is a fixed point: one more MM step barely moves phi
                G = to_power(tight.F_final, r)
                step = phi(iris_data, to_power(update_membership_mm(iris_data, G, r), r))
                assert tight.objective_final - step <= 1e-12 * tight.objective_final
                assert (abs(res.objective_final - tight.objective_final)
                        <= 1e-7 * tight.objective_final)
                recomputed = fcm_objective(iris_data, res.F_final, res.centers_final, r)
                assert abs(res.objective_final - recomputed) <= 1e-10 * recomputed


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
        with pytest.raises(ValueError, match="zero mass"):
            solve_fcm_mm(data, F0, SolverConfig(c=2))

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

    @pytest.mark.parametrize("solve", [solve_fcm_classic, solve_irw_fcm, solve_fcm_mm])
    def test_final_memberships_are_read_only(self, solve):
        data = blob_instance(seed=23)
        result = solve(data, init_random(data.n, 2, 24), SolverConfig(c=2, max_outer_iters=3))
        assert not result.F_final.values.flags.writeable

    def test_start_matrix_must_be_row_stochastic(self):
        data = blob_instance(seed=22)
        bad = MembershipMatrix.from_values(np.full((data.n, 2), 0.4))
        with pytest.raises(ValueError, match="row-stochastic"):
            solve_fcm_mm(data, bad, SolverConfig(c=2))

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_start_entry_below_zero_rejected_before_powering(self, iris_data, r):
        # (-1e-13) ** 1.5 is NaN, so validate refuses any negative entry
        values = init_random(iris_data.n, 3, 0).values.copy()
        values[0] = [1.0 + 1e-13, -1e-13, 0.0]
        with pytest.raises(ValueError, match=r"min entry -1\.000e-13"):
            solve_fcm_mm(iris_data, MembershipMatrix(values), SolverConfig(c=3, r=r))

    def test_start_row_count_must_match(self, iris_data):
        # refused by the start's own check, before aggregates sees the rows
        F0, cfg = init_random(151, 3, 0), SolverConfig(c=3)
        for run in (solve_fcm_mm, solve_irw_fcm, solve_fcm_classic,
                    lambda data, F0, cfg: descent_chain_audit(data, F0, cfg, steps=1)):
            with pytest.raises(ValueError, match="^F0 has 151 rows but data has 150 points$"):
                run(iris_data, F0, cfg)

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
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SolverConfig(c=2, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("c", 3.0), ("c", True), ("max_outer_iters", 2.5), ("max_inner_iters", 1.5),
        ("max_inner_iters", "2"), ("seed", 1.0), ("seed", False)])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{"c": 3, field: value})

    @pytest.mark.parametrize("field, value", [
        ("r", "2"), ("r", None), ("r", True), ("outer_tol", None), ("outer_tol", "1e-8")])
    def test_config_rejects_non_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SolverConfig(**{"c": 3, field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = SolverConfig(c=np.int64(3), max_outer_iters=np.int32(4),
                           max_inner_iters=np.uint8(2), seed=np.int16(5))
        data = blob_instance(seed=25)
        result = solve_irw_fcm(data, init_random(data.n, 3, 6), cfg)
        assert result.trace.records[-1].outer_iter <= 4
        assert max(rec.inner_iters for rec in result.trace.records) <= 2

    @pytest.mark.parametrize("field", ["r", "outer_tol"])
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


def _start_with_row(values, row):
    values = values.copy()
    values[0] = row
    return values


START_CASES = {
    "random": (lambda F: F, 2.0),
    "row-sum-off-2e-9": (lambda F: _start_with_row(F, F[0] + [2e-9, 0.0, 0.0]), 2.0),
    "entry-at-minus-1e-15": (lambda F: _start_with_row(F, [1.0 + 1e-15, -1e-15, 0.0]), 2.0),
    "zero-column": (lambda F: np.column_stack([F[:, 0], 1.0 - F[:, 0], np.zeros(len(F))]), 2.0),
    "underflow-at-r-1e5": (lambda F: F, 1e5),
}


def passes_start_rule(F0, r):
    if not validate(F0).passed:
        return False
    try:
        to_power(F0, r)
    except DegenerateClusterError:
        return False
    return True


class TestOneStartRule:
    """A start passes the solvers exactly when it passes validate and F0 ** r has mass."""

    @pytest.mark.parametrize("case", START_CASES)
    def test_validate_and_mass_decide_every_solver(self, iris_data, monkeypatch, case):
        build, r = START_CASES[case]
        F0 = MembershipMatrix(build(init_random(iris_data.n, 3, 0).values))
        valid = passes_start_rule(F0, r)
        updates = []
        classic = solvers.update_membership_classic
        monkeypatch.setattr(solvers, "update_membership_classic",
                            lambda *args: updates.append(1) or classic(*args))
        for solve in (solve_fcm_classic, solve_irw_fcm, solve_fcm_mm):
            cfg = SolverConfig(c=3, r=r, max_outer_iters=2)
            if valid:
                assert len(solve(iris_data, F0, cfg).trace) == 3
            else:
                with pytest.raises(ValueError, match="row-stochastic|zero mass"):
                    solve(iris_data, F0, cfg)
                assert not updates


class TestEveryResultHoldsState:
    @pytest.mark.parametrize("solve", [solve_fcm_classic, solve_irw_fcm, solve_fcm_mm])
    @pytest.mark.parametrize("case", ["all-zero-data", "max-iters", "iris-converged"])
    def test_centers_objective_and_a_record(self, iris_data, solve, case):
        if case == "all-zero-data":  # IRW stops degenerate after the start's record
            data, F0, cfg = (DataMatrix.from_points(np.zeros((6, 2))), init_random(6, 3, 1),
                             SolverConfig(c=3))
        else:
            data, F0 = iris_data, init_random(iris_data.n, 3, 7)
            cfg = SolverConfig(c=3, max_outer_iters=2 if case == "max-iters" else 500)
        result = solve(data, F0, cfg)
        expected = {"all-zero-data": "degenerate" if solve is solve_irw_fcm else "converged",
                    "max-iters": "max_iters", "iris-converged": "converged"}[case]
        assert result.termination == expected
        assert isinstance(result.centers_final, np.ndarray)
        assert result.centers_final.shape == (cfg.c, data.d)
        assert np.isfinite(result.objective_final)
        assert len(result.trace) == 1 if expected == "degenerate" else len(result.trace) >= 1

    @pytest.mark.parametrize("objective", [np.inf, -np.inf, np.nan])
    def test_record_refuses_a_non_finite_objective(self, objective):
        with pytest.raises(ValueError, match="at outer iteration 3 is not finite"):
            solvers.TraceRecord(3, objective, 0, 3, 1)

    @pytest.mark.parametrize("solve", [solve_fcm_classic, solve_fcm_mm])
    @pytest.mark.parametrize("scale, first_bad", [(1e150, 4), (1e152, 0)])
    def test_overflowing_objective_raises_at_its_iteration(self, solve, scale, first_bad):
        # the objective, about 1.7e304 at 1e150, fits a float; phi's |y_j|^2 overflows
        # first, to -inf from iteration 4, and at 1e152 to NaN at the start
        base = make_blobs(SyntheticSpec(blob_count=3, points_per_blob=3000, dim=2, seed=0))
        data = DataMatrix.from_points(base.points * scale)
        with pytest.raises(ValueError, match=f"at outer iteration {first_bad} is not finite"):
            solve(data, init_random(data.n, 3, 0), SolverConfig(c=3))
