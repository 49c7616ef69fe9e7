import numpy as np
import pytest

from fcmm.exceptions import DegenerateClusterError
from fcmm.dataset import DataMatrix
from fcmm.membership import (MembershipMatrix, PowerMembership, init_random,
                             to_power, validate)
from fcmm.objective import aggregates


class TestInitRandom:
    def test_rows_on_simplex(self):
        F = init_random(200, 4, seed=3)
        assert np.max(np.abs(F.values.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(F.values > 0) and np.all(F.values < 1)

    def test_deterministic(self):
        a = init_random(50, 3, seed=9)
        b = init_random(50, 3, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = init_random(50, 3, seed=9)
        b = init_random(50, 3, seed=10)
        assert not np.array_equal(a.values, b.values)

    def test_flat_dirichlet_column_means(self):
        # law of large numbers on the flat-simplex sampler
        F = init_random(10000, 5, seed=1)
        assert np.max(np.abs(F.values.mean(axis=0) - 0.2)) < 0.02

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            init_random(10, 1, seed=0)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            init_random(0, 3, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 2.5, "n must be an integer"), ("c", 2.0, "c must be an integer"),
        ("seed", 1.5, "seed must be an integer"), ("n", True, "n must be an integer"),
        ("seed", -1, "seed must be an integer >= 0")])
    def test_non_integer_or_negative_arguments_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            init_random(**{"n": 4, "c": 2, "seed": 0, field: value})

    @pytest.mark.parametrize("n, c", [(1, 2), (7, 3), (500, 20)])
    def test_bitwise_the_copying_definition(self, n, c):
        # init_random's earlier definition: normalised into a new array
        for seed in (0, 9, 123):
            exp = np.random.default_rng(seed).standard_exponential(size=(n, c))
            expected = exp / exp.sum(axis=1, keepdims=True)
            assert init_random(n, c, seed).values.tobytes() == expected.tobytes()

    def test_numpy_integers_accepted(self):
        assert np.array_equal(init_random(np.int64(5), np.int32(3), np.uint8(7)).values,
                              init_random(5, 3, 7).values)


class TestToPower:
    def test_elementwise_square(self):
        F = MembershipMatrix.from_values([[0.5, 0.5]])
        G = to_power(F, 2.0)
        np.testing.assert_array_equal(G.values, [[0.25, 0.25]])
        np.testing.assert_array_equal(G.col_sums, [0.25, 0.25])

    def test_exponent_near_one_limit(self):
        F = MembershipMatrix.from_values([[0.3, 0.7]])
        G = to_power(F, 1.000001)
        np.testing.assert_allclose(G.values, [[0.3, 0.7]], atol=1e-5)

    def test_one_hot_row_fixed_under_power(self):
        F = MembershipMatrix.from_values([[0.0, 1.0], [0.5, 0.5]])
        G = to_power(F, 2.0)
        np.testing.assert_array_equal(G.values[0], [0.0, 1.0])

    def test_col_sums_match_recomputation(self):
        rng = np.random.default_rng(12)
        F = MembershipMatrix.from_values(rng.dirichlet(np.ones(4), size=60))
        G = to_power(F, 2.5)
        recomputed = (F.values ** 2.5).sum(axis=0)
        assert np.max(np.abs(G.col_sums - recomputed) / recomputed) <= 1e-12

    def test_col_sums_over_many_points_match_recomputation(self):
        # 200,000 points: the reduction agrees with numpy's own column sum
        values = np.random.default_rng(12).random((200_000, 4))
        recomputed = values.sum(axis=0)
        G = PowerMembership(values)
        assert np.max(np.abs(G.col_sums - recomputed) / recomputed) <= 1e-12

    def test_vanished_cluster_raises(self):
        F = MembershipMatrix.from_values([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateClusterError, match=r"\[1\]"):
            to_power(F, 2.0)

    def test_exponent_at_most_one_rejected(self):
        F = MembershipMatrix.from_values([[0.5, 0.5]])
        with pytest.raises(ValueError):
            to_power(F, 1.0)

    def test_result_is_read_only(self):
        G = to_power(MembershipMatrix.from_values([[0.5, 0.5]]), 2.0)
        assert not G.values.flags.writeable and not G.col_sums.flags.writeable


class TestConstruction:
    @pytest.mark.parametrize("values, message", [
        ([0.5, 0.5], "2-D array"),
        (np.empty((3, 0)), r"non-empty 2-D array, got shape \(3, 0\)"),
        ([[np.nan, 1.0]], "finite"),
    ], ids=["1-d", "no-columns", "nan"])
    def test_membership_rejects_bad_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            MembershipMatrix.from_values(values)

    def test_power_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D array"):
            PowerMembership.from_values([0.5, 0.5])

    def test_power_computes_its_own_col_sums(self):
        # no caller-supplied sums that could broadcast into wrong centers and phi
        values = np.array([[1.0, 0.0], [0.25, 0.25], [0.0, 1.0]])
        G = PowerMembership(values)
        np.testing.assert_array_equal(G.col_sums, [1.25, 1.25])
        assert not G.col_sums.flags.writeable
        with pytest.raises(TypeError):
            PowerMembership(values, np.array([3.0]))

    def test_direct_power_with_zero_column_raises(self):
        # the zero-mass rule holds however G is built, not only through to_power
        values = np.array([[1.0, 0.0], [0.25, 0.0]])
        with pytest.raises(DegenerateClusterError, match=r"\[1\]"):
            PowerMembership(values)

    def test_direct_power_freezes_its_values(self):
        # a caller cannot zero a column after the mass check and keep stale sums
        g = np.eye(2)
        G = PowerMembership(g)
        g[:, 1] = 0.0
        assert not G.values.flags.writeable and not np.shares_memory(g, G.values)
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(aggregates(data, G).mass, [1.0, 1.0])
        np.testing.assert_array_equal(G.values, np.eye(2))

    @pytest.mark.parametrize("cls", [MembershipMatrix, PowerMembership])
    @pytest.mark.parametrize("values, got", [
        ([[0.5, 0.5]], "got list"), (np.array([[1, 0]]), "got int64"),
        (np.array([[0.5, 0.5]], dtype=np.float32), "got float32")],
        ids=["list", "int64", "float32"])
    def test_direct_construction_needs_a_float64_array(self, cls, values, got):
        with pytest.raises(ValueError, match=f"values must be a float64 ndarray, {got}"):
            cls(values)

    def test_power_rejects_non_finite_values(self):
        # a NaN column sum used to pass, then phi and the centers came out NaN
        with pytest.raises(ValueError, match="powered membership values must be finite"):
            PowerMembership.from_values([[np.nan, 1.0], [1.0, 1.0]])

    def test_empty_membership_rejected_before_validate(self):
        # validate never raises, so an empty matrix must not be constructible
        with pytest.raises(ValueError, match=r"non-empty 2-D array, got shape \(0, 3\)"):
            validate(MembershipMatrix.from_values(np.empty((0, 3))))


class TestFromValues:
    def test_membership_copies_and_leaves_input_writeable(self):
        a = np.array([[0.25, 0.75]])
        F = MembershipMatrix.from_values(a)
        assert a.flags.writeable and not F.values.flags.writeable
        a[0, 0] = 0.5
        assert F.values[0, 0] == 0.25

    def test_power_copies_and_leaves_input_writeable(self):
        a = np.array([[0.25, 0.75]])
        G = PowerMembership.from_values(a)
        assert a.flags.writeable and not G.values.flags.writeable
        a[0, 0] = 0.5
        assert G.values[0, 0] == 0.25


class TestValidate:
    def test_exact_simplex_passes(self):
        report = validate(MembershipMatrix.from_values([[0.25, 0.75], [0.5, 0.5]]))
        assert report.passed
        assert report.max_row_sum_deviation == 0.0

    def test_bad_row_sum_fails(self):
        report = validate(MembershipMatrix.from_values([[0.6, 0.5]]))
        assert not report.passed
        assert report.max_row_sum_deviation == pytest.approx(0.1)

    def test_rounding_noise_tolerated(self):
        # row sums carry rounding within ROW_SUM_TOL; entries get none, as f ** r needs f >= 0
        assert validate(MembershipMatrix.from_values([[1.0 + 1e-15, 0.0]])).passed
        report = validate(MembershipMatrix.from_values([[1.0 + 1e-15, -1e-15]]))
        assert not report.passed
        assert report.min_entry == -1e-15


def test_single_cluster_constructible_for_reference_math():
    # hand-checkable single-cluster matrices are allowed; the production
    # entry points (init_random, solvers) are the ones that demand c >= 2
    F = MembershipMatrix.from_values([[1.0], [1.0]])
    assert F.c == 1
    assert validate(F).passed
