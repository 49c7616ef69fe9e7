import numpy as np
import pytest

from fcmm.dataset import DataMatrix, SyntheticSpec, load_csv, make_blobs, standardize
from fcmm.membership import PowerMembership, init_random
from fcmm.objective import phi
from fcmm.solvers import SolverConfig, solve_fcm_mm


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        data = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert data.n == 3 and data.d == 2
        assert data.sq_norms.tolist() == [5.0, 25.0, 61.0]

    def test_iris_shape(self, iris_raw):
        assert iris_raw.n == 150
        assert iris_raw.d == 4

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write(tmp_path, "1,a\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "1,inf\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_csv(path)

    def test_all_columns_dropped(self, tmp_path):
        path = write(tmp_path, "1,2\n")
        with pytest.raises(ValueError, match="columns dropped"):
            load_csv(path, drop_columns={0, 1})

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, "a,b\n"))

    def test_iris_header_found_without_a_flag(self, iris_path):
        data = load_csv(iris_path, drop_columns={4})
        assert (data.n, data.d) == (150, 4)
        np.testing.assert_array_equal(data.points[0], [5.1, 3.5, 1.4, 0.2])

    @pytest.mark.parametrize("text, drop, rows", [
        ("a,b\n1,2\n3,4\n", (), 2),
        ("a,b,label\n1,2,x\n", {2}, 1),
        ("1,2,x\n3,4,y\n", {2}, 2),
        ("\n\nx,y\n1,2\n", (), 1),
    ], ids=["header", "header-over-dropped-label", "labelled-data", "blank-lines-then-header"])
    def test_first_row_is_a_header_when_no_kept_cell_is_a_number(self, tmp_path, text, drop, rows):
        data = load_csv(write(tmp_path, text), drop_columns=drop)
        assert data.n == rows
        np.testing.assert_array_equal(data.points[0], [1.0, 2.0])

    @pytest.mark.parametrize("text, message", [
        ("1,abc\n2,3\n4,5\n6,7\n", "row 1, column 2: not a number: 'abc'"),
        ("x,1\n2,3\n", "row 1, column 1: not a number: 'x'"),
        ("a,b,c\n1,2\n", "row 1 has 2 columns, expected 3"),
    ], ids=["partly-numeric-first-row", "numeric-looking-header", "header-wider-than-data"])
    def test_first_row_with_a_number_is_data(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            load_csv(write(tmp_path, text))

    def test_all_columns_dropped_under_a_header(self, tmp_path):
        with pytest.raises(ValueError, match="all 2 columns dropped"):
            load_csv(write(tmp_path, "a,b\n1,2\n"), drop_columns={0, 1})

    def test_drop_column_excluded(self, tmp_path):
        data = load_csv(write(tmp_path, "1,9,2\n3,9,4\n"), drop_columns={1})
        assert data.d == 2
        np.testing.assert_array_equal(data.points, [[1, 2], [3, 4]])

    def test_drop_column_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            load_csv(write(tmp_path, "1,2\n"), drop_columns={5})


class TestDataMatrix:
    def test_sq_norms_cached_exactly(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 6))
        data = DataMatrix.from_points(pts)
        # staleness check: cached values equal recomputation exactly
        assert np.max(np.abs(data.sq_norms - np.einsum("ij,ij->i", data.points, data.points))) == 0.0
        # and a loop recomputation to loosen any vectorization coupling
        for i in range(data.n):
            assert data.sq_norms[i] == pytest.approx(sum(v * v for v in data.points[i]), rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix.from_points([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataMatrix.from_points(np.empty((0, 2)))

    def test_from_points_rejects_1d(self):
        with pytest.raises(ValueError, match=r"points must be a non-empty 2-D array, got shape \(2,\)"):
            DataMatrix.from_points([1.0, 2.0])

    def test_direct_construction_rejects_non_finite_and_empty_points(self):
        # these used to pass and then fail deep in the kernel, or not at all
        with pytest.raises(ValueError, match="non-finite value at point 0, feature 0"):
            DataMatrix(np.array([[np.nan, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ValueError, match="non-empty 2-D array"):
            DataMatrix(np.empty((0, 3)))

    def test_read_only_fortran_points_are_copied_to_c_order(self):
        a = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        a.setflags(write=False)
        data = DataMatrix(a)
        assert data.points.flags.c_contiguous and not data.points.flags.writeable
        np.testing.assert_array_equal(data.points, a)

    def test_direct_construction_computes_sq_norms(self):
        # no caller-supplied norms that could disagree with the points
        data = DataMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(data.sq_norms, [25.0, 0.0])
        assert not data.sq_norms.flags.writeable
        assert phi(data, PowerMembership.from_values(np.eye(2))) == 0.0
        with pytest.raises(ValueError, match="2-D array"):
            DataMatrix(np.zeros(3))
        with pytest.raises(TypeError):
            DataMatrix(np.zeros((2, 2)), np.ones(2))

    def test_direct_construction_holds_its_own_copy(self):
        # writing to the caller's array afterwards cannot make sq_norms stale
        a = np.array([[3.0, 4.0], [0.0, 0.0]])
        data = DataMatrix(a)
        a[0] = 0.0
        np.testing.assert_array_equal(data.points, [[3.0, 4.0], [0.0, 0.0]])
        assert not data.points.flags.writeable and data.points.flags.c_contiguous
        assert phi(data, PowerMembership.from_values(np.eye(2))) == 0.0

    def test_from_points_does_not_share_the_input(self):
        a = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        data = DataMatrix.from_points(a)
        assert not np.shares_memory(a, data.points) and a.flags.writeable
        assert data.points.flags.c_contiguous

    @pytest.mark.parametrize("points, got", [
        ([[1.0, 2.0]], "got list"), (np.array([[1, 2]]), "got int64")], ids=["list", "int64"])
    def test_direct_construction_needs_a_float64_array(self, points, got):
        with pytest.raises(ValueError, match=f"points must be a float64 ndarray, {got}"):
            DataMatrix(points)

    def test_points_read_only(self):
        data = DataMatrix.from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            data.points[0, 0] = 7.0


class TestMakeBlobs:
    def test_deterministic(self):
        spec = SyntheticSpec(blob_count=2, points_per_blob=10, dim=2, seed=7)
        a = make_blobs(spec)
        b = make_blobs(spec)
        assert np.array_equal(a.points, b.points)
        assert a.n == 20 and a.d == 2

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="points_per_blob"):
            SyntheticSpec(blob_count=2, points_per_blob=0, dim=2, seed=0)

    def test_bad_stddev_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(blob_count=2, points_per_blob=5, dim=2, blob_stddev=0.0, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("blob_count", 0, "blob_count must be an integer >= 1"),
        ("dim", 0, "dim must be an integer >= 1"),
        ("blob_center_scale", 0.0, "blob_center_scale must be a real number > 0"),
        ("seed", -1, "seed must be an integer >= 0"),
    ], ids=["blob_count", "dim", "blob_center_scale", "seed"])
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{"blob_count": 2, "points_per_blob": 5, "dim": 2, field: value})

    @pytest.mark.parametrize("field, value", [
        ("blob_count", 3.0), ("points_per_blob", 20.0), ("dim", 2.0), ("seed", True),
        ("seed", 1.5), ("dim", "2")])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SyntheticSpec(**{"blob_count": 2, "points_per_blob": 5, "dim": 2, field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = SyntheticSpec(blob_count=np.int64(2), points_per_blob=np.int32(5),
                             dim=np.uint8(3), seed=np.int16(4))
        plain = SyntheticSpec(blob_count=2, points_per_blob=5, dim=3, seed=4)
        assert np.array_equal(make_blobs(spec).points, make_blobs(plain).points)

    def test_solver_recovers_blob_centers(self):
        # tight, well-separated blobs; ground truth from the block layout
        spec = SyntheticSpec(blob_count=3, points_per_blob=50, dim=2,
                             blob_stddev=0.1, blob_center_scale=10.0, seed=11)
        data = make_blobs(spec)
        truth = np.array([data.points[k * 50:(k + 1) * 50].mean(axis=0) for k in range(3)])
        result = solve_fcm_mm(data, init_random(data.n, 3, 0), SolverConfig(c=3))
        assert result.termination == "converged"
        found = result.centers_final
        taken = set()
        for center in truth:
            dists = np.linalg.norm(found - center, axis=1)
            j = int(np.argmin(dists))
            assert dists[j] < 0.5
            assert j not in taken
            taken.add(j)


class TestStandardize:
    def test_two_point_column(self):
        data = standardize(DataMatrix.from_points([[1.0], [3.0]]))
        np.testing.assert_allclose(data.points[:, 0],
                                   [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_constant_column_centered_only(self):
        data = standardize(DataMatrix.from_points([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        np.testing.assert_allclose(data.points[:, 0], [0, 0, 0], atol=1e-12)

    def test_nearly_constant_column_not_blown_up(self):
        # constant up to representation noise must behave like a constant
        data = standardize(DataMatrix.from_points([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]]))
        assert np.max(np.abs(data.points[:, 0])) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        once = standardize(DataMatrix.from_points(rng.normal(2.0, 3.0, size=(30, 4))))
        twice = standardize(once)
        assert np.max(np.abs(twice.points - once.points)) <= 1e-12

    def test_sample_moments(self):
        rng = np.random.default_rng(6)
        data = standardize(DataMatrix.from_points(rng.normal(5.0, 0.5, size=(25, 3))))
        np.testing.assert_allclose(data.points.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(data.points.std(axis=0, ddof=1), 1, atol=1e-12)

    def test_data_unit_does_not_matter(self, iris_raw):
        # columns in a tiny unit vary; they must be scaled, not read as constant
        tiny = standardize(DataMatrix.from_points(iris_raw.points * 1e-14))
        assert np.max(np.abs(tiny.points - standardize(iris_raw).points)) <= 1e-12

    # squares of the centred values leave the float range beyond about 1e+-154
    def test_extreme_scales(self, iris_raw):
        base = np.random.default_rng(7).normal(size=(20, 2))
        for scale in (1e160, 1e300, 1e-160, 1e-300):
            data = standardize(DataMatrix.from_points(base * scale))
            assert np.max(np.abs(data.points.std(axis=0, ddof=1) - 1.0)) <= 1e-12, scale
        # in range, the direct formula's bits; a constant column, whose std
        # is 0, takes the power-of-two rescale, which is exact
        centered = iris_raw.points - iris_raw.points.mean(axis=0)
        direct = centered / centered.std(axis=0, ddof=1)
        assert standardize(iris_raw).points.tobytes() == direct.tobytes()
        padded = standardize(DataMatrix.from_points(np.column_stack([iris_raw.points,
                                                                     np.full(150, 5.0)])))
        assert padded.points[:, :4].tobytes() == direct.tobytes()

    def test_sq_norms_recomputed(self):
        data = standardize(DataMatrix.from_points([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0]]))
        expect = np.einsum("ij,ij->i", data.points, data.points)
        assert np.max(np.abs(data.sq_norms - expect)) == 0.0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            standardize(DataMatrix.from_points([[1.0, 2.0]]))
