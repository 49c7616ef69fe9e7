"""The shared closed-form membership kernel and the expanded-form brackets.

The kernel takes the reciprocal at r = 2 and a row-min-scaled power
otherwise; the log-space formula it replaced is kept here as the
reference it must reproduce. The updates have no length scale, so
scaling the data must not move them, and they run in row blocks, which
must not move them either.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fcmm import solvers
from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs, standardize
from fcmm.membership import MembershipMatrix, init_random, to_power
from fcmm.objective import _sq_distances, compute_centers
from fcmm.oracle import CHECKS, SCALES, _single_step, classic_update_oracle
from fcmm.solvers import (SolverConfig, _memberships_from_brackets, irw_auxiliary,
                          solve_fcm_mm, solve_irw_fcm, update_membership_classic,
                          update_membership_irw, update_membership_mm)

R_VALUES = (1.05, 1.2, 1.5, 2.0, 3.0, 20.0, 200.0)


def log_space_reference(brackets, r):
    """bracket^(1/(1-r)) per row through log/exp with the row max subtracted."""
    near = brackets <= 0.0
    values = np.empty_like(brackets)
    split = near.any(axis=1)
    regular = ~split
    if np.any(regular):
        logw = np.log(brackets[regular]) * (1.0 / (1.0 - r))
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        values[regular] = w / w.sum(axis=1, keepdims=True)
    if np.any(split):
        hits = near[split]
        values[split] = hits / hits.sum(axis=1, keepdims=True)
    return values


@st.composite
def bracket_matrices(draw):
    """Brackets spanning e^-20..e^20, a few zero, negative or tiny."""
    n = draw(st.integers(1, 8))
    c = draw(st.integers(2, 6))
    logs = draw(hnp.arrays(np.float64, (n, c), elements=st.floats(-20.0, 20.0)))
    brackets = np.exp(logs)
    specials = st.tuples(st.integers(0, n - 1), st.integers(0, c - 1),
                         st.sampled_from([0.0, -1e-9, -3.0, 1e-13]))
    for i, j, value in draw(st.lists(specials, max_size=3)):
        brackets[i, j] = value
    # the solvers hand the kernel column-major brackets; both layouts must agree
    return np.asfortranarray(brackets) if draw(st.booleans()) else brackets


def run_kernel(brackets, r):
    """F and G = F^r from the kernel into column-major results, as the blocked
    update calls it: the kernel writes G at r != 2, the update takes F * F at r = 2."""
    out = np.empty(brackets.shape, order="F")
    powered = None if r == 2.0 else np.empty(brackets.shape, order="F")
    row_min = brackets.min(axis=1)
    F = _memberships_from_brackets(brackets, row_min, float(row_min.min()), r, out, powered,
                                   np.ones(brackets.shape[1]))
    return F, F * F if powered is None else powered


class TestKernelMatchesLogSpace:
    @settings(max_examples=300, deadline=None)
    @given(brackets=bracket_matrices(), r=st.sampled_from(R_VALUES))
    def test_agrees_with_reference(self, brackets, r):
        F, _ = run_kernel(brackets, r)
        reference = log_space_reference(brackets, r)
        split = (brackets <= 0.0).any(axis=1)
        np.testing.assert_array_equal(F[split], reference[split])
        assert np.max(np.abs(F - reference), initial=0.0) <= 1e-13
        assert np.max(np.abs(F.sum(axis=1) - 1.0)) <= 1e-14

    def test_reciprocal_overflow_falls_back_to_scaled_route(self):
        # the smallest bracket's reciprocal overflows (1 / 2e-310 = inf),
        # so r = 2 must take the row-min route
        brackets = np.array([[2e-310, 1e-309]])
        F, _ = run_kernel(brackets, 2.0)
        assert np.all(np.isfinite(F))
        assert abs(F.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(F, log_space_reference(brackets, 2.0),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_reciprocal_guard_at_the_overflow_edge(self, step):
        # the smallest bracket at c / DBL_MAX and its neighbours: r = 2 takes the
        # reciprocal exactly when c / low is finite, and warns on neither route
        c = 3
        low = c / np.finfo(np.float64).max
        for _ in range(abs(step)):
            low = np.nextafter(low, step * np.inf)
        brackets = np.array([[low, 1.0, 2.0], [3.0, 7.0, 11.0]])
        reciprocal = 1.0 / brackets
        scaled = brackets.min(axis=1, keepdims=True) / brackets
        routes = {route: v / (v @ np.ones(c))[:, None]
                  for route, v in (("reciprocal", reciprocal), ("scaled", scaled))}
        assert (routes["reciprocal"] != routes["scaled"]).any()  # the routes are told apart
        with np.errstate(over="ignore"):
            expected = "reciprocal" if np.isfinite(c / low) else "scaled"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, _ = run_kernel(brackets, 2.0)
        np.testing.assert_array_equal(F, routes[expected])
        assert np.max(np.abs(F - log_space_reference(brackets, 2.0))) <= 1e-13


POWER_R = (1.05, 1.2, 1.5, 2.0, 3.0, 20.0, 150.0, 200.0)
EPS = np.finfo(np.float64).eps


@st.composite
def power_brackets(draw):
    """:func:`bracket_matrices`, now and then with a bracket below the floor
    ``c / DBL_MAX`` under which the r = 2 reciprocal would overflow."""
    brackets = draw(bracket_matrices())
    if draw(st.booleans()):
        brackets[draw(st.integers(0, brackets.shape[0] - 1)),
                 draw(st.integers(0, brackets.shape[1] - 1))] = 2e-310
    return brackets


class TestKernelPower:
    """G = F^r, written beside F from the kernel's own ratios."""

    @settings(max_examples=400, deadline=None)
    @given(brackets=power_brackets(), r=st.sampled_from(POWER_R))
    def test_within_the_docstring_bound_of_f_to_the_r(self, brackets, r):
        F, G = run_kernel(brackets, r)
        want = F ** r
        split = (brackets <= 0.0).any(axis=1)
        np.testing.assert_array_equal(G[split], want[split])
        if r == 2.0:
            assert G.tobytes() == want.tobytes()
        log_f = np.log(F, out=np.zeros_like(F), where=F > 0.0)  # G = f ** r = 0 at f = 0
        c = brackets.shape[1]
        bound = (2 * (r + 1) + (r - 1) * (np.abs(log_f) + 2 * np.log(c))) * EPS * want
        assert np.all(np.abs(G - want) <= bound + 16 * np.finfo(np.float64).smallest_subnormal)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="no extended precision")
    @pytest.mark.parametrize("r", [r for r in POWER_R if r != 2.0])
    def test_no_less_accurate_than_f_to_the_r(self, r):
        # against the update in extended precision, over 20,000 rows of brackets
        # e^-20..e^20: G's worst relative error is that of F ** r, up to its extra
        # multiplies' rounding
        brackets = np.exp(np.random.default_rng(11).uniform(-20.0, 20.0, size=(4000, 5)))
        F, G = run_kernel(brackets, r)
        long = brackets.astype(np.longdouble)
        w = (long.min(axis=1, keepdims=True) / long) ** (1 / (np.longdouble(r) - 1))
        exact = (w / w.sum(axis=1, keepdims=True)) ** np.longdouble(r)
        normal = exact > np.finfo(np.float64).tiny / EPS

        def worst(approx):
            return float(np.max(np.abs(approx[normal] - exact[normal]) / exact[normal]))

        assert worst(G) <= worst(F ** r) + 2 * EPS

    @pytest.mark.parametrize("r", [1.2, 2.0, 3.0])
    def test_update_holds_the_kernels_g(self, iris_data, r):
        # at r = 2 the update's G is F * F, bitwise F ** 2; elsewhere the
        # kernel's, which to_power returns for that r alone
        centers = iris_data.points[[0, 60, 120]]
        F = update_membership_classic(iris_data, centers, r)
        center_sq = np.einsum("cd,cd->c", centers, centers)
        values, powered = solvers._classic_values(
            iris_data, -2.0 * centers, solvers._bracket_terms(iris_data, center_sq), r)
        assert F.values.tobytes() == values.tobytes()
        assert to_power(F, r).values.tobytes() == powered.tobytes()
        if r == 2.0:
            assert powered.tobytes() == (values ** 2.0).tobytes()
        else:
            assert powered.tobytes() != (values ** r).tobytes()  # the held G, not a new power
        assert powered.flags.f_contiguous
        for other in (1.5, 2.0):
            if other != r:
                assert to_power(F, other).values.tobytes() == (values ** other).tobytes()
        copy = MembershipMatrix.from_values(F.values)
        assert copy == F and repr(copy) == repr(F)
        assert to_power(copy, r).values.tobytes() == (values ** r).tobytes()


def test_numpy_power_two_is_bitwise_x_times_x():
    # the r = 2 contract (G = F * F is bitwise F ** 2) rests on numpy's x ** 2.0
    # fast path; a numpy that changes it fails here by name
    rng = np.random.default_rng(13)
    values = np.asfortranarray(rng.random((1000, 7)))
    values[::7, 0] = 0.0
    values[1::7, 1] = 1.0
    values[2::7, 2] = rng.random(143) * np.finfo(np.float64).smallest_normal  # subnormal
    values[3::7, 3] = np.finfo(np.float64).smallest_subnormal
    values[:, 4] = np.linspace(0.0, 1.0, 1000)
    values[:, 5] = np.sqrt(np.finfo(np.float64).smallest_normal) * rng.random(1000)
    square = values ** 2.0
    assert square.flags.f_contiguous
    assert square.tobytes() == (values * values).tobytes()
    assert (values[2::7] ** 2.0).tobytes() == (values[2::7] * values[2::7]).tobytes()


def _offset_instance(r, gap=5e-7, row=0):
    """Points near 1e3 whose point ``row`` sits ``gap`` from the MM center 0."""
    rng = np.random.default_rng(3)
    points = 1e3 + rng.normal(size=(30, 2))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=30))
    G = to_power(F, r)
    for _ in range(30):  # the center moves with that point; this contracts
        center = compute_centers(DataMatrix.from_points(points), G)[0]
        points[row] = center + [gap, 0.0]
    return DataMatrix.from_points(points), G


def _expanded_brackets(points, centers):
    """The kernel's c x n expanded-form brackets, in its order of operations."""
    brackets = (-2.0 * centers) @ points.T
    brackets += np.einsum("cd,cd->c", centers, centers)[:, None] + np.einsum(
        "id,id->i", points, points)
    return brackets


class TestNearCenterBrackets:
    @pytest.mark.parametrize("r", [2.0, 1.5])
    def test_point_on_center_splits_when_expanded_bracket_rounds_positive(self, r):
        # the expanded form leaves ~1e-9 where the difference form gives 0: the
        # row's minimum after the recompute, not before, must decide the route
        points = 1e3 + np.random.default_rng(0).normal(size=(40, 3))
        hits = [k for k in range(2, 40)
                if _expanded_brackets(points, points[[k, 0, 1]])[0, k] > 0.0]
        assert hits
        k = hits[0]
        centers = points[[k, 0, 1]]
        F = update_membership_classic(DataMatrix.from_points(points), centers, r).values
        np.testing.assert_array_equal(F[[k, 0, 1]], np.eye(3))
        reference = classic_update_oracle(DataMatrix.from_points(points), centers, r).values
        assert np.max(np.abs(F - reference)) <= 1e-12

    @pytest.mark.parametrize("r", [2.0, 1.5])
    def test_offset_data_mm_matches_classic(self, r):
        data, G = _offset_instance(r)
        centers = compute_centers(data, G)
        assert np.sum((data.points[0] - centers[0]) ** 2) < 1e-12
        F_mm = update_membership_mm(data, G, r)
        F_cl = classic_update_oracle(data, centers, r)
        assert np.max(np.abs(F_mm.values - F_cl.values)) <= 1e-12

    @pytest.mark.parametrize("seed", [12, 40])
    def test_full_battery_classic_coincidence(self, seed):
        # the single-step table entry on its run_suite stream: a kernel whose
        # near-center recompute is skipped fails it at both seeds
        key = next(key for key, check in CHECKS if check is _single_step)
        report = next(rep for rep in _single_step(np.random.default_rng([seed, key]),
                                                  SCALES["full"])
                      if rep.check_name == "classic_coincidence")
        assert report.passed, report


def _scan_only(brackets, row_min, points, sq_norms, centers, top):
    """The near-center step's per-row rule with no block guard; the rows it takes."""
    rows = np.flatnonzero(row_min < 1e-4 * (sq_norms + top))
    if rows.size:
        brackets[:, rows] = _sq_distances(points[rows], centers)
        row_min[rows] = brackets[:, rows].min(axis=0)
    return rows


def _guard_block(case):
    """A c x b block of expanded brackets whose smallest bracket ``case`` places
    against the guard's bound ``1e-4 (max x_i.x_i + top)``, and its inputs."""
    rng = np.random.default_rng(7)
    points = rng.normal(size=(40, 3)) + (1e3 if case == "offset" else 0.0)
    centers = points.mean(axis=0) + [[4.0, 4.0, 4.0], [-4.0, -4.0, -4.0], [4.0, -4.0, 0.0]]
    sq_norms = np.einsum("id,id->i", points, points)
    brackets = _expanded_brackets(points, centers)
    top = np.einsum("cd,cd->c", centers, centers).max()
    bound = 1e-4 * (sq_norms.max() + top)
    assert (brackets.min() < bound) == (case == "offset")
    row = sq_norms.argmin() if case == "below, smaller norm" else sq_norms.argmax()
    brackets[0, row] = {"at": bound, "nan": np.nan}.get(case, np.nextafter(bound, 0.0))
    return brackets, brackets.min(axis=0), points, sq_norms, centers, top, row


class TestNearCenterGuard:
    """The block guard skips only scans that would take no row."""

    @pytest.mark.parametrize("r", [1.5, 2.0])
    @pytest.mark.parametrize("case, taken", [
        ("at", "none"), ("below", "row"), ("below, smaller norm", "none"),
        ("offset", "all"), ("nan", "none")])
    def test_guard_is_the_per_row_rule(self, monkeypatch, case, taken, r):
        block = _guard_block(case)
        _, _, _, sq_norms, _, top, _ = block
        self.assert_per_row_rule(monkeypatch, block, 1e-4 * (sq_norms.max() + top), taken, r)

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_data_wide_bound_scans_a_block_its_own_bound_skips(self, monkeypatch, r):
        # the "at" block is the first of two; the second's points are farther out,
        # so the bound over all the data sends the first to the scan, which takes no row
        block = _guard_block("at")
        _, row_min, points, sq_norms, centers, top, _ = block
        data = DataMatrix.from_points(np.vstack([points, 2.0 * points]))
        const, built_top, bound, ones = solvers._bracket_terms(
            data, np.einsum("cd,cd->c", centers, centers))
        assert const.shape == (3, 1) and built_top == top and ones.tolist() == [1.0] * 3
        assert bound == 1e-4 * (data.sq_norms.max() + top)
        assert 1e-4 * (sq_norms.max() + top) <= row_min.min() < bound
        self.assert_per_row_rule(monkeypatch, block, bound, "none", r)

    @staticmethod
    def assert_per_row_rule(monkeypatch, block, bound, taken, r):
        """``_near_center`` at the skip bound ``bound`` leaves the block's brackets,
        ``row_min``, smallest bracket and memberships bitwise as the per-row rule does."""
        brackets, row_min, points, sq_norms, centers, top, row = block
        want_brackets, want_min = brackets.copy(), row_min.copy()
        rows = _scan_only(want_brackets, want_min, points, sq_norms, centers, top)
        assert rows.tolist() == {"none": [], "row": [row], "all": list(range(40))}[taken]
        recomputed, sq_distances = [], solvers._sq_distances

        def spy(points, centers):
            recomputed.append(points)
            return sq_distances(points, centers)
        monkeypatch.setattr(solvers, "_sq_distances", spy)
        low = solvers._near_center(brackets, row_min, points, sq_norms, -2.0 * centers, top,
                                   bound)
        assert len(recomputed) == (rows.size > 0)
        assert np.float64(low).tobytes() == want_min.min().tobytes()
        if rows.size:
            np.testing.assert_array_equal(recomputed[0], points[rows])
        assert brackets.tobytes() == want_brackets.tobytes()
        assert row_min.tobytes() == want_min.tobytes()
        got, want = (_memberships_from_brackets(b.T, m, low, r, np.empty((40, 3), order="F"),
                                                np.empty((40, 3), order="F"), np.ones(3))
                     for b, m in ((brackets, row_min), (want_brackets, want_min)))
        assert got.tobytes() == want.tobytes()


# Classic has no entry: at these centers it is the mm entry's code.
UPDATES = {
    "mm": update_membership_mm,
    "irw": lambda data, G, r: update_membership_irw(data, G, irw_auxiliary(data, G), r),
}


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-9, 1e-4, 1e4])
    @pytest.mark.parametrize("kind", sorted(UPDATES))
    def test_update_ignores_data_scale(self, kind, scale):
        # a point near a center must not snap to it just because the data is small
        update = UPDATES[kind]
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, d, c = int(rng.integers(2, 61)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
            r = float(rng.choice([1.5, 2.0, 3.0]))
            points = rng.normal(size=(n, d))
            G = to_power(MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n)), r)
            F_unit = update(DataMatrix.from_points(points), G, r)
            F_scaled = update(DataMatrix.from_points(scale * points), G, r)
            assert np.max(np.abs(F_scaled.values - F_unit.values)) <= 1e-12


def _blobs(n_per_blob):
    spec = SyntheticSpec(blob_count=4, points_per_blob=n_per_blob, dim=3, seed=0)
    return standardize(make_blobs(spec))


def _one_block(monkeypatch, data, run):
    """``run()`` with every row in one block."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_BLOCK_ROWS", data.n + 1)
        return run()


class TestRowBlocks:
    """Blocks start at multiples of ``_BLOCK_ROWS``; the last takes the rest."""

    @pytest.mark.parametrize("r", [1.2, 2.0, 3.0])
    @pytest.mark.parametrize("block_rows", [8, 16, 64])
    def test_blocked_updates_and_solves_are_bitwise_one_block(self, monkeypatch,
                                                              block_rows, r):
        data = _blobs(50)
        F0 = init_random(data.n, 4, seed=1)
        G = to_power(F0, r)
        runs = {kind: (lambda update=update: update(data, G, r).values)
                for kind, update in UPDATES.items()}
        runs["mm solve"] = lambda: solve_fcm_mm(data, F0, SolverConfig(c=4, r=r))
        runs["irw solve"] = lambda: solve_irw_fcm(
            data, F0, SolverConfig(c=4, r=r, max_outer_iters=2))
        whole = {kind: _one_block(monkeypatch, data, run) for kind, run in runs.items()}
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", block_rows)
        for kind, run in runs.items():
            blocked = run()
            if kind.endswith("solve"):
                assert blocked.objective_final.hex() == whole[kind].objective_final.hex()
                np.testing.assert_array_equal(blocked.trace.objectives(),
                                              whole[kind].trace.objectives())
                blocked, whole[kind] = blocked.F_final.values, whole[kind].F_final.values
            np.testing.assert_array_equal(blocked, whole[kind], err_msg=kind)
            assert blocked.flags.f_contiguous and not blocked.flags.writeable

    @pytest.mark.parametrize("block_rows", [8, 16, 64, 200, 201])
    def test_one_kernel_call_per_block(self, monkeypatch, block_rows):
        # the blocked tests above mean something only if the update really
        # runs in blocks of the patched size, the last taking the remainder
        data = _blobs(50)
        G = to_power(init_random(data.n, 4, seed=1), 2.0)
        sizes, kernel = [], solvers._memberships_from_brackets

        def spy(brackets, *args):
            sizes.append(brackets.shape[0])
            return kernel(brackets, *args)

        monkeypatch.setattr(solvers, "_memberships_from_brackets", spy)
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", block_rows)
        for kind, update in UPDATES.items():
            sizes.clear()
            update(data, G, 2.0)
            full, rest = divmod(data.n, block_rows)
            expected = [block_rows] * (full - 1) + [block_rows + rest] if full else [rest]
            assert sizes == expected, kind

    def test_default_block_rows_past_two_blocks(self, monkeypatch):
        data = _blobs(4100)
        data = DataMatrix.from_points(data.points[:2 * 8192 + 5])
        assert solvers._BLOCK_ROWS == 8192 and data.n == 2 * 8192 + 5
        G = to_power(init_random(data.n, 4, seed=2), 2.0)
        for kind, update in UPDATES.items():
            blocked = update(data, G, 2.0).values
            whole = _one_block(monkeypatch, data, lambda: update(data, G, 2.0).values)
            np.testing.assert_array_equal(blocked, whole, err_msg=kind)

    @pytest.mark.parametrize("r", [1.5, 2.0])
    @pytest.mark.parametrize("kind", ["mm", "classic"])
    def test_points_on_centers_in_one_block(self, monkeypatch, kind, r):
        # rows 20 and 21 (third block) are the only members of clusters 0 and 1,
        # so those centers are exactly those points; classic gets them directly
        # and is checked against the difference-form oracle, mm against one block
        data = _blobs(50)
        on = [20, 21]
        values = np.random.default_rng(4).dirichlet(np.ones(2), size=data.n)
        F = np.zeros((data.n, 4))
        F[:, 2:] = values
        F[on] = np.eye(4)[:2]
        G = to_power(MembershipMatrix.from_values(F), r)
        centers = compute_centers(data, G)
        np.testing.assert_array_equal(centers[:2], data.points[on])
        if kind == "mm":
            update = lambda: update_membership_mm(data, G, r).values
            reference, tol = _one_block(monkeypatch, data, update), 1e-15
        else:
            update = lambda: update_membership_classic(data, centers, r).values
            reference, tol = classic_update_oracle(data, centers, r).values, 1e-12
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", 8)
        blocked = update()
        np.testing.assert_array_equal(blocked[on], np.eye(4)[:2])
        np.testing.assert_array_equal(reference[on], blocked[on])
        assert np.max(np.abs(blocked - reference)) <= tol
        assert np.max(np.abs(blocked.sum(axis=1) - 1.0)) <= 1e-15
        assert blocked.min() >= 0.0

    @pytest.mark.parametrize("r", [2.0, 1.5])
    def test_near_center_point_in_later_block(self, monkeypatch, r):
        # row 20 lies in the third 8-row block, 5e-7 from center 0, near 1e3
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", 8)
        data, G = _offset_instance(r, row=20)
        centers = compute_centers(data, G)
        assert np.sum((data.points[20] - centers[0]) ** 2) < 1e-12
        F_mm = update_membership_mm(data, G, r)
        F_cl = classic_update_oracle(data, centers, r)
        assert np.max(np.abs(F_mm.values - F_cl.values)) <= 1e-12
