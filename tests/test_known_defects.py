"""The register of open defects: each row asserts the right behaviour and is
a strict xfail naming its ROADMAP item.

A row fails on its assertion (``raises=AssertionError``); any other error is
a real failure. A change that mends a defect, on purpose or not, turns its
row into an XPASS, which strict mode fails: the marker then goes, and the
row stays as a plain test.
"""

import numpy as np
import pytest

from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs, standardize
from fcmm.membership import init_random
from fcmm.objective import fcm_objective
from fcmm.solvers import SolverConfig, solve_fcm_mm, solve_irw_fcm


def defect(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


def blobs_1k():
    """``tall``'s recipe at 1/100 of the points, standardised; c = 10, r = 2."""
    return standardize(make_blobs(SyntheticSpec(blob_count=10, points_per_blob=100, dim=10,
                                                seed=1)))


def relative_gap(result, data, r):
    """How far the reported objective is from ``fcm_objective`` at the result."""
    reference = fcm_objective(data, result.F_final, result.centers_final, r)
    return abs(result.objective_final - reference) / reference


@defect(17, "blobs-1k start 0 ends with centers 1.2e-4 of the spread apart, "
            "reported as a plain converged run")
def test_merged_centers_are_reported():
    data = blobs_1k()
    result = solve_fcm_mm(data, init_random(data.n, 10, 0), SolverConfig(c=10))
    centers = result.centers_final
    gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=-1))
    spread = np.sqrt(result.objective_final / np.sum(result.F_final.values ** 2))
    merged = np.min(gaps[np.triu_indices(10, 1)]) < 1e-2 * spread
    # item 17 puts the coincident groups into SolverResult
    assert not merged or getattr(result, "coincident_centers", ())


@defect(15, "phi's expanded form cancels to 0.0 on hard memberships at r = 150 "
            "(4.62e-69 by the difference form)")
def test_large_r_objective_is_the_difference_form(iris_data):
    for solve in (solve_fcm_mm, solve_irw_fcm):
        result = solve(iris_data, init_random(iris_data.n, 3, 0), SolverConfig(c=3, r=150.0))
        assert relative_gap(result, iris_data, 150.0) <= 1e-12, solve.__name__


@defect(15, "10 copies of one point report an objective of -2.66e-15")
def test_objective_of_coincident_points_is_not_negative():
    data = DataMatrix.from_points(np.ones((10, 2)))
    result = solve_fcm_mm(data, init_random(10, 3, 0), SolverConfig(c=3))
    assert result.objective_final >= 0.0


@defect("9 and 15", "on blobs-1k + 1e3 the expanded form is 3.9e-10 relative off "
                    "after 30 MM iterations")
def test_offset_objective_is_the_difference_form():
    data = DataMatrix.from_points(blobs_1k().points + 1e3)
    result = solve_fcm_mm(data, init_random(data.n, 10, 0),
                          SolverConfig(c=10, max_outer_iters=30))
    assert relative_gap(result, data, 2.0) <= 1e-13


@defect(2, "data scaled by 1e-170 stops after 1 iteration as converged, "
           "0.67 away from the scale-1 memberships")
def test_tiny_scale_gives_the_scale_1_memberships():
    data = make_blobs(SyntheticSpec(3, 10, 2, seed=0))
    tiny = DataMatrix.from_points(data.points * 1e-170)
    F0, cfg = init_random(30, 3, 0), SolverConfig(c=3)
    unit, scaled = solve_fcm_mm(data, F0, cfg), solve_fcm_mm(tiny, F0, cfg)
    assert np.max(np.abs(scaled.F_final.values - unit.F_final.values)) <= 1e-12


@defect(2, "overlap start 0 stops as converged 1.0e-6 relative above its limit "
           "994.6133432527, 100 times outer_tol")
def test_converged_run_is_near_its_limit():
    data = standardize(make_blobs(SyntheticSpec(blob_count=5, points_per_blob=200, dim=5,
                                                blob_stddev=2.0, blob_center_scale=3.0,
                                                seed=2)))
    result = solve_fcm_mm(data, init_random(data.n, 5, 0), SolverConfig(c=5))
    limit = 994.6133432527
    assert (abs(result.objective_final - limit) <= 1e-7 * limit
            or result.termination != "converged")
