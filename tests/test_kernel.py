"""The shared closed-form membership kernel and the expanded-form brackets.

The kernel takes the reciprocal at r = 2 and a row-min-scaled power
otherwise; the log-space formula it replaced is kept here as the
reference it must reproduce. The updates have no length scale, so
scaling the data must not move them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fcmm.dataset import DataMatrix
from fcmm.membership import MembershipMatrix, to_power
from fcmm.objective import aggregates, compute_centers
from fcmm.oracle import run_suite
from fcmm.solvers import (_memberships_from_brackets, irw_auxiliary,
                          update_membership_classic, update_membership_irw,
                          update_membership_mm)

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


class TestKernelMatchesLogSpace:
    @settings(max_examples=300, deadline=None)
    @given(brackets=bracket_matrices(), r=st.sampled_from(R_VALUES))
    def test_agrees_with_reference(self, brackets, r):
        F = _memberships_from_brackets(brackets, r)
        reference = log_space_reference(brackets, r)
        split = (brackets <= 0.0).any(axis=1)
        np.testing.assert_array_equal(F.values[split], reference[split])
        assert np.max(np.abs(F.values - reference), initial=0.0) <= 1e-13
        assert np.max(np.abs(F.values.sum(axis=1) - 1.0)) <= 1e-14

    def test_reciprocal_overflow_falls_back_to_scaled_route(self):
        # the smallest bracket's reciprocal overflows (1 / 2e-310 = inf),
        # so r = 2 must take the row-min route
        brackets = np.array([[2e-310, 1e-309]])
        F = _memberships_from_brackets(brackets, 2.0)
        assert np.all(np.isfinite(F.values))
        assert abs(F.values.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(F.values, log_space_reference(brackets, 2.0),
                                   rtol=0, atol=1e-13)


def _offset_instance(r, gap=5e-7):
    """Points near 1e3 whose first point sits ``gap`` from the MM center 0."""
    rng = np.random.default_rng(3)
    points = 1e3 + rng.normal(size=(30, 2))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=30))
    G = to_power(F, r)
    for _ in range(30):  # the center moves with point 0; this contracts
        center = compute_centers(aggregates(DataMatrix.from_points(points), G))[0]
        points[0] = center + [gap, 0.0]
    return DataMatrix.from_points(points), G


class TestNearCenterBrackets:
    @pytest.mark.parametrize("r", [2.0, 1.5])
    def test_offset_data_mm_matches_classic(self, r):
        data, G = _offset_instance(r)
        centers = compute_centers(aggregates(data, G))
        assert np.sum((data.points[0] - centers[0]) ** 2) < 1e-12
        F_mm = update_membership_mm(data, G, r)
        F_cl = update_membership_classic(data, centers, r)
        assert np.max(np.abs(F_mm.values - F_cl.values)) <= 1e-12

    @pytest.mark.parametrize("seed", [12, 40])
    def test_full_battery_classic_coincidence(self, seed):
        report = next(rep for rep in run_suite("full", seed)
                      if rep.check_name == "classic_coincidence")
        assert report.passed, report


UPDATES = {
    "mm": update_membership_mm,
    "irw": lambda data, G, r: update_membership_irw(data, G, irw_auxiliary(data, G), r),
    "classic": lambda data, G, r: update_membership_classic(
        data, compute_centers(aggregates(data, G)), r),
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
