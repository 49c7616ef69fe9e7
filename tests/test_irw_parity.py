"""solve_irw_fcm against a plain double loop of the public single steps.

The solver runs inner steps 2.. on arrays; the reference below runs every
step through the public records, as the double loop reads in the paper:
``update_membership_mm``, then ``update_membership_irw`` at the scalars of
``irw_auxiliary`` until no membership moves by more than ``INNER_TOL`` or
the cap is hit, with ``to_power`` after each step. The two must agree
bitwise.
"""

import numpy as np
import pytest

from fcmm import solvers
from fcmm.cli import SYNTHETIC_PRESETS
from fcmm.dataset import DataMatrix, SyntheticSpec, make_blobs, standardize
from fcmm.exceptions import DegenerateClusterError
from fcmm.membership import init_random, to_power
from fcmm.objective import aggregates, phi
from fcmm.solvers import (INNER_TOL, SolverConfig, irw_auxiliary, solve_irw_fcm,
                          update_membership_irw, update_membership_mm)


def irw_step(data, G, s, r):
    """``update_membership_irw``, checked bitwise against its definition: the
    expanded brackets at the centers ``s_j y_j / |y_j|``, handed to the kernel
    as ``-2 s_j y_j / |y_j|`` (exactly -2 times them), constant term ``s_j^2``
    with its maximum, the near-center skip bound ``1e-4 (max_i x_i.x_i + max_j s_j^2)``
    and the ones that sum a row, all built here by formula; the record holds the
    kernel's G, which ``to_power`` returns."""
    F = update_membership_irw(data, G, s, r)
    agg = aggregates(data, G)
    centers = agg.y * (s / np.sqrt(agg.quad))[:, None]
    scaled = agg.y * (-2.0 * s / np.sqrt(agg.quad))[:, None]
    assert scaled.tobytes() == (-2.0 * centers).tobytes()
    top = (s * s).max()
    bound = 1e-4 * (data.sq_norms.max() + top)
    terms = ((s * s)[:, None], top, bound, np.ones(s.size))
    values, powered = solvers._classic_values(data, scaled, terms, r)
    assert F.values.tobytes() == values.tobytes()
    assert to_power(F, r).values.tobytes() == powered.tobytes()
    return F


def reference_irw(data, F0, cfg):
    """(F, objective, trace rows, termination) of the double loop, one record per step.

    A trace row is (outer iteration, objective, membership updates, inner steps).
    """
    G = to_power(F0, cfg.r)
    F, obj = F0, phi(data, G)
    rows, updates = [(0, obj, 0, 0)], 0
    for it in range(1, cfg.max_outer_iters + 1):
        try:
            F_prev, F_in = F, update_membership_mm(data, G, cfg.r)
            G_in = to_power(F_in, cfg.r)
            inner, s = 1, None
            while (inner < cfg.max_inner_iters
                   and np.abs(F_in.values - F_prev.values).max() > INNER_TOL):
                s = irw_auxiliary(data, G) if s is None else s
                F_prev, F_in = F_in, irw_step(data, G_in, s, cfg.r)
                G_in = to_power(F_in, cfg.r)
                inner += 1
        except DegenerateClusterError:
            return F, obj, rows, "degenerate"
        updates += inner
        obj_new = phi(data, G_in)
        rows.append((it, obj_new, updates, inner))
        converged = abs(obj_new - obj) <= cfg.outer_tol * abs(obj)
        F, G, obj = F_in, G_in, obj_new
        if converged:
            return F, obj, rows, "converged"
    return F, obj, rows, "max_iters"


def assert_parity(data, F0, cfg):
    result = solve_irw_fcm(data, F0, cfg)
    F, obj, rows, termination = reference_irw(data, F0, cfg)
    assert result.termination == termination
    assert result.F_final.values.tobytes() == F.values.tobytes()
    assert result.objective_final.hex() == obj.hex()
    assert [(rec.outer_iter, rec.objective.hex(), rec.membership_updates, rec.inner_iters)
            for rec in result.trace.records] == [
        (it, o.hex(), updates, inner) for it, o, updates, inner in rows]
    return result


def test_iris_starts(iris_data):
    for seed in range(40):
        assert_parity(iris_data, init_random(iris_data.n, 3, seed), SolverConfig(c=3, seed=seed))


@pytest.mark.parametrize("max_inner", [2, 5, 100])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_blobs_small(r, max_inner):
    data = standardize(make_blobs(SyntheticSpec(seed=0, **SYNTHETIC_PRESETS["blobs-small"])))
    assert_parity(data, init_random(data.n, 3, 0),
                  SolverConfig(c=3, r=r, max_inner_iters=max_inner))


def test_more_than_one_row_block():
    rng = np.random.default_rng(3)
    n = 2 * solvers._BLOCK_ROWS + 1000
    data = DataMatrix.from_points(rng.normal(size=(n, 3)) + rng.normal(scale=3.0, size=(3, 3))[
        rng.integers(0, 3, size=n)])
    result = assert_parity(data, init_random(n, 3, 1), SolverConfig(c=3, max_outer_iters=2))
    assert result.trace.records[1].inner_iters >= 2


def test_near_center_recompute_on_later_inner_steps(monkeypatch):
    # Offset data: the near-center bound 1e-4 (x_i.x_i + s_j^2) grows with the
    # offset, so rows near their re-weighting center take the difference-form
    # recompute on inner steps 2.., at the centers the kernel recovers from -2 s_j y_j/|y_j|
    data = standardize(make_blobs(SyntheticSpec(seed=0, **SYNTHETIC_PRESETS["blobs-small"])))
    data = DataMatrix.from_points(data.points + 1e3)
    F0, cfg = init_random(data.n, 3, 0), SolverConfig(c=3, max_outer_iters=3)
    step, recomputed_at = [0], []
    classic, kernel = solvers.update_membership_classic, solvers._classic_values
    near_center, sq_distances = solvers._near_center, solvers._sq_distances

    def spied_classic(*args):  # the MM step, inner step 1
        step[0] = 0
        return classic(*args)

    def spied_kernel(*args):
        step[0] += 1
        return kernel(*args)

    def spied_near_center(*args):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_sq_distances",
                          lambda *a: calls.append(1) or sq_distances(*a))
            low = near_center(*args)
        recomputed_at.extend([step[0]] * len(calls))
        return low

    with monkeypatch.context() as patch:
        for name, spy in [("update_membership_classic", spied_classic),
                          ("_classic_values", spied_kernel), ("_near_center", spied_near_center)]:
            patch.setattr(solvers, name, spy)
        solve_irw_fcm(data, F0, cfg)
    assert max(recomputed_at) >= 2
    assert assert_parity(data, F0, cfg).trace.records[1].inner_iters >= 2


def _one_inf(values):
    values[0, 0] = np.inf
    return values


class TestDegenerateInnerSteps:
    """A collapse on an inner step ends the solve as the double loop's would."""

    @pytest.mark.parametrize("max_inner", [1, 2, 100])
    def test_all_zero_data_degenerates_at_a_second_step(self, max_inner):
        data, F0 = DataMatrix.from_points(np.zeros((6, 2))), init_random(6, 3, 1)
        result = assert_parity(data, F0, SolverConfig(c=3, max_inner_iters=max_inner))
        if max_inner == 1:
            assert result.termination == "converged"
        else:  # the last valid state is the start, with its record alone
            assert result.termination == "degenerate"
            assert result.F_final.values.tobytes() == F0.values.tobytes()
            assert len(result.trace) == 1

    @staticmethod
    def spoil_second_update(monkeypatch, spoil):
        """Pass both arrays of the kernel's second call (the first re-weighting
        step), F and G, through ``spoil``."""
        calls = []
        kernel = solvers._classic_values

        def spoiled(*args):
            arrays = kernel(*args)
            calls.append(1)
            return tuple(map(spoil, arrays)) if len(calls) == 2 else arrays

        monkeypatch.setattr(solvers, "_classic_values", spoiled)

    def test_zero_mass(self, iris_data, monkeypatch):
        def zero_column(array):
            array[:, 1] = 0.0
            return array

        self.spoil_second_update(monkeypatch, zero_column)
        F0 = init_random(iris_data.n, 3, 0)
        result = solve_irw_fcm(iris_data, F0, SolverConfig(c=3))
        assert result.termination == "degenerate"
        assert result.F_final is F0 and len(result.trace) == 1

    @pytest.mark.parametrize("spoil, message, max_inner", [
        (lambda values: values * np.nan, "membership values must be finite", 100),
        # finite memberships whose powered column sums overflow
        pytest.param(lambda array: array * 1e308, "powered membership values must be finite",
                     100, marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
        # anchored: the step itself refuses them, before to_power's column sums
        (_one_inf, "^membership values must be finite$", 100),
        # the spoiled step is the last the cap allows, so no later stop test reads it
        (lambda values: values * np.nan, "^membership values must be finite$", 2),
    ], ids=["memberships", "mass", "one-inf", "memberships-at-cap"])
    def test_non_finite(self, iris_data, monkeypatch, spoil, message, max_inner):
        self.spoil_second_update(monkeypatch, spoil)
        with pytest.raises(ValueError, match=message):
            solve_irw_fcm(iris_data, init_random(iris_data.n, 3, 0),
                          SolverConfig(c=3, max_inner_iters=max_inner))
