"""One construction rule for the three array records.

``DataMatrix``, ``MembershipMatrix`` and ``PowerMembership`` each check and
own their array in ``__post_init__``; their factories only convert the
dtype. So both routes must accept and reject the same inputs, and neither
may leave the record sharing memory that a caller can still write.
"""

import dataclasses

import numpy as np
import pytest

from fcmm import dataset, membership
from fcmm.dataset import DataMatrix, SyntheticSpec, load_csv, make_blobs, standardize
from fcmm.membership import MembershipMatrix, PowerMembership, init_random, to_power
from fcmm.solvers import update_membership_classic

RECORDS = {
    "data": (DataMatrix, DataMatrix.from_points),
    "membership": (MembershipMatrix, MembershipMatrix.from_values),
    "power": (PowerMembership, PowerMembership.from_values),
}

GOOD = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])


def _good_with(value):
    a = GOOD.copy()
    a[1, 0] = value
    return a


def _frozen_view(base):
    view = base[:, :]
    view.setflags(write=False)
    return view


# name: (input, how the caller writes afterwards to what it still holds)
CASES = {
    "nan": (lambda: _good_with(np.nan), None),
    "inf": (lambda: _good_with(np.inf), None),
    "zero-rows": (lambda: np.empty((0, 2)), None),
    "zero-columns": (lambda: np.empty((3, 0)), None),
    "1-d": (lambda: np.array([0.5, 0.5]), None),
    "int64": (lambda: np.array([[1, 0], [0, 1], [1, 1]]), None),
    "caller-array-written": (GOOD.copy, lambda given: given),
    "base-of-view-written": (lambda: GOOD.copy()[:, :], lambda given: given.base),
    "base-of-read-only-view-written": (lambda: _frozen_view(GOOD.copy()),
                                       lambda given: given.base),
}


def _arrays(record):
    return {f.name: getattr(record, f.name).tolist() for f in dataclasses.fields(record)}


def _outcome(route, case):
    """What a route makes of a case: the error, or every array the record holds."""
    make, written = CASES[case]
    given = make()
    try:
        record = route(given)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if written is not None:
        written(given)[:, 1] = 0.0
    for f in dataclasses.fields(record):
        assert not getattr(record, f.name).flags.writeable
    return _arrays(record)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("record", RECORDS)
def test_both_routes_apply_one_rule(record, case):
    cls, factory = RECORDS[record]
    direct, converted = _outcome(cls, case), _outcome(factory, case)
    if case == "int64":
        # the factory converts the dtype; direct construction takes float64 only
        assert direct[0] is ValueError and "must be a float64 ndarray, got int64" in direct[1]
        assert converted == _arrays(cls(CASES[case][0]().astype(np.float64)))
    elif CASES[case][1] is None:
        assert direct == converted and direct[0] is ValueError
    else:
        # the record keeps what it was given, with sums and norms to match
        assert direct == converted == _arrays(cls(GOOD.copy()))


@pytest.mark.parametrize("record", RECORDS)
def test_read_only_array_owning_its_memory_is_held_as_is(record):
    cls, factory = RECORDS[record]
    a = GOOD.copy()
    a.setflags(write=False)
    name = dataclasses.fields(cls)[0].name
    assert getattr(cls(a), name) is a and getattr(factory(a), name) is a


def _spy_on_own_matrix(monkeypatch, module):
    """Record every (given, held) pair that ``module``'s records pass through ``_own_matrix``."""
    held, own = [], module._own_matrix

    def spy(value, name):
        owned = own(value, name)
        held.append((value, owned))
        return owned

    monkeypatch.setattr(module, "_own_matrix", spy)
    return held


def test_solver_path_holds_its_arrays_without_a_copy(monkeypatch):
    # the kernel's fresh F and to_power's fresh G are frozen and adopted, not copied
    held = _spy_on_own_matrix(monkeypatch, membership)
    rng = np.random.default_rng(0)
    data = DataMatrix.from_points(rng.normal(size=(50, 3)))
    F = update_membership_classic(data, rng.normal(size=(4, 3)), 2.0)
    G = to_power(F, 2.0)
    assert len(held) == 2 and held[0][1] is F.values and held[1][1] is G.values
    assert all(np.shares_memory(given, owned) for given, owned in held)


SET_UP = {
    "make_blobs": (dataset, lambda path, data: make_blobs(
        SyntheticSpec(blob_count=3, points_per_blob=40, dim=4, seed=2)).points),
    "standardize": (dataset, lambda path, data: standardize(data).points),
    "load_csv": (dataset, lambda path, data: load_csv(path, drop_columns={4}).points),
    "init_random": (membership, lambda path, data: init_random(120, 3, 5).values),
}


@pytest.mark.parametrize("build", SET_UP)
def test_set_up_path_holds_its_arrays_without_a_copy(monkeypatch, iris_path, build):
    # each set-up function fills one fresh array, freezes it and hands it over as is
    data = DataMatrix.from_points(np.random.default_rng(0).normal(3.0, 2.0, size=(60, 4)))
    before = data.points.tobytes()
    module, run = SET_UP[build]
    held = _spy_on_own_matrix(monkeypatch, module)
    result = run(iris_path, data)
    assert len(held) == 1 and held[0][0] is held[0][1] is result
    assert not result.flags.writeable and result.base is None
    # standardize's input keeps its bits and shares nothing with the result
    assert data.points.tobytes() == before and not np.shares_memory(data.points, result)
