"""Row-stochastic membership matrices and their elementwise powers.

A membership matrix F assigns every data point a distribution over c
clusters: entries in [0, 1], each row summing to 1. The solvers work with
G, the elementwise r-th power of F, whose per-cluster column sums act as
cluster masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import _integer, _own_matrix, _real
from .exceptions import DegenerateClusterError

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MembershipMatrix:
    """n x c matrix of cluster memberships, one simplex row per point.

    Construction checks shape and finiteness and holds the values read-only:
    as given if read-only with their own memory, else as a copy. Use
    :func:`validate` to diagnose simplex violations (it must be callable on
    broken input). A single-cluster matrix is constructible for
    hand-checkable reference computations, but every production entry
    point (:func:`init_random`, the solvers) requires c >= 2.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _own_matrix(self.values, "membership values"))
        _check_finite(self.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_values(cls, values) -> "MembershipMatrix":
        return cls(np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class PowerMembership:
    """Elementwise r-th power G of a membership matrix, with column sums.

    ``col_sums[j]``, cluster j's effective mass, is computed at construction
    from ``values``; every center and objective formula divides by it, so a
    non-finite sum is rejected as malformed and a zero column as a degenerate
    cluster. ``values`` is held as in :class:`MembershipMatrix`: no stale sums.
    """

    values: np.ndarray
    col_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _own_matrix(self.values, "powered membership values"))
        sums = _column_sums(self.values)
        sums.setflags(write=False)
        object.__setattr__(self, "col_sums", sums)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_values(cls, values) -> "PowerMembership":
        return cls(np.asarray(values, dtype=np.float64))


def _check_finite(values: np.ndarray) -> None:
    """:class:`MembershipMatrix`'s rule on an array: a ValueError unless every value is finite."""
    if not np.isfinite(values).all():
        raise ValueError("membership values must be finite")


def _column_sums(values: np.ndarray) -> np.ndarray:
    """Column sums of powered memberships, by :class:`PowerMembership`'s rule.

    Summed without BLAS, so their bits do not follow its thread count. A
    non-finite sum is a ValueError, a zero column a DegenerateClusterError.
    """
    sums = np.einsum("ij->j", values)
    if not 0.0 < np.minimum.reduce(sums) <= np.maximum.reduce(sums) < np.inf:  # False on NaN
        if not np.isfinite(sums).all():
            raise ValueError(f"powered membership values must be finite, column sums {sums.tolist()}")
        raise DegenerateClusterError(f"cluster(s) {np.flatnonzero(sums <= 0.0).tolist()} "
                                     "have zero mass (column sum of g is 0)")
    return sums


def init_random(n: int, c: int, seed: int) -> MembershipMatrix:
    """Draw each row independently from the flat Dirichlet on the simplex.

    Implemented as normalized i.i.d. exponentials from a seeded PCG64
    stream, so identical ``(n, c, seed)`` give bitwise-identical matrices.
    """
    _integer(n, "n", 1)
    _integer(c, "c", 2)
    _integer(seed, "seed", 0)
    exp = np.random.default_rng(seed).standard_exponential(size=(n, c))
    exp /= exp.sum(axis=1, keepdims=True)
    exp.setflags(write=False)
    return MembershipMatrix(exp)


def to_power(F: MembershipMatrix, r: float) -> PowerMembership:
    """Compute G with g_ij = f_ij ** r and the per-cluster column sums."""
    _real(r, "r", 1.0)
    values = F.values ** r
    values.setflags(write=False)
    return PowerMembership(values)


@dataclass(frozen=True)
class MembershipReport:
    """Diagnostic summary of how close a matrix is to the constraint set."""

    max_row_sum_deviation: float
    min_entry: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"membership {status}: max row-sum deviation {self.max_row_sum_deviation:.3e} "
                f"(tol {ROW_SUM_TOL:.1e}), min entry {self.min_entry:.3e}")


def validate(F: MembershipMatrix) -> MembershipReport:
    """Report the worst row-sum deviation and the smallest entry.

    Pure diagnostic: never raises. Passes when every row sum is within
    ``ROW_SUM_TOL`` of 1 and no entry is negative, since ``f ** r`` needs
    f >= 0. This is the solvers' rule for a start's memberships.
    """
    dev = float(np.max(np.abs(F.values.sum(axis=1) - 1.0)))
    min_entry = float(F.values.min())
    passed = dev <= ROW_SUM_TOL and min_entry >= 0.0
    return MembershipReport(dev, min_entry, passed)

