"""Row-stochastic membership matrices and their elementwise powers.

A membership matrix F assigns every data point a distribution over c
clusters: entries in [0, 1], each row summing to 1. The solvers work with
G, the elementwise r-th power of F, whose per-cluster column sums act as
cluster masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import _require_counts, _require_matrix
from .exceptions import DegenerateClusterError

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class MembershipMatrix:
    """n x c matrix of cluster memberships, one simplex row per point.

    Construction only checks shape and finiteness; use :func:`validate`
    to diagnose simplex violations (it must be callable on broken input).
    A single-cluster matrix is constructible for hand-checkable reference
    computations, but every production entry point (:func:`init_random`,
    the solvers) requires c >= 2.
    """

    values: np.ndarray

    def __post_init__(self):
        _require_matrix(self.values, "membership values")
        if self.values.shape[1] < 1:
            raise ValueError("membership matrix needs at least one cluster column")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("membership values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_values(cls, values) -> "MembershipMatrix":
        arr = np.array(values, dtype=np.float64, order="C")
        arr.setflags(write=False)
        return cls(arr)


@dataclass(frozen=True)
class PowerMembership:
    """Elementwise r-th power G of a membership matrix, with column sums.

    ``col_sums[j]`` is the effective mass of cluster j, computed at
    construction from ``values``; every center and objective formula
    divides by it, so a zero column is rejected at construction, however
    G is built, as a degenerate cluster. The array given at construction
    is made read-only, so the sums cannot go stale.
    """

    values: np.ndarray
    col_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        _require_matrix(self.values, "powered membership values")
        self.values.setflags(write=False)
        sums = np.ones(self.n) @ self.values
        sums.setflags(write=False)
        object.__setattr__(self, "col_sums", sums)
        dead = np.flatnonzero(sums <= 0.0)
        if dead.size:
            raise DegenerateClusterError(
                f"cluster(s) {dead.tolist()} have zero mass (column sum of g is 0)")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_values(cls, values) -> "PowerMembership":
        return cls(np.array(values, dtype=np.float64, order="C"))


def init_random(n: int, c: int, seed: int) -> MembershipMatrix:
    """Draw each row independently from the flat Dirichlet on the simplex.

    Implemented as normalized i.i.d. exponentials from a seeded PCG64
    stream, so identical ``(n, c, seed)`` give bitwise-identical matrices.
    """
    _require_counts(n=n, c=c, seed=seed)
    if n < 1:
        raise ValueError("need at least one point")
    if c < 2:
        raise ValueError(f"need at least 2 clusters, got {c}")
    rng = np.random.default_rng(seed)
    exp = rng.standard_exponential(size=(n, c))
    return MembershipMatrix.from_values(exp / exp.sum(axis=1, keepdims=True))


def to_power(F: MembershipMatrix, r: float) -> PowerMembership:
    """Compute G with g_ij = f_ij ** r and the per-cluster column sums."""
    if not r > 1.0:
        raise ValueError(f"fuzziness exponent must exceed 1, got {r}")
    return PowerMembership(F.values ** r)


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
    ``ROW_SUM_TOL`` of 1 and no entry is below ``-ENTRY_TOL`` (tiny
    negative rounding noise is tolerated).
    """
    dev = float(np.max(np.abs(F.values.sum(axis=1) - 1.0)))
    min_entry = float(F.values.min())
    passed = dev <= ROW_SUM_TOL and min_entry >= -ENTRY_TOL
    return MembershipReport(dev, min_entry, passed)


def dump_csv(F: MembershipMatrix, path) -> None:
    """Write the membership matrix as CSV at full double precision.

    One row per point, one column per cluster, each value printed with
    the shortest representation that round-trips exactly, for
    cross-implementation comparison.
    """
    with open(path, "w") as fh:
        for row in F.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
