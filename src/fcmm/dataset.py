"""Dataset ingestion: CSV loading, synthetic blob generation, standardization.

All loaders produce a :class:`DataMatrix`, which stores one point per row
and the squared Euclidean norm of every row. The squared norms are reused
by every membership update, so the constructor computes them exactly once.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Columns whose sample standard deviation falls below this (relative to the
# column mean, with a unit floor) are treated as constant and only centered.
_ZERO_VARIANCE_RTOL = 1e-13


def _require_counts(**values) -> None:
    """Raise ValueError unless each value is a non-negative integer (not a bool)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _require_matrix(value, name) -> None:
    """Raise ValueError unless ``value`` is a 2-D float64 ndarray; reads no data."""
    if not isinstance(value, np.ndarray) or value.dtype != np.float64:
        raise ValueError(f"{name} must be a float64 ndarray, "
                         f"got {getattr(value, 'dtype', type(value).__name__)}")
    if value.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array")


@dataclass(frozen=True)
class DataMatrix:
    """n data points in d dimensions with their squared row norms.

    Attributes
    ----------
    points : ndarray, shape (n, d)
        One data point per row. A read-only float64 copy of the array
        given at construction, so the caller's array may change freely.
    sq_norms : ndarray, shape (n,)
        ``sq_norms[i]`` is the dot product of row i with itself, computed
        at construction from ``points``. Read-only.
    """

    points: np.ndarray
    sq_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        _require_matrix(self.points, "points")
        pts = np.array(self.points, order="C")
        pts.setflags(write=False)
        sq = np.einsum("ij,ij->i", pts, pts)
        sq.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sq_norms", sq)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_points(cls, points) -> "DataMatrix":
        """Build a DataMatrix from raw coordinates, validating finiteness."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need at least one point and one feature, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ValueError(f"non-finite value at point {bad[0]}, feature {bad[1]}")
        return cls(pts)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic dataset of Gaussian blobs.

    Identical specs produce bitwise-identical datasets: blob centers are
    drawn uniformly in ``[-blob_center_scale, blob_center_scale]^dim`` and
    then each blob's points around its center, all from one seeded PCG64
    stream.
    """

    blob_count: int
    points_per_blob: int
    dim: int
    blob_stddev: float = 1.0
    blob_center_scale: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _require_counts(blob_count=self.blob_count, points_per_blob=self.points_per_blob,
                        dim=self.dim, seed=self.seed)
        if self.blob_count < 1:
            raise ValueError("blob_count must be positive")
        if self.points_per_blob < 1:
            raise ValueError("points_per_blob must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.blob_stddev > 0:
            raise ValueError("blob_stddev must be positive")
        if not self.blob_center_scale > 0:
            raise ValueError("blob_center_scale must be positive")


def make_blobs(spec: SyntheticSpec) -> DataMatrix:
    """Generate Gaussian blobs deterministically from a :class:`SyntheticSpec`.

    Points are laid out blob by blob: rows ``[k * points_per_blob,
    (k + 1) * points_per_blob)`` belong to blob k.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-spec.blob_center_scale, spec.blob_center_scale,
                          size=(spec.blob_count, spec.dim))
    blocks = [
        centers[k] + rng.normal(0.0, spec.blob_stddev, size=(spec.points_per_blob, spec.dim))
        for k in range(spec.blob_count)
    ]
    return DataMatrix.from_points(np.vstack(blocks))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, drop_columns: Iterable[int] = ()) -> DataMatrix:
    """Load a plain comma-separated numeric file into a :class:`DataMatrix`.

    Comma delimiter only, '.' decimal point. Blank lines and a UTF-8
    byte-order mark are skipped. ``drop_columns`` holds 0-based indices of
    columns to exclude (labels, ids). The first non-empty row is a header
    when none of its kept cells parses as a number, and data otherwise;
    every data row must have the first row's column count. Row/column
    positions in error messages are 1-based and count data rows, i.e. a
    header row is not counted.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(filter(None, csv.reader(fh)))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    width = len(rows[0])
    drop = set(drop_columns)
    bad_drop = [j for j in drop if j < 0 or j >= width]
    if bad_drop:
        raise ValueError(f"{path}: drop column {min(bad_drop)} out of range for {width} columns")
    kept = [j for j in range(width) if j not in drop]
    if not kept:
        raise ValueError(f"{path}: all {width} columns dropped, nothing to load")
    if not any(_is_number(rows[0][j]) for j in kept):
        del rows[0]
        if not rows:
            raise ValueError(f"{path}: no data rows")

    out = np.empty((len(rows), len(kept)))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} columns, expected {width}")
        for k, j in enumerate(kept):
            cell = row[j]
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {i + 1}, column {j + 1}: not a number: {cell!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-finite value: {cell!r}")
            out[i, k] = value
    return DataMatrix.from_points(out)


def standardize(data: DataMatrix) -> DataMatrix:
    """Return a copy with each feature rescaled to sample mean 0, sample std 1.

    Uses the sample standard deviation (denominator n - 1, hence the n >= 2
    precondition). Columns that are constant, up to floating-point noise,
    are centered only. Idempotent to within rounding.
    """
    if data.n < 2:
        raise ValueError(f"standardize needs at least 2 points, got {data.n}")
    mean = data.points.mean(axis=0)
    centered = data.points - mean
    std = centered.std(axis=0, ddof=1)
    scale = np.where(std > _ZERO_VARIANCE_RTOL * (1.0 + np.abs(mean)), std, 1.0)
    return DataMatrix.from_points(centered / scale)
