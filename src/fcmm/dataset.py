"""Dataset ingestion: CSV loading, synthetic blob generation, standardization.

All loaders produce a :class:`DataMatrix`, which stores one point per row
and the squared Euclidean norm of every row. The squared norms are reused
by every membership update, so the constructor computes them exactly once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Columns whose sample standard deviation is at most this times the column
# mean's magnitude are treated as constant and only centered.
_ZERO_VARIANCE_RTOL = 1e-13

# Elements per row block of standardize's passes: a block and its squares
# stay in cache, and no pass builds a second n x d temporary.
_BLOCK_ELEMENTS = 2**16

# What a count and a real number may be; bool, a subclass of int, is neither.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _integer(value, name, low) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) of at least ``low``."""
    if not (isinstance(value, _INTEGERS) and value >= low) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _real(value, name, low) -> None:
    """Raise ValueError unless ``value`` is a real number (not a bool) in ``(low, inf)``.

    The comparison is False on NaN, so NaN is rejected with infinity.
    """
    if not (isinstance(value, _REALS) and low < value < np.inf) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number > {low:g} and finite, got {value!r}")


def _own_matrix(value, name) -> np.ndarray:
    """Check that ``value`` is a non-empty 2-D float64 ndarray; return it read-only.

    Held as is if read-only with its own memory, else copied to C order and frozen.
    """
    if not isinstance(value, np.ndarray) or value.dtype != np.float64:
        raise ValueError(f"{name} must be a float64 ndarray, "
                         f"got {getattr(value, 'dtype', type(value).__name__)}")
    if value.ndim != 2 or value.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {value.shape}")
    if value.flags.writeable or value.base is not None:
        value = np.array(value, order="C")
        value.setflags(write=False)
    return value


@dataclass(frozen=True)
class DataMatrix:
    """n data points in d dimensions with their squared row norms.

    Attributes
    ----------
    points : ndarray, shape (n, d)
        One finite data point per row, read-only in C order: an array that
        is read-only, C order and owns its memory is held as is, any other
        is copied, so the caller's array may change freely.
    sq_norms : ndarray, shape (n,)
        ``sq_norms[i]`` is the dot product of row i with itself, computed
        at construction from ``points``. Read-only.
    """

    points: np.ndarray
    sq_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = _own_matrix(self.points, "points")  # a view is always copied, to C order
        pts = pts if pts.flags.c_contiguous else _own_matrix(pts[:], "points")
        sq = np.einsum("ij,ij->i", pts, pts)
        # a finite sum of squares has finite terms; NaN passes through the max,
        # and rows whose squares overflow get the elementwise check too
        if not np.maximum.reduce(sq) < np.inf and not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ValueError(f"non-finite value at point {bad[0]}, feature {bad[1]}")
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
        """Convert ``points`` to float64; the checks and any copy are the constructor's."""
        return cls(np.asarray(points, dtype=np.float64))


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
        for name in ("blob_count", "points_per_blob", "dim"):
            _integer(getattr(self, name), name, 1)
        _integer(self.seed, "seed", 0)
        _real(self.blob_stddev, "blob_stddev", 0.0)
        _real(self.blob_center_scale, "blob_center_scale", 0.0)


def make_blobs(spec: SyntheticSpec) -> DataMatrix:
    """Generate Gaussian blobs deterministically from a :class:`SyntheticSpec`.

    Points are laid out blob by blob: rows ``[k * points_per_blob,
    (k + 1) * points_per_blob)`` belong to blob k.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-spec.blob_center_scale, spec.blob_center_scale,
                          size=(spec.blob_count, spec.dim))
    out = np.empty((int(spec.blob_count) * int(spec.points_per_blob), spec.dim))  # cannot wrap
    for center, block in zip(centers, out.reshape(spec.blob_count, -1, spec.dim)):
        rng.standard_normal(out=block)  # bitwise as center + rng.normal(0.0, stddev)
        if spec.blob_stddev != 1.0:  # a product with 1.0 is exact
            block *= spec.blob_stddev
        block += center
    out.setflags(write=False)
    return DataMatrix(out)


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(filter(None, csv.reader(fh)))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    width = len(rows[0])
    drop = set(drop_columns)
    for j in drop:
        _integer(j, "drop column", 0)
    bad_drop = [j for j in drop if j >= width]
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
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {i + 1}, column {j + 1}: non-finite value: {cell!r}")
            out[i, k] = value
    out.setflags(write=False)
    return DataMatrix(out)


def _deviation_sums(src, shift, out=None):
    """Column sums of ``src - shift``, one row block at a time; bitwise numpy's
    axis-0 sum for two or more columns, which adds one row after another.

    With ``out`` the deviations are written there and summed as they are;
    without, they are squared first. Each block is summed after the running
    sum, placed in front of it as one extra row. The sums ignore overflow,
    as ``np.std`` does.
    """
    n, d = src.shape
    rows = max(1, _BLOCK_ELEMENTS // d)
    buf = np.empty((min(n, rows) + 1, d))
    total = None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = np.subtract(src[start:stop], shift, out=buf[1:1 + stop - start])
        if out is None:
            np.square(block, out=block)
        else:
            out[start:stop] = block
        with np.errstate(over="ignore"):
            if total is None:
                total = np.add.reduce(block, axis=0)
            else:
                buf[0] = total
                total = np.add.reduce(buf[:1 + stop - start], axis=0)
    return total


def standardize(data: DataMatrix) -> DataMatrix:
    """Return a copy with each feature rescaled to sample mean 0, sample std 1.

    Uses the sample standard deviation (denominator n - 1, hence the n >= 2
    precondition). Columns that are constant, up to floating-point noise,
    are centered only. Idempotent to within rounding. Works at scales 1e-300 to 1e300.
    """
    if data.n < 2:
        raise ValueError(f"standardize needs at least 2 points, got {data.n}")
    mean = data.points.mean(axis=0)
    if data.d == 1:  # numpy sums a single column pairwise, not row by row
        centered = data.points - mean
        with np.errstate(over="ignore"):
            std = centered.std(axis=0, ddof=1)
    else:
        centered = np.empty_like(data.points)
        sums = _deviation_sums(data.points, mean, centered)
        with np.errstate(over="ignore"):
            std = np.sqrt(_deviation_sums(centered, sums / data.n) / (data.n - 1))
    if not 2.0**-500 < std.min() <= std.max() < np.inf:  # squares may have left the float range
        unit = np.ldexp(1.0, np.frexp(np.abs(centered).max(axis=0))[1] - 1)  # exact rescale
        std = (centered / unit).std(axis=0, ddof=1) * unit
    centered /= np.where(std > _ZERO_VARIANCE_RTOL * np.abs(mean), std, 1.0)
    centered.setflags(write=False)
    return DataMatrix(centered)
