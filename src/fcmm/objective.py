"""Objective values and cluster centers, from which phi's surrogate is read.

Everything here reduces to products with the data matrix of length d, so
the n x n Gram matrix is never materialized: for n in the tens of
thousands it would dominate memory while being mathematically redundant.

Central quantities for a powered membership G with columns g_j:

* per-cluster aggregates ``y_j = sum_i g_ij x_i``, ``quad_j = |y_j|^2``
  and ``mass_j = sum_i g_ij``, computed once per (data, G) pair and held
  on G, so phi and the next step's centers share one ``G'X`` product;
* the fuzzy-means cost at explicit centers, summed in a plain double
  loop's order with no BLAS, so its bits do not follow the BLAS thread
  count;
* the reduced cost ``phi`` obtained by substituting the optimal centers.

Neither phi's gradient nor its majorizing surrogate needs a function of
its own. The term ``q(g) = quad / mass`` that phi subtracts has gradient
``2 x_i.m_t - |m_t|^2 = |x_i|^2 - |x_i - m_t|^2`` at g_t, with
``m_t = y_t / mass_t``, so phi's gradient at G_t is the bracket matrix
``|x_i - m_j^t|^2`` at G_t's centers, the squared distances the MM step
builds. q is homogeneous of degree 1, so by Euler its tangent plane has
no constant term, and phi's tangent plane at G_t is the surrogate
``h(G | G_t) = sum_ij g_ij |x_i - m_j^t|^2``: :func:`fcm_objective` at
``compute_centers(data, G_t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _real
from .membership import MembershipMatrix, PowerMembership

# Terms per chunk (1 MB) of point-center coordinate differences, or of Gram
# products in fcmm.oracle's finite differences
_TERMS = 1 << 17


@dataclass(frozen=True)
class ClusterAggregates:
    """Per-cluster sufficient statistics of (data, G).

    Attributes
    ----------
    y : ndarray, shape (c, d)
        Row j holds the weighted data sum ``sum_i g_ij x_i``.
    quad : ndarray, shape (c,)
        ``quad[j] = |y_j|^2``, the Gram quadratic form evaluated without
        the Gram matrix.
    mass : ndarray, shape (c,)
        ``mass[j] = sum_i g_ij``, strictly positive.
    """

    y: np.ndarray
    quad: np.ndarray
    mass: np.ndarray


def aggregates(data: DataMatrix, G: PowerMembership) -> ClusterAggregates:
    """Accumulate y_j, quad_j and mass_j for every cluster in O(ndc).

    ``mass`` is ``G.col_sums``, positive because :class:`PowerMembership`
    rejects a zero column when it is built. Both records are immutable, so
    the result, read-only, is held on G for this ``data`` object and the
    ``G'X`` product runs once per pair however often it is asked for. The
    private ``_aggregates`` attribute holding it is written and read only
    here; it is not a field, so ``==`` and ``repr`` of G ignore it.
    """
    if G.n != data.n:
        raise ValueError(f"G has {G.n} rows but data has {data.n} points")
    held = G.__dict__.get("_aggregates")
    if held is not None and held[0] is data:
        return held[1]
    y, quad = _weighted_sums(data, G.values)
    y.setflags(write=False)
    quad.setflags(write=False)
    agg = ClusterAggregates(y, quad, G.col_sums)
    object.__setattr__(G, "_aggregates", (data, agg))
    return agg


def _weighted_sums(data: DataMatrix, values: np.ndarray):
    """``y = G'X`` and ``quad_j = |y_j|^2``, writable, for n x c powered memberships:
    the package's one ``G'X`` product, for :func:`aggregates` and IRW's inner steps."""
    y = values.T @ data.points
    return y, np.einsum("cd,cd->c", y, y)


def compute_centers(data: DataMatrix, G: PowerMembership) -> np.ndarray:
    """Optimal c x d centers for fixed memberships: m_j = y_j / mass_j, from
    the ``G'X`` product held on G; :class:`PowerMembership` keeps mass_j > 0."""
    return aggregates(data, G).y / G.col_sums[:, None]


def fcm_objective(data: DataMatrix, F: MembershipMatrix, centers: np.ndarray,
                  r: float) -> float:
    """Fuzzy-means cost sum_j sum_i f_ij^r |x_i - m_j|^2 at explicit centers.

    Deliberately evaluated through the point-center differences, not the
    expanded form, so it provides an independent route for checking
    :func:`phi`. ``centers`` must be c x d. At an anchor's centers
    ``y_t / mass_t`` it is the surrogate h(G | G_t) (module docstring).
    The weighted sum runs over the points, then the clusters, as a plain
    loop does, the same bits on any BLAS thread count. That running sum is
    up to ten times slower than BLAS dot products; at 100,000 x 10, c = 10
    it takes about a fifth of the call, and the distances most of the rest.
    Distances and sums over the points go a chunk of centers at a time, at
    most ``_TERMS`` differences or one center's n d: one pass's bits, without
    its c x n x d temporary.
    """
    _real(r, "r", 1.0)
    centers = np.asarray(centers, dtype=np.float64)
    if F.n != data.n or centers.shape != (F.c, data.d):
        raise ValueError("dimension mismatch between data, memberships and centers")
    G, width = F.values ** r, max(1, _TERMS // (data.n * data.d))
    sums = [_running_sum(G[:, j:j + width].T * _sq_distances(data.points, centers[j:j + width]))
            for j in range(0, F.c, width)]
    return float(_running_sum(np.concatenate(sums)))


def _sq_distances(points: np.ndarray, centers) -> np.ndarray:
    """``|x_i - m_j|^2`` from the point-center differences, for one center,
    c x d centers or a stack of them, as an array or nested lists: shape
    ``centers.shape[:-1] + (n,)``, one contiguous n-vector per center. At
    fixed centers they serve any number of F.

    The package's one difference-form distance routine: :func:`fcm_objective`,
    the kernel's near-center step
    :func:`~fcmm.solvers._near_center` and the oracle's checks
    at fixed centers all call it. Each center's row has the same bits
    however many centers or sets of centers one call takes.
    """
    diff = points - np.asarray(centers, dtype=np.float64)[..., None, :]
    return np.einsum("...d,...d->...", diff, diff)


def _running_sum(terms: np.ndarray):
    """Sums along the last axis in a plain loop's order, ``total = 0.0``
    then ``total += t`` term by term, with no BLAS and no pairwise sum.

    A running sum from the first term differs from that loop only where
    every term is -0.0, giving -0.0 for its 0.0; adding 0.0 last mends
    exactly that case.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _weighted_cost(G: np.ndarray, dists: np.ndarray):
    """``sum_j g_.j . dists[j]`` for powered memberships G: over the points
    from 0.0 for each cluster, then over the clusters in order from 0.0,
    the bits of that plain double loop on any BLAS thread count.

    G is n x c, giving a float, or a stack of them with any leading axes,
    giving each slice's float in an array of those axes; the c x n
    ``dists`` broadcast against G's slices, so a stack of distances pairs
    with a stack of G. One pass over all clusters holds two temporaries
    of the broadcast size.
    """
    total = _running_sum(_running_sum(np.swapaxes(G, -1, -2) * np.asarray(dists)))
    return float(total) if G.ndim == 2 else total


def phi(data: DataMatrix, G: PowerMembership) -> float:
    """Reduced cost: the fuzzy-means objective with centers eliminated.

    phi(G) = sum_ij g_ij x_i.x_i - sum_j quad_j / mass_j. Equals
    :func:`fcm_objective` at the centers of :func:`compute_centers`.
    """
    agg = aggregates(data, G)
    linear = float(np.einsum("i,ij->", data.sq_norms, G.values))  # no BLAS, as col_sums
    return linear - float(np.sum(agg.quad / agg.mass))

