"""Objective values, cluster centers, and the gradient behind the surrogate.

Everything here reduces to products with the data matrix of length d, so
the n x n Gram matrix is never materialized: for n in the tens of
thousands it would dominate memory while being mathematically redundant.

Central quantities for a powered membership G with columns g_j:

* per-cluster aggregates ``y_j = sum_i g_ij x_i``, ``quad_j = |y_j|^2``
  and ``mass_j = sum_i g_ij``, computed once per (data, G) pair and held
  on G, so phi and the next step's centers share one ``G'X`` product;
* the fuzzy-means cost at explicit centers;
* the reduced cost ``phi`` obtained by substituting the optimal centers;
* the gradient of the term ``q(g) = quad / mass`` that phi subtracts.

The majorizing surrogate of phi needs no formula of its own: q is
homogeneous of degree 1, so by Euler its tangent plane at g_t has no
constant term, ``grad q(g_t) . g = sum_i g_i (2 x_i.m_t - |m_t|^2)`` with
``m_t = y_t / mass_t``. Subtracted from phi's linear part it completes the
square, ``h(G | G_t) = sum_ij g_ij |x_i - m_j^t|^2``: :func:`fcm_objective`
at ``compute_centers(aggregates(data, G_t))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _real
from .exceptions import DegenerateClusterError
from .membership import MembershipMatrix, PowerMembership


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
    ``G'X`` product runs once per pair however often it is asked for.
    """
    if G.n != data.n:
        raise ValueError(f"G has {G.n} rows but data has {data.n} points")
    if G._aggregates is not None and G._aggregates[0] is data:
        return G._aggregates[1]
    y = G.values.T @ data.points
    quad = np.einsum("cd,cd->c", y, y)
    y.setflags(write=False)
    quad.setflags(write=False)
    agg = ClusterAggregates(y, quad, G.col_sums)
    object.__setattr__(G, "_aggregates", (data, agg))
    return agg


def compute_centers(agg: ClusterAggregates) -> np.ndarray:
    """Optimal c x d centers for fixed memberships: m_j = y_j / mass_j."""
    if np.any(agg.mass <= 0.0):
        raise DegenerateClusterError("zero cluster mass, centers undefined")
    return agg.y / agg.mass[:, None]


def fcm_objective(data: DataMatrix, F: MembershipMatrix, centers: np.ndarray,
                  r: float) -> float:
    """Fuzzy-means cost sum_j sum_i f_ij^r |x_i - m_j|^2 at explicit centers.

    Deliberately evaluated through the point-center differences, not the
    expanded form, so it provides an independent route for checking
    :func:`phi`. ``centers`` must be c x d. At an anchor's centers
    ``y_t / mass_t`` it is the surrogate h(G | G_t) (module docstring).
    """
    _real(r, "r", 1.0)
    if F.n != data.n or np.shape(centers) != (F.c, data.d):
        raise ValueError("dimension mismatch between data, memberships and centers")
    G = F.values ** r
    total = 0.0
    for j, center in enumerate(centers):
        diff = data.points - center
        total += float(G[:, j] @ np.einsum("id,id->i", diff, diff))
    return total


def phi(data: DataMatrix, G: PowerMembership) -> float:
    """Reduced cost: the fuzzy-means objective with centers eliminated.

    phi(G) = sum_ij g_ij x_i.x_i - sum_j quad_j / mass_j. Equals
    :func:`fcm_objective` at the centers of :func:`compute_centers`.
    """
    agg = aggregates(data, G)
    linear = float(np.einsum("i,ij->", data.sq_norms, G.values))  # no BLAS, as col_sums
    return linear - float(np.sum(agg.quad / agg.mass))


def tangent_gradient(data: DataMatrix, g_t) -> np.ndarray:
    """Gradient of g -> (g' X'X g) / (g' 1) at g_t, Gram-free.

    Returns the n-vector (2 mass (X'X g_t) - quad) / mass^2 with X'X g_t
    computed as two O(nd) products. Homogeneous of degree 0: scaling g_t
    leaves it unchanged.
    """
    g_t = np.asarray(g_t, dtype=np.float64)
    if g_t.shape != (data.n,):
        raise ValueError(f"g_t must be a length-{data.n} vector")
    mass = float(g_t.sum())
    if mass <= 0.0:
        raise DegenerateClusterError("zero mass, gradient undefined")
    y = data.points.T @ g_t
    xxg = data.points @ y
    quad = float(y @ y)
    return (2.0 * mass * xxg - quad) / mass ** 2
