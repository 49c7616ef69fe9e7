"""Three fuzzy-means solvers under one interface.

:func:`_classic_values` is the one closed-form kernel: memberships F, and
G = F^r from the same ratios, from c x d centers m and the constant term
k_j of the expanded brackets ``x_i.x_i + k_j - 2 x_i.m_j``.
:func:`update_membership_classic` gives it ``m_j.m_j``, and the MM update
computes its centers and calls that; :func:`update_membership_irw` gives
it the frozen ``s_j^2``. Both hand it the centers times -2 and the fixed
terms :func:`_bracket_terms` builds from k, and return F holding its G.

* :func:`solve_irw_fcm` is the double-loop re-weighting scheme. Its first
  inner step is the surrogate (MM) step at the anchor; further inner
  steps freeze the scalars s_j there and repeat the linearized update,
  whose constants (``-2 s_j`` and the terms of ``s_j^2``) are built once
  per outer iteration.
* :func:`solve_fcm_mm` is that scheme capped at one inner step: bitwise
  ``solve_irw_fcm`` with ``max_inner_iters=1``.
* :func:`solve_fcm_classic` alternates optimal centers with the classic
  update. That update at the centers ``y_j / mass_j`` is the MM step, so
  classic runs MM's driver and its run is bitwise MM's.

All three share the convergence control (relative change of the reduced
objective), the degenerate-distance rule, and the trace instrumentation,
so their trajectories and work counts are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _integer, _real
from .exceptions import DegenerateClusterError
from .membership import (MembershipMatrix, PowerMembership, _check_finite, _column_sums,
                         _holding_power, to_power, validate)
from .objective import _sq_distances, _weighted_sums, aggregates, compute_centers, phi

TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings.

    ``outer_tol`` stops the outer loop once the reduced objective changes
    by at most ``outer_tol * |objective|``, in any data unit. The inner loop's
    one setting is ``max_inner_iters``: unitless memberships need one ``INNER_TOL``.
    Construction checks every field by the package's scalar rule, with a
    ValueError naming the field: ``c`` is an integer >= 2, the caps >= 1
    and ``seed`` >= 0 (a bool is none); ``r`` is a finite real number > 1
    and ``outer_tol`` > 0 (NaN and infinity are neither).
    """

    c: int
    r: float = 2.0
    outer_tol: float = 1e-8
    max_outer_iters: int = 500
    max_inner_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        _integer(self.c, "c", 2)
        _integer(self.max_outer_iters, "max_outer_iters", 1)
        _integer(self.max_inner_iters, "max_inner_iters", 1)
        _integer(self.seed, "seed", 0)
        _real(self.r, "r", 1.0)
        _real(self.outer_tol, "outer_tol", 0.0)


@dataclass(frozen=True)
class TraceRecord:
    """One outer-iteration snapshot of a solve. A non-finite objective is a
    ValueError naming the iteration: phi's ``|y_j|^2`` overflows beyond about 1e150."""

    outer_iter: int
    objective: float
    elapsed_ns: int
    membership_updates: int
    inner_iters: int

    def __post_init__(self):
        if not -np.inf < self.objective < np.inf:  # also False on NaN
            raise ValueError(f"objective {self.objective!r} at outer iteration "
                             f"{self.outer_iter} is not finite; standardize the data")


@dataclass(frozen=True)
class SolverTrace:
    """Per-iteration history: record 0 is the starting objective."""

    records: tuple

    def objectives(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.records])

    def total_membership_updates(self) -> int:
        return self.records[-1].membership_updates if self.records else 0

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class SolverResult:
    """Final memberships, centers, objective and the full trace.

    Every result holds a state: c x d centers, a finite objective and at
    least the start's trace record. On degenerate termination the fields
    hold the last state whose powered memberships were still valid.
    """

    F_final: MembershipMatrix
    centers_final: np.ndarray
    objective_final: float
    trace: SolverTrace
    termination: str


_BLOCK_ROWS = 8192
INNER_TOL = 1e-8  # max membership change that ends the re-weighting inner loop
_NEAR = 1e-4  # a bracket below _NEAR (x_i.x_i + top) is recomputed from the differences


def _memberships_from_brackets(brackets: np.ndarray, row_min: np.ndarray, low: float,
                               r: float, out: np.ndarray, powered, ones) -> np.ndarray:
    """Closed-form row update shared by all three solvers.

    Rows with every bracket (squared point-center distance) positive get
    f_ij proportional to bracket^(1/(1-r)). At r = 2 that is the
    reciprocal, taken when no reciprocal row sum can overflow (``c`` over
    the smallest bracket passed in is finite); otherwise each row is scaled
    by its smallest bracket first, ``(min_j b_ij / b_ij)^(1/(r-1))``, so the
    largest weight is exactly 1 and the result is finite at any data scale.
    A row with a bracket at or below 0 has its point on a center: it splits
    uniformly over those clusters, 0 elsewhere. ``row_min`` holds each row's
    smallest bracket and ``low`` the smallest of those as a Python float
    (``c / low`` is then inf past the float range, without a warning), as
    :func:`_near_center` returns it. Rows go to ``out``, of the brackets' shape;
    ``ones``, c ones, sums them.

    At r != 2, G = F^r goes to ``powered`` from the ratios ``q = min_k b_ik / b_ij``
    taken above: r p = p + 1 for p = 1/(r-1), so ``f^r = q f S^(1-r)`` with
    ``S = sum_k q_ik^p``, two multiplies in cache for a second power over the
    array; F's operations are unchanged. G parts from ``f ** r`` by four
    roundings and ``((1 + a) (1 + b))^(r-1) q^e``, a and b the errors of the
    power and the division giving f and e that of the rounded p (S's error
    cancels): with eps = 2^-52 and a power within 1 ulp, ``|G - f ** r| <=
    (2 (r + 1) + (r - 1) (|ln f| + 2 ln c)) eps f ** r``, plus a subnormal's
    ulps. Split rows get ``f ** r``; at r = 2 the caller takes ``F * F``.
    """
    if r == 2.0 and low > 0.0 and brackets.shape[1] / low < np.inf:
        values = np.reciprocal(brackets, out=out)
        values /= (values @ ones)[:, None]
    else:
        # Split rows may turn inf, nan or negative here; they are overwritten below.
        with np.errstate(all="ignore"):
            ratios = np.divide(row_min[:, None], brackets, out=out if r == 2.0 else powered)
            values = np.power(ratios, 1.0 / (r - 1.0), out=out)
            sums = values @ ones
            values /= sums[:, None]
            if r != 2.0:
                powered *= values
                powered *= (sums ** (1.0 - r))[:, None]
    if low <= 0.0:
        split = row_min <= 0.0
        hits = brackets[split] <= 0.0
        values[split] = hits / hits.sum(axis=1, keepdims=True)
        if r != 2.0:
            powered[split] = values[split] ** r
    return values


def _bracket_terms(data: DataMatrix, const: np.ndarray):
    """What :func:`_classic_values` holds fixed for the constant term ``const``: it
    as a column, its maximum ``top``, :func:`_near_center`'s skip bound
    ``_NEAR (max_i x_i.x_i + top)`` over all the data, and c ones that sum a row."""
    top = np.maximum.reduce(const)
    return (const[:, None], top, float(_NEAR * (np.maximum.reduce(data.sq_norms) + top)),
            np.ones(const.shape[0]))


def _near_center(brackets, row_min, points, sq_norms, scaled, top, bound) -> float:
    """Recompute in place the c x b brackets of points near a center, and their ``row_min``;
    return the block's smallest bracket, ``row_min``'s minimum after the recompute.

    The expanded bracket ``x_i.x_i + m_j.m_j - 2 x_i.m_j`` rounds at about eps
    (x_i.x_i + m_j.m_j), so near a center it loses digits and may round negative.
    Points with a bracket below ``_NEAR (x_i.x_i + top)``, ``top`` the largest
    constant term (m_j.m_j, or the re-weighting s_j^2 that equals it),
    where that rounding would exceed ~1e-12 of the bracket, get theirs from the
    differences by :func:`fcmm.objective._sq_distances`, as fcm_objective does, and
    their smallest taken again; so the kernel sees a zero bracket only at a center.
    The centers are ``-0.5 * scaled``, exact since the kernel's scale is a power of two.
    Rounding is monotone, so no row can pass when the smallest ``row_min`` is at
    least ``bound``, that rule over every block: the block skips the scan.
    """
    low = float(np.minimum.reduce(row_min))
    if low >= bound:
        return low  # also False on a NaN, which takes the scan
    rows = (row_min < _NEAR * (sq_norms + top)).nonzero()[0]
    if rows.size:
        brackets[:, rows] = _sq_distances(points[rows], -0.5 * scaled)
        row_min[rows] = np.minimum.reduce(brackets[:, rows], axis=0)
        low = float(np.minimum.reduce(row_min))
    return low


def _classic_values(data: DataMatrix, scaled: np.ndarray, terms, r: float):
    """Memberships F from the brackets ``x_i.x_i + k_j - 2 x_i.m_j`` at the c x d
    centers m, given as ``scaled = -2 m``, and G = F^r, as two writable arrays;
    ``terms`` is :func:`_bracket_terms` of the constant term k.

    Blocks of ``_BLOCK_ROWS`` rows start at row 0 and the last takes the
    remainder, so n below twice that is one block and none is short (BLAS
    rounds a few-row product differently). Each block builds its c x b
    brackets from one product, :func:`_near_center` recomputes those near a
    center, and the kernel runs in cache into column-major n x c results. At
    r != 2 it writes G beside F; at r = 2 G is ``F * F``, one pass after the loop.
    """
    const, top, bound, ones = terms
    n, shape = data.n, (data.n, scaled.shape[0])
    values, powered = np.empty(shape, order="F"), None if r == 2.0 else np.empty(shape, order="F")
    for start in range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS if start + 2 * _BLOCK_ROWS <= n else n
        points, sq_norms = data.points[start:stop], data.sq_norms[start:stop]
        # Built c x b, so broadcasts and per-point scans run along the points.
        brackets = scaled @ points.T
        brackets += const + sq_norms
        row_min = np.minimum.reduce(brackets, axis=0)
        low = _near_center(brackets, row_min, points, sq_norms, scaled, top, bound)
        _memberships_from_brackets(brackets.T, row_min, low, r, values[start:stop],
                                   None if powered is None else powered[start:stop], ones)
    return values, values * values if powered is None else powered


def _centers(data: DataMatrix, centers) -> np.ndarray:
    """``centers`` as a float64 array (one already is, as given) of c >= 1 rows
    of ``data.d`` finite coordinates; any other shape, or an inf or NaN, is a
    ValueError naming it."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or not centers.shape[0] or centers.shape[1] != data.d:
        raise ValueError(f"centers must have shape (c, {data.d}) with c >= 1; "
                         f"got shape {centers.shape}")
    if not np.isfinite(centers).all():
        bad = np.argwhere(~np.isfinite(centers))[0]
        raise ValueError(f"centers must be finite; non-finite value at center {bad[0]}, "
                         f"feature {bad[1]}")
    return centers


def update_membership_classic(data: DataMatrix, centers: np.ndarray,
                              r: float) -> MembershipMatrix:
    """The closed-form update of all three solvers, from c x d centers.

    :func:`_classic_values` computes it at ``m_j.m_j``, held read-only without
    a copy, with its G for :func:`~fcmm.membership.to_power`; the
    difference-form reference is :func:`fcmm.oracle.classic_update_oracle`.
    ``centers`` is read as :func:`_centers` reads it.
    """
    _real(r, "r", 1.0)
    centers = _centers(data, centers)
    terms = _bracket_terms(data, np.einsum("cd,cd->c", centers, centers))
    return _holding_power(*_classic_values(data, -2.0 * centers, terms, r), r)


def irw_auxiliary(data: DataMatrix, G: PowerMembership) -> np.ndarray:
    """Re-weighting scalars ``s_j = sqrt(quad_j) / mass_j``, Gram-free."""
    agg = aggregates(data, G)
    return np.sqrt(agg.quad) / agg.mass


def update_membership_irw(data: DataMatrix, G: PowerMembership, s: np.ndarray,
                          r: float) -> MembershipMatrix:
    """Linearized-subproblem update at G with the scalars s frozen.

    The re-weighting bracket ``x_i.x_i + s_j^2 - 2 s_j x_i.y_j / |y_j|`` is
    the squared distance to the center ``s_j y_j / |y_j|`` of
    :func:`_irw_centers`; :func:`_classic_values` takes those centers with
    ``s_j^2`` as the constant term. Its terms and ``-2 s`` stay fixed while
    s is frozen, so the solver builds them once per outer iteration. ``s``
    holds one norm per cluster: another shape, or an entry that is negative
    or not finite, is a ValueError.
    """
    _real(r, "r", 1.0)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (G.c,):
        raise ValueError(f"s must have shape ({G.c},), one scalar per cluster; "
                         f"got shape {s.shape}")
    if not ((s >= 0.0) & (s < np.inf)).all():  # False on NaN
        raise ValueError(f"s must be finite and >= 0, a norm per cluster; got {s.tolist()}")
    agg = aggregates(data, G)
    scaled = _irw_centers(agg.y, agg.quad, -2.0 * s)
    return _holding_power(*_classic_values(data, scaled, _bracket_terms(data, s * s), r), r)


def _irw_centers(y: np.ndarray, quad: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Re-weighting centers ``s_j y_j / |y_j|``: direction from the weighted
    sums y, norm held at |s_j|; the kernel takes them scaled, from ``-2 s``.
    Undefined where quad_j = |y_j|^2 = 0 (all-zero weighted cluster image),
    a DegenerateClusterError naming those clusters.
    """
    if np.fmin.reduce(quad) <= 0.0:  # False on NaN, as (quad <= 0.0).any()
        dead = np.flatnonzero(quad <= 0.0).tolist()
        raise DegenerateClusterError(
            f"cluster(s) {dead} have zero weighted image, re-weighting undefined")
    return y * (s / np.sqrt(quad))[:, None]


def update_membership_mm(data: DataMatrix, G_t: PowerMembership, r: float) -> MembershipMatrix:
    """Surrogate-minimizing update anchored at G_t.

    The surrogate is ``h(G | G_t) = sum_ij g_ij |x_i - m_j^t|^2`` at the
    centers ``m_t = y_t / mass_t`` (see :mod:`fcmm.objective`), minimized
    by the classic update at m_t, so this takes those centers and calls
    :func:`update_membership_classic`.
    """
    return update_membership_classic(data, compute_centers(data, G_t), r)


def _check_start(data: DataMatrix, F0: MembershipMatrix, cfg: SolverConfig) -> PowerMembership:
    """G of a start that fits, passes :func:`validate` and has mass in every cluster."""
    if F0.n != data.n:
        raise ValueError(f"F0 has {F0.n} rows but data has {data.n} points")
    if F0.c != cfg.c:
        raise ValueError(f"F0 has {F0.c} clusters but config asks for {cfg.c}")
    report = validate(F0)
    if not report.passed:
        raise ValueError(f"F0 is not row-stochastic: {report}")
    try:
        return to_power(F0, cfg.r)
    except DegenerateClusterError as exc:
        raise ValueError(f"F0 ** {cfg.r!r} is degenerate: {exc}") from None


def _reweighting_step(data: DataMatrix, F: MembershipMatrix, G: PowerMembership,
                      cfg: SolverConfig, max_inner: int):
    """One outer iteration of the re-weighting scheme, at most ``max_inner`` inner steps.

    At the anchor G the re-weighting center ``s_j y_j / |y_j|`` equals
    ``y_j / mass_j``, so the first inner step is the MM step. Only when a
    second step runs are the scalars s taken at G; later steps apply the
    linearized update at the frozen s until no membership moves by more than
    ``INNER_TOL`` (memberships have no unit, so one bound fits every dataset)
    or the cap is hit. Returns the new F and G and the inner steps, one update each.

    Steps 2.. run :func:`update_membership_irw` and :func:`to_power` on plain
    arrays, the kernel's F and G, with every check of their records; records are
    built for the last step.
    The constants of the frozen s (``-2 s`` and the :func:`_bracket_terms` of
    ``s_j^2``) are built once, beside s, and every later step takes the same
    objects. A step's finiteness is read off its stop test: the previous values
    are finite, so the largest change is finite exactly when every new value is.
    """
    F_mm = update_membership_mm(data, G, cfg.r)
    G_mm = to_power(F_mm, cfg.r)
    values, powered, inner = F_mm.values, G_mm.values, 1
    moved = max_inner > 1 and np.maximum.reduce(np.abs(values - F.values), axis=None) > INNER_TOL
    if moved:
        s = irw_auxiliary(data, G)
        neg_two_s, terms = -2.0 * s, _bracket_terms(data, s * s)
    while moved:
        scaled = _irw_centers(*_weighted_sums(data, powered), neg_two_s)
        prev, (values, powered) = values, _classic_values(data, scaled, terms, cfg.r)
        change = np.maximum.reduce(np.abs(values - prev), axis=None)
        if not change < np.inf:  # inf or NaN
            _check_finite(values)  # raises
        _column_sums(powered)
        inner += 1
        moved = inner < max_inner and change > INNER_TOL
    if inner == 1:
        return F_mm, G_mm, 1
    values.setflags(write=False)
    powered.setflags(write=False)
    return MembershipMatrix(values), PowerMembership(powered), inner


def _run_outer(data: DataMatrix, F0: MembershipMatrix, cfg: SolverConfig,
               max_inner: int) -> SolverResult:
    """Outer loop of all three solvers, one :func:`_reweighting_step` per iteration.

    A start that :func:`_check_start` refuses is a ValueError before any
    step. A cluster collapsing during the solve raises
    :class:`DegenerateClusterError` in the step; the loop then stops with
    the last valid state and a partial trace.
    """
    G = _check_start(data, F0, cfg)
    start = time.perf_counter_ns()
    records = []
    updates = 0
    F, obj = F0, phi(data, G)
    records.append(TraceRecord(0, obj, time.perf_counter_ns() - start, 0, 0))

    termination = TERMINATION_MAX_ITERS
    for it in range(1, cfg.max_outer_iters + 1):
        try:
            F_new, G_new, inner = _reweighting_step(data, F, G, cfg, max_inner)
        except DegenerateClusterError:
            termination = TERMINATION_DEGENERATE
            break
        updates += inner
        obj_new = phi(data, G_new)
        records.append(TraceRecord(it, obj_new, time.perf_counter_ns() - start,
                                   updates, inner))
        converged = abs(obj_new - obj) <= cfg.outer_tol * abs(obj)
        F, G, obj = F_new, G_new, obj_new
        if converged:
            termination = TERMINATION_CONVERGED
            break

    centers = compute_centers(data, G)
    if F is not F0:  # a step's record, rebuilt so that the result keeps no G alive
        F = MembershipMatrix(F.values)
    return SolverResult(F, centers, obj, SolverTrace(tuple(records)), termination)


def solve_fcm_classic(data: DataMatrix, F0: MembershipMatrix,
                      cfg: SolverConfig) -> SolverResult:
    """Alternate optimal centers with the classic update: MM's driver, bitwise MM's run."""
    return _run_outer(data, F0, cfg, 1)


def solve_irw_fcm(data: DataMatrix, F0: MembershipMatrix,
                  cfg: SolverConfig) -> SolverResult:
    """Double-loop re-weighting solver; every inner update counts as work."""
    return _run_outer(data, F0, cfg, cfg.max_inner_iters)


def solve_fcm_mm(data: DataMatrix, F0: MembershipMatrix,
                 cfg: SolverConfig) -> SolverResult:
    """Single-loop surrogate solver: the re-weighting scheme with one inner step."""
    return _run_outer(data, F0, cfg, 1)


SOLVERS = {
    "classic": solve_fcm_classic,
    "irw": solve_irw_fcm,
    "mm": solve_fcm_mm,
}
