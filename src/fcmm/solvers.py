"""Three fuzzy-means solvers under one interface.

* :func:`solve_fcm_classic` alternates optimal centers with the classic
  closed-form membership update.
* :func:`solve_irw_fcm` is the double-loop re-weighting scheme: per outer
  iteration it freezes the per-cluster scalars s_j, then repeats the
  linearized membership update until the memberships stop moving.
* :func:`solve_fcm_mm` minimizes the tangent-plane surrogate once per
  iteration; a single loop whose step coincides with one inner step of
  the double-loop solver.

All three share the convergence control (relative change of the reduced
objective), the degenerate-distance rule, and the trace instrumentation,
so their trajectories and work counts are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dataset import DataMatrix
from .exceptions import DegenerateClusterError
from .membership import MembershipMatrix, PowerMembership, to_power, validate
from .objective import (ClusterCenters, aggregates, compute_centers, phi)

TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings.

    ``outer_tol`` stops the outer loop once the reduced objective changes
    by no more than ``outer_tol * (1 + |objective|)``; ``inner_tol`` stops
    the re-weighting inner loop on the max elementwise membership change.
    ``dist_floor`` is the squared-distance level below which a point
    counts as sitting on a center. ``standardize`` is honored by the
    harness when preparing datasets; the solve functions use the data as
    given.
    """

    c: int
    r: float = 2.0
    outer_tol: float = 1e-8
    inner_tol: float = 1e-8
    max_outer_iters: int = 500
    max_inner_iters: int = 100
    seed: int = 0
    dist_floor: float = 1e-12
    standardize: bool = True

    def __post_init__(self):
        if self.c < 2:
            raise ValueError(f"need at least 2 clusters, got {self.c}")
        if not 1.0 < self.r < np.inf:
            raise ValueError(f"fuzziness exponent must be finite and exceed 1, got {self.r}")
        for name in ("outer_tol", "inner_tol", "dist_floor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class IrwAuxiliary:
    """Per-cluster re-weighting auxiliaries.

    ``s[j] = sqrt(quad_j) / mass_j`` and ``a[j]`` is the n-vector
    ``X'X g_j / sqrt(quad_j)``, both computed without the Gram matrix.
    Undefined when quad_j = 0 (all-zero weighted cluster image).
    """

    s: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    """One outer-iteration snapshot of a solve."""

    outer_iter: int
    objective: float
    elapsed_ns: int
    membership_updates: int
    inner_iters: int


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

    On degenerate termination the fields hold the last state whose
    powered memberships were still valid; if even the starting matrix was
    degenerate, ``centers_final`` is None and the objective is NaN.
    """

    F_final: MembershipMatrix
    centers_final: Optional[ClusterCenters]
    objective_final: float
    trace: SolverTrace
    termination: str


def _memberships_from_brackets(brackets: np.ndarray, r: float,
                               dist_floor: float) -> MembershipMatrix:
    """Closed-form row update shared by all three solvers.

    Rows with every bracket (squared point-center distance) at least
    ``dist_floor`` get f_ij proportional to bracket^(1/(1-r)), evaluated
    in log space so extreme exponents stay finite. If any bracket falls
    below the floor the point sits on a center (or rounding drove the
    bracket negative): membership splits uniformly over the near clusters
    and is 0 elsewhere, which keeps the row on the simplex.
    """
    near = brackets < dist_floor
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
    return MembershipMatrix.from_values(values)


def update_membership_classic(data: DataMatrix, centers: ClusterCenters,
                              r: float, dist_floor: float = 1e-12) -> MembershipMatrix:
    """Classic closed-form update from explicit centers.

    Squared distances are evaluated through the point-center differences;
    this is the reference route the expanded-form updates are checked
    against.
    """
    if not r > 1.0:
        raise ValueError(f"fuzziness exponent must exceed 1, got {r}")
    sq_dists = np.empty((data.n, centers.c))
    for j in range(centers.c):
        diff = data.points - centers.centers[j]
        sq_dists[:, j] = np.einsum("id,id->i", diff, diff)
    return _memberships_from_brackets(sq_dists, r, dist_floor)


def irw_auxiliary(data: DataMatrix, G: PowerMembership) -> IrwAuxiliary:
    """Compute the re-weighting scalars s_j and linearization vectors a_j."""
    agg = aggregates(data, G)
    dead = np.flatnonzero(agg.quad <= 0.0)
    if dead.size:
        raise DegenerateClusterError(
            f"cluster(s) {dead.tolist()} have zero weighted image, auxiliaries undefined")
    root = np.sqrt(agg.quad)
    s = root / agg.mass
    a = (data.points @ agg.y.T).T / root[:, None]
    return IrwAuxiliary(s, a)


def update_membership_irw(data: DataMatrix, aux: IrwAuxiliary, r: float,
                          dist_floor: float = 1e-12) -> MembershipMatrix:
    """Linearized-subproblem update from the auxiliaries.

    Brackets ``x_i.x_i + s_j^2 - 2 s_j a_ij`` equal squared point-center
    distances analytically but may round negative; the shared floor rule
    handles that.
    """
    if not r > 1.0:
        raise ValueError(f"fuzziness exponent must exceed 1, got {r}")
    brackets = (data.sq_norms[:, None] + (aux.s ** 2)[None, :]
                - 2.0 * aux.a.T * aux.s[None, :])
    return _memberships_from_brackets(brackets, r, dist_floor)


def update_membership_mm(data: DataMatrix, G_t: PowerMembership, r: float,
                         dist_floor: float = 1e-12) -> MembershipMatrix:
    """Surrogate-minimizing update anchored at G_t.

    Brackets ``x_i.x_i + quad_j/mass_j^2 - 2 x_i.y_j/mass_j`` come straight
    from the cluster aggregates, Gram-free.
    """
    if not r > 1.0:
        raise ValueError(f"fuzziness exponent must exceed 1, got {r}")
    agg = aggregates(data, G_t)
    cross = data.points @ agg.y.T
    brackets = (data.sq_norms[:, None] + (agg.quad / agg.mass ** 2)[None, :]
                - 2.0 * cross / agg.mass[None, :])
    return _memberships_from_brackets(brackets, r, dist_floor)


def _check_start(data: DataMatrix, F0: MembershipMatrix, cfg: SolverConfig):
    if F0.n != data.n:
        raise ValueError(f"F0 has {F0.n} rows but data has {data.n} points")
    if F0.c != cfg.c:
        raise ValueError(f"F0 has {F0.c} clusters but config asks for {cfg.c}")
    report = validate(F0)
    if not report.passed:
        raise ValueError(f"F0 is not row-stochastic: {report}")


def _run_outer(data: DataMatrix, F0: MembershipMatrix, cfg: SolverConfig,
               step: Callable) -> SolverResult:
    """Outer loop shared by the three solvers.

    ``step(F, G)`` returns ``(F_new, G_new, updates, inner_iters)`` and
    raises :class:`DegenerateClusterError` when a cluster collapses; the
    loop then stops with the last valid state and a partial trace.
    """
    _check_start(data, F0, cfg)
    start = time.perf_counter_ns()
    records = []
    updates = 0
    try:
        G = to_power(F0, cfg.r)
    except DegenerateClusterError:
        return SolverResult(F0, None, float("nan"), SolverTrace(()),
                            TERMINATION_DEGENERATE)
    F, obj = F0, phi(data, G)
    records.append(TraceRecord(0, obj, time.perf_counter_ns() - start, 0, 0))

    termination = TERMINATION_MAX_ITERS
    for it in range(1, cfg.max_outer_iters + 1):
        try:
            F_new, G_new, n_up, inner = step(F, G)
        except DegenerateClusterError:
            termination = TERMINATION_DEGENERATE
            break
        updates += n_up
        obj_new = phi(data, G_new)
        records.append(TraceRecord(it, obj_new, time.perf_counter_ns() - start,
                                   updates, inner))
        converged = abs(obj_new - obj) <= cfg.outer_tol * (1.0 + abs(obj))
        F, G, obj = F_new, G_new, obj_new
        if converged:
            termination = TERMINATION_CONVERGED
            break

    centers = compute_centers(aggregates(data, G))
    return SolverResult(F, centers, obj, SolverTrace(tuple(records)), termination)


def solve_fcm_classic(data: DataMatrix, F0: MembershipMatrix,
                      cfg: SolverConfig) -> SolverResult:
    """Alternate optimal centers with the classic membership update."""

    def step(F, G):
        centers = compute_centers(aggregates(data, G))
        F_new = update_membership_classic(data, centers, cfg.r, cfg.dist_floor)
        return F_new, to_power(F_new, cfg.r), 1, 0

    return _run_outer(data, F0, cfg, step)


def solve_irw_fcm(data: DataMatrix, F0: MembershipMatrix,
                  cfg: SolverConfig) -> SolverResult:
    """Double-loop re-weighting solver.

    Each outer iteration freezes s_j at the current memberships, then the
    inner loop alternates recomputing a_j with the linearized update until
    the max elementwise membership change drops to ``inner_tol`` or the
    inner cap is hit. Every inner update counts toward the work total.
    """

    def step(F, G):
        aux = irw_auxiliary(data, G)
        s = aux.s
        F_in, G_in = F, G
        inner = 0
        while True:
            F_next = update_membership_irw(data, IrwAuxiliary(s, aux.a),
                                           cfg.r, cfg.dist_floor)
            inner += 1
            delta = float(np.max(np.abs(F_next.values - F_in.values)))
            F_in = F_next
            G_in = to_power(F_in, cfg.r)
            if delta <= cfg.inner_tol or inner >= cfg.max_inner_iters:
                break
            aux = irw_auxiliary(data, G_in)
        return F_in, G_in, inner, inner

    return _run_outer(data, F0, cfg, step)


def solve_fcm_mm(data: DataMatrix, F0: MembershipMatrix,
                 cfg: SolverConfig) -> SolverResult:
    """Single-loop surrogate solver: one membership update per iteration."""

    def step(F, G):
        F_new = update_membership_mm(data, G, cfg.r, cfg.dist_floor)
        return F_new, to_power(F_new, cfg.r), 1, 0

    return _run_outer(data, F0, cfg, step)


SOLVERS = {
    "classic": solve_fcm_classic,
    "irw": solve_irw_fcm,
    "mm": solve_fcm_mm,
}
