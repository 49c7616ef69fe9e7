"""Brute-force reference implementations for verification.

Everything here recomputes quantities the slow, obvious way: explicit n x n
Gram matrices, central finite differences, the textbook classic update from
point-center differences, randomized surrogate probing, and a step-by-step
audit of the descent chain. None of it shares math with the optimized code
paths, so agreement is evidence rather than tautology. Used only by the test
suite and the ``validate`` command. Each Gram pair's dot product is taken
once and mirrored, and the sums run over Python floats in the plain double
loops' order and grouping, so the results are bitwise those loops'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, SyntheticSpec, _integer, _real, make_blobs
from .membership import MembershipMatrix, PowerMembership, init_random, to_power
from .objective import (aggregates, compute_centers, fcm_objective, phi,
                        tangent_gradient)
from .solvers import (SolverConfig, irw_auxiliary, update_membership_irw,
                      update_membership_mm)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check."""

    check_name: str
    max_error: float
    tolerance: float
    samples: int
    passed: bool

    @classmethod
    def from_error(cls, check_name: str, max_error: float, tolerance: float,
                   samples: int) -> "OracleReport":
        return cls(check_name, float(max_error), float(tolerance), int(samples),
                   float(max_error) <= float(tolerance))

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_name}: max_error={self.max_error:.3e} "
                f"tolerance={self.tolerance:.1e} samples={self.samples}")


def _gram_matrix(points: np.ndarray) -> list:
    """Explicit Gram matrix, as nested lists of floats, by a loop over point
    pairs: each pair's dot product is taken once and mirrored."""
    n = points.shape[0]
    rows = list(points)
    gram = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            gram[i][k] = gram[k][i] = float(np.dot(rows[i], rows[k]))
    return gram


def _quad_form(gram: list, g: list) -> float:
    """g' gram g by double loop, summed over i, then k."""
    total = 0.0
    for g_i, row in zip(g, gram):
        for gram_ik, g_k in zip(row, g):
            total += g_i * gram_ik * g_k
    return total


def _weights(data: DataMatrix, g, name: str) -> np.ndarray:
    """g as a length-n float64 vector; any other shape is a ValueError."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (data.n,):
        raise ValueError(f"{name} must be a length-{data.n} vector")
    return g


def gram_quad_oracle(data: DataMatrix, g) -> float:
    """Evaluate g'(X'X)g through the materialized Gram matrix.

    Intended for n <= 200; the optimized path never forms this matrix.
    """
    g = _weights(data, g, "g")
    return _quad_form(_gram_matrix(data.points), g.tolist())


def gram_vector_oracle(data: DataMatrix, g) -> np.ndarray:
    """Evaluate (X'X)g through the materialized Gram matrix."""
    g = _weights(data, g, "g").tolist()
    out = []
    for row in _gram_matrix(data.points):
        total = 0.0
        for gram_ik, g_k in zip(row, g):
            total += gram_ik * g_k
        out.append(total)
    return np.array(out)


def finite_diff_gradient(data: DataMatrix, g_t, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of g -> (g'X'Xg)/(g'1), per component."""
    g_t = _weights(data, g_t, "g_t")
    _real(step, "step", 0.0)
    if np.any(g_t <= step):
        raise ValueError("components of g_t must exceed the step size")
    gram = _gram_matrix(data.points)
    g_t = g_t.tolist()

    def ratio(g):
        den = 0.0  # not sum(): from Python 3.12 it compensates rounding
        for g_i in g:
            den += g_i
        return _quad_form(gram, g) / den

    out = np.empty(data.n)
    for i in range(data.n):
        up = g_t.copy()
        down = g_t.copy()
        up[i] += step
        down[i] -= step
        out[i] = (ratio(up) - ratio(down)) / (2.0 * step)
    return out


def classic_update_oracle(data: DataMatrix, centers, r: float) -> MembershipMatrix:
    """Classic membership update by the textbook formula.

    ``f_ij = 1 / sum_k (b_ij / b_ik)^(1/(r-1))`` with ``b_ij = |x_i - m_j|^2``
    from the n x c x d point-center differences. A point on one or more
    centers (``b_ij == 0``) splits uniformly over them.
    """
    _real(r, "r", 1.0)
    diffs = data.points[:, None, :] - np.asarray(centers, dtype=np.float64)[None, :, :]
    b = np.square(diffs).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        F = 1.0 / ((b[:, :, None] / b[:, None, :]) ** (1.0 / (r - 1.0))).sum(axis=2)
    on = b == 0.0
    split = on.any(axis=1)
    F[split] = on[split] / on[split].sum(axis=1, keepdims=True)
    return MembershipMatrix.from_values(F)


def surrogate_argmin_oracle(data: DataMatrix, G_t: PowerMembership, r: float,
                            trials: int, seed: int) -> OracleReport:
    """Randomized certificate that the surrogate update minimizes h.

    Samples ``trials`` random feasible membership matrices, evaluates the
    surrogate at each, and reports how far (if at all) any of them dips
    below the value achieved by the closed-form update. The update's own
    output is included as a self-comparison sample. h is the fuzzy-means
    cost at G_t's optimal centers (Euler: the tangent plane of quad/mass has
    no constant term), so they are taken once and each sample is one
    :func:`~fcmm.objective.fcm_objective`.
    """
    _integer(trials, "trials", 1)
    _integer(seed, "seed", 0)
    centers_t = compute_centers(aggregates(data, G_t))
    F_star = update_membership_mm(data, G_t, r)
    h_star = fcm_objective(data, F_star, centers_t, r)
    tolerance = 1e-9 * (1.0 + abs(h_star))

    rng = np.random.default_rng(seed)
    worst = 0.0  # the self sample, h_star - h_star
    for _ in range(trials):
        F = MembershipMatrix.from_values(rng.dirichlet(np.ones(G_t.c), size=G_t.n))
        worst = max(worst, h_star - fcm_objective(data, F, centers_t, r))
    return OracleReport.from_error("surrogate_argmin", max(0.0, worst),
                                   tolerance, trials + 1)


def descent_chain_audit(data: DataMatrix, F0: MembershipMatrix,
                        cfg: SolverConfig, steps: int) -> OracleReport:
    """Audit the per-step descent chain of the single-loop solver.

    Runs ``steps`` surrogate updates from F0 and checks, for every step,

        phi(F_next) <= h(G_next | G) <= h(G | G) = phi(F),

    each link within ``1e-10 * (1 + |phi(F)|)``. Errors are reported
    normalized by that scale, so the tolerance column reads 1e-10. h(. | G)
    is the fuzzy-means cost at G's optimal centers (Euler: the tangent plane
    of quad/mass has no constant term), taken once per step, so the last
    link compares that difference form with phi's expanded form.
    """
    _integer(steps, "steps", 1)
    F = F0
    G = to_power(F, cfg.r)
    worst = 0.0
    obj = phi(data, G)
    for _ in range(steps):
        centers = compute_centers(aggregates(data, G))
        F_next = update_membership_mm(data, G, cfg.r)
        G_next = to_power(F_next, cfg.r)
        h_next = fcm_objective(data, F_next, centers, cfg.r)
        h_self = fcm_objective(data, F, centers, cfg.r)
        obj_next = phi(data, G_next)
        scale = 1.0 + abs(obj)
        worst = max(worst,
                    (obj_next - h_next) / scale,
                    (h_next - h_self) / scale,
                    abs(h_self - obj) / scale)
        F, G, obj = F_next, G_next, obj_next
    return OracleReport.from_error("descent_chain", worst, 1e-10, steps)


def _draw_instance(rng, n_max, r=None):
    """Gaussian points and a flat-Dirichlet membership of random shape.

    Draws n in [5, n_max], d in [1, 5], c in [2, 5], then r from
    {1.5, 2, 3} unless given; returns data, F, G = F**r and r.
    """
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, 6))
    c = int(rng.integers(2, 6))
    if r is None:
        r = float(rng.choice([1.5, 2.0, 3.0]))
    data = DataMatrix.from_points(rng.normal(size=(n, d)))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
    return data, F, to_power(F, r), r


def run_suite(scale: str = "quick", seed: int = 0) -> list:
    """Run the full verification battery and return one report per check.

    ``quick`` keeps instances at n <= 30 with at most 200 randomized
    trials; ``full`` raises both. Deterministic for a fixed seed.
    """
    _integer(seed, "seed", 0)
    if scale == "quick":
        n_instances, n_max, trials = 5, 30, 200
    elif scale == "full":
        n_instances, n_max, trials = 20, 100, 1000
    else:
        raise ValueError(f"unknown scale {scale!r}, expected 'quick' or 'full'")
    rng = np.random.default_rng(seed)
    reports = []

    # Gram-free aggregates vs explicit Gram evaluation.
    worst = 0.0
    samples = 0
    for _ in range(n_instances):
        data, _, G, _ = _draw_instance(rng, n_max, 2.0)
        agg = aggregates(data, G)
        for j in range(G.c):
            quad_ref = gram_quad_oracle(data, G.values[:, j])
            worst = max(worst, abs(agg.quad[j] - quad_ref) / (1.0 + abs(quad_ref)))
            samples += 1
    reports.append(OracleReport.from_error("gram_agreement", worst, 1e-10, samples))

    # Analytic tangent gradient vs central finite differences.
    worst = 0.0
    for _ in range(n_instances * 2):
        n = int(rng.integers(5, 16))
        d = int(rng.integers(1, 4))
        data = DataMatrix.from_points(rng.normal(size=(n, d)))
        g_t = rng.uniform(0.1, 1.0, size=n)
        grad = tangent_gradient(data, g_t)
        fd = finite_diff_gradient(data, g_t, step=1e-5)
        worst = max(worst, float(np.max(np.abs(fd - grad)))
                    / (1.0 + float(np.max(np.abs(grad)))))
    reports.append(OracleReport.from_error("gradient_fd", worst, 1e-6,
                                           n_instances * 2))

    # Surrogate touches the objective at the anchor and dominates elsewhere;
    # h(. | G_t), the cost at G_t's centers, is a difference form, phi is not.
    tang_worst = 0.0
    dom_worst = 0.0
    anchors = max(4, n_instances)
    per_anchor = max(25, trials // anchors)
    for _ in range(anchors):
        data, F_t, G_t, _ = _draw_instance(rng, n_max, 2.0)
        centers_t = compute_centers(aggregates(data, G_t))
        obj_t = phi(data, G_t)
        tang_worst = max(tang_worst, abs(fcm_objective(data, F_t, centers_t, 2.0) - obj_t)
                         / (1.0 + abs(obj_t)))
        for _ in range(per_anchor):
            F = MembershipMatrix.from_values(rng.dirichlet(np.ones(F_t.c), size=data.n))
            obj = phi(data, to_power(F, 2.0))
            gap = obj - fcm_objective(data, F, centers_t, 2.0)
            dom_worst = max(dom_worst, gap / (1.0 + abs(obj)))
    reports.append(OracleReport.from_error("tangency", tang_worst, 1e-10, anchors))
    reports.append(OracleReport.from_error("domination", dom_worst, 1e-9,
                                           anchors * per_anchor))

    # One surrogate step equals one re-weighting inner step, and equals one
    # classic center-then-membership alternation by the textbook formula.
    worst_irw = 0.0
    worst_classic = 0.0
    for _ in range(n_instances * 4):
        data, _, G_t, r = _draw_instance(rng, n_max)
        F_mm = update_membership_mm(data, G_t, r)
        F_irw = update_membership_irw(data, G_t, irw_auxiliary(data, G_t), r)
        centers = compute_centers(aggregates(data, G_t))
        F_classic = classic_update_oracle(data, centers, r)
        worst_irw = max(worst_irw, float(np.max(np.abs(F_mm.values - F_irw.values))))
        worst_classic = max(worst_classic,
                            float(np.max(np.abs(F_mm.values - F_classic.values))))
    reports.append(OracleReport.from_error("single_step_equivalence", worst_irw,
                                           1e-12, n_instances * 4))
    reports.append(OracleReport.from_error("classic_coincidence", worst_classic,
                                           1e-12, n_instances * 4))

    # Monotone descent audit on synthetic blobs.
    spec = SyntheticSpec(blob_count=3, points_per_blob=20, dim=2,
                         blob_stddev=0.5, blob_center_scale=5.0, seed=seed)
    blob_data = make_blobs(spec)
    cfg = SolverConfig(c=3, seed=seed)
    F0 = init_random(blob_data.n, cfg.c, cfg.seed)
    steps = 50 if scale == "quick" else 100
    reports.append(descent_chain_audit(blob_data, F0, cfg, steps))

    # Randomized surrogate-minimizer certificate.
    n = 20 if scale == "quick" else 40
    data = DataMatrix.from_points(rng.normal(size=(n, 2)))
    G_t = to_power(MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=n)), 2.0)
    reports.append(surrogate_argmin_oracle(data, G_t, 2.0, trials, seed))

    return reports
