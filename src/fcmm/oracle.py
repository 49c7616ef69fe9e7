"""Brute-force reference implementations for verification.

Everything here recomputes quantities the slow, obvious way: explicit n x n
Gram matrices, central finite differences, the textbook classic update from
point-center differences, randomized surrogate probing, and a step-by-step
audit of the descent chain. None of it shares math with the optimized code
paths, so agreement is evidence rather than tautology. Used only by the test
suite and the ``validate`` command. The Gram oracles, the finite
differences and the fuzzy-means costs call no BLAS: every sum is a running
sum in a plain Python loop's order from 0.0, so the results are bitwise
those loops' on any BLAS thread count. No check loops in Python per
trial or per perturbed vector: the finite differences take all 2n
perturbed vectors in row chunks, and a check at fixed centers takes the
points' squared distances to them once and costs a stack of memberships
in one array pass (a chunk of certificate trials, an audit step's two h
values, an anchor's domination samples). The Gram matrix (intended for
n <= 200) is built on the first Gram oracle call for a ``DataMatrix`` and
held on that object. In :func:`run_suite`, a solver-side update that raises
ValueError counts as an infinite error for its check, so a broken kernel
is reported as a failed check rather than stopping the battery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, SyntheticSpec, _integer, _real, make_blobs
from .membership import MembershipMatrix, PowerMembership, init_random, to_power
from .objective import (_running_sum, _sq_distances, _weighted_cost, aggregates,
                        compute_centers, phi)
from .solvers import (SolverConfig, _check_start, irw_auxiliary, update_membership_classic,
                      update_membership_irw, update_membership_mm)

_CHUNK = 256  # trials per draw in surrogate_argmin_oracle
_FD_TERMS = 1 << 17  # Gram products per chunk in finite_diff_gradient (1 MB)


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


def _gram_matrix(data: DataMatrix) -> np.ndarray:
    """Explicit Gram matrix of ``data.points``, a read-only n x n ndarray.

    Entry (i, k) sums ``x_il * x_kl`` from 0.0 over the coordinates l in
    order, one coordinate column per pass: bitwise a plain Python loop,
    symmetric, and free of BLAS, whose dot product rounds as its build
    does. Held on ``data`` once built (0.32 MB at n = 200) as a private
    ``_gram`` attribute, not a field, so ``==`` and ``repr`` ignore it.
    """
    held = data.__dict__.get("_gram")
    if held is not None:
        return held
    gram = np.zeros((data.n, data.n))
    for column in data.points.T:
        gram += column[:, None] * column
    gram.setflags(write=False)
    object.__setattr__(data, "_gram", gram)
    return gram


def _quad_form(gram: np.ndarray, g: np.ndarray) -> float:
    """g' gram g as ``(g_i * gram_ik) * g_k`` summed over i, then k, by a
    running sum from 0.0: bitwise a plain double loop, sign of zero too."""
    return float(_running_sum((g[:, None] * gram * g).ravel()))


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
    return _quad_form(_gram_matrix(data), _weights(data, g, "g"))


def gram_vector_oracle(data: DataMatrix, g) -> np.ndarray:
    """Evaluate (X'X)g through the materialized Gram matrix, each entry a
    running sum of ``gram_ik * g_k`` over k from 0.0, as a plain loop."""
    return _running_sum(_gram_matrix(data) * _weights(data, g, "g"))


def finite_diff_gradient(data: DataMatrix, g_t, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of g -> (g'X'Xg)/(g'1), per component.

    The 2n perturbed vectors' quadratic forms (as :func:`_quad_form`) and
    sums are running sums from 0.0, so every bit is a plain loop's. They
    are taken for a chunk of components at a time, at most ``_FD_TERMS``
    Gram products or one component's 2n^2, so at n <= 256 no temporary
    exceeds 1 MB.
    """
    g_t = _weights(data, g_t, "g_t")
    _real(step, "step", 0.0)
    if np.any(g_t <= step):
        raise ValueError("components of g_t must exceed the step size")
    gram = _gram_matrix(data)
    n = data.n
    out = np.empty(n)
    width = max(1, _FD_TERMS // (2 * n * n))
    for start in range(0, n, width):
        comps = np.arange(start, min(start + width, n))
        k = comps.size
        # row p is g_t with component comps[p] up a step, row k + p with it down
        g = np.tile(g_t, (2 * k, 1))
        g[np.arange(k), comps] += step
        g[np.arange(k, 2 * k), comps] -= step
        quad = _running_sum((g[:, :, None] * gram * g[:, None, :]).reshape(2 * k, -1))
        ratio = quad / _running_sum(g)
        out[comps] = (ratio[:k] - ratio[k:]) / (2.0 * step)
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
    cost at G_t's optimal centers (see :mod:`fcmm.objective`), so the
    centers and every point's squared distance to them are taken once,
    and each sample weights those distances as
    :func:`~fcmm.objective.fcm_objective` does. Samples are drawn and
    raised to the power r in chunks of ``_CHUNK`` trials, the same stream
    as one draw per trial: ``trials`` is unbounded, and one draw of all
    would hold trials x n x c floats twice (8 MB each at 1000 trials,
    n = 200, c = 5). A non-finite draw is a ValueError.
    """
    _integer(trials, "trials", 1)
    _integer(seed, "seed", 0)
    dists = _sq_distances(data.points, compute_centers(aggregates(data, G_t)))
    F_star = update_membership_mm(data, G_t, r)
    h_star = _weighted_cost(F_star.values ** r, dists)
    tolerance = 1e-9 * (1.0 + abs(h_star))

    rng = np.random.default_rng(seed)
    worst = 0.0  # the self sample, h_star - h_star
    for start in range(0, trials, _CHUNK):
        draws = rng.dirichlet(np.ones(G_t.c), size=(min(_CHUNK, trials - start), G_t.n))
        if not np.isfinite(draws).all():
            raise ValueError("membership values must be finite")
        worst = max(worst, *(h_star - _weighted_cost(draws ** r, dists)).tolist())
    return OracleReport.from_error("surrogate_argmin", max(0.0, worst),
                                   tolerance, trials + 1)


def descent_chain_audit(data: DataMatrix, F0: MembershipMatrix,
                        cfg: SolverConfig, steps: int) -> OracleReport:
    """Audit the per-step descent chain of the single-loop solver.

    Runs ``steps`` surrogate updates from F0 and checks, for every step,

        phi(F_next) <= h(G_next | G) <= h(G | G) = phi(F),

    each link within ``1e-10 * (1 + |phi(F)|)``. Errors are reported
    normalized by that scale, so the tolerance column reads 1e-10. h(. | G)
    is the fuzzy-means cost at G's optimal centers (see
    :mod:`fcmm.objective`); the points' squared distances to them are
    taken once per step for both h values, so the last link
    compares that difference form with phi's expanded form. A start F0 the
    solvers refuse is a ValueError before any step.
    """
    _integer(steps, "steps", 1)
    G = _check_start(data, F0, cfg)
    worst = 0.0
    obj = phi(data, G)
    for _ in range(steps):
        dists = _sq_distances(data.points, compute_centers(aggregates(data, G)))
        G_next = to_power(update_membership_mm(data, G, cfg.r), cfg.r)
        h_next, h_self = _weighted_cost(np.stack([G_next.values, G.values]), dists).tolist()
        obj_next = phi(data, G_next)
        scale = 1.0 + abs(obj)
        worst = max(worst,
                    (obj_next - h_next) / scale,
                    (h_next - h_self) / scale,
                    abs(h_self - obj) / scale)
        G, obj = G_next, obj_next
    return OracleReport.from_error("descent_chain", worst, 1e-10, steps)


def _draw_instance(rng, n_max, r=None):
    """Gaussian points and a flat-Dirichlet membership of random shape.

    Draws n in [5, n_max], d in [1, 5], c in [2, 5], then r from
    {1.5, 2, 3} unless given, then points and F; returns data, G = F**r
    and r.
    """
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, 6))
    c = int(rng.integers(2, 6))
    if r is None:
        r = float(rng.choice([1.5, 2.0, 3.0]))
    data = DataMatrix.from_points(rng.normal(size=(n, d)))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
    return data, to_power(F, r), r


def _solver_side(update):
    """``update().values``, or None where the solver-side update raises
    ValueError: a broken kernel fails its check, it does not stop the
    battery. The references' errors still propagate."""
    try:
        return update().values
    except ValueError:
        return None


def _max_gap(values, reference) -> float:
    """Largest entrywise ``|values - reference|``; inf where either is None."""
    if values is None or reference is None:
        return np.inf
    return float(np.max(np.abs(values - reference)))


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

    # Gram-free aggregates vs explicit Gram evaluation. The last two data
    # matrices share one shape, so a Gram matrix held per shape fails here;
    # they come from a stream of their own, so no other check's draws move.
    twins = np.random.default_rng([seed, 1])
    twin, G_twin, _ = _draw_instance(twins, n_max, 2.0)
    pairs = [_draw_instance(rng, n_max, 2.0)[:2] for _ in range(n_instances)]
    pairs += [(twin, G_twin), (DataMatrix.from_points(twins.normal(size=twin.points.shape)),
                               G_twin)]
    worst = 0.0
    samples = 0
    for data, G in pairs:
        agg = aggregates(data, G)
        for j in range(G.c):
            quad_ref = gram_quad_oracle(data, G.values[:, j])
            worst = max(worst, abs(agg.quad[j] - quad_ref) / (1.0 + abs(quad_ref)))
            samples += 1
    reports.append(OracleReport.from_error("gram_agreement", worst, 1e-10, samples))

    # Central finite differences of q = quad / mass vs |x_i|^2 - |x_i - m|^2
    # at g_t's center m: phi's gradient is the brackets the MM step builds.
    worst = 0.0
    for _ in range(n_instances * 2):
        n = int(rng.integers(5, 16))
        d = int(rng.integers(1, 4))
        data = DataMatrix.from_points(rng.normal(size=(n, d)))
        g_t = rng.uniform(0.1, 1.0, size=n)
        m = compute_centers(aggregates(data, PowerMembership(g_t[:, None])))[0]
        grad = data.sq_norms - _sq_distances(data.points, [m])[0]
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
        data, G_t, _ = _draw_instance(rng, n_max, 2.0)
        dists = _sq_distances(data.points, compute_centers(aggregates(data, G_t)))
        obj_t = phi(data, G_t)
        tang_worst = max(tang_worst, abs(_weighted_cost(G_t.values, dists) - obj_t)
                         / (1.0 + abs(obj_t)))
        # one draw of all samples is the stream of one draw per sample
        draws = rng.dirichlet(np.ones(G_t.c), size=(per_anchor, data.n))
        Gs = [to_power(MembershipMatrix.from_values(F), 2.0) for F in draws]
        objs = np.array([phi(data, G) for G in Gs])
        gaps = objs - _weighted_cost(np.stack([G.values for G in Gs]), dists)
        dom_worst = max(dom_worst, *(gaps / (1.0 + np.abs(objs))).tolist())
    reports.append(OracleReport.from_error("tangency", tang_worst, 1e-10, anchors))
    reports.append(OracleReport.from_error("domination", dom_worst, 1e-9,
                                           anchors * per_anchor))

    # One surrogate step equals one re-weighting inner step, and equals one
    # classic center-then-membership alternation by the textbook formula.
    worst_irw = 0.0
    worst_classic = 0.0
    for _ in range(n_instances * 4):
        data, G_t, r = _draw_instance(rng, n_max)
        F_mm = _solver_side(lambda: update_membership_mm(data, G_t, r))
        F_irw = _solver_side(
            lambda: update_membership_irw(data, G_t, irw_auxiliary(data, G_t), r))
        centers = compute_centers(aggregates(data, G_t))
        F_classic = classic_update_oracle(data, centers, r).values
        worst_irw = max(worst_irw, _max_gap(F_mm, F_irw))
        worst_classic = max(worst_classic, _max_gap(F_mm, F_classic))
    reports.append(OracleReport.from_error("single_step_equivalence", worst_irw,
                                           1e-12, n_instances * 4))

    # The kernel at explicit centers, with points on them and 1e-9 from
    # them, where it recomputes rows from the differences. r cycles through
    # 1.5, 2 and 3 so every scale draws r = 3, which amplifies a near-center
    # bracket's rounding most. A stream of their own: no other draws move.
    near = np.random.default_rng([seed, 2])
    for k in range(n_instances):
        n = int(near.integers(5, n_max + 1))
        d = int(near.integers(1, 6))
        c = int(near.integers(2, 6))
        r = (1.5, 2.0, 3.0)[k % 3]
        centers = near.normal(size=(c, d))
        points = near.normal(size=(n, d))
        # every third point from the second on a center, from the third 1e-9 from one
        owner = centers[near.integers(0, c, size=n)]
        points[1::3] = owner[1::3]
        points[2::3] = owner[2::3] + 1e-9 * near.normal(size=owner[2::3].shape)
        data = DataMatrix.from_points(points)
        F_kernel = _solver_side(lambda: update_membership_classic(data, centers, r))
        F_classic = classic_update_oracle(data, centers, r).values
        worst_classic = max(worst_classic, _max_gap(F_kernel, F_classic))
    reports.append(OracleReport.from_error("classic_coincidence", worst_classic,
                                           1e-12, n_instances * 5))

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
