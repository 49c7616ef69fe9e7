"""Brute-force reference implementations for verification.

Everything here recomputes quantities the slow, obvious way: explicit n x n
Gram matrices, central finite differences, the textbook classic update from
point-center differences, randomized surrogate probing, and a step-by-step
audit of the descent chain. None of it shares math with the optimized code
paths, so agreement is evidence rather than tautology. Used only by the test
suite and the ``validate`` command, whose battery is the table ``CHECKS``.
The Gram oracles, the finite differences and the fuzzy-means costs call no
BLAS: every sum is a running sum in a plain Python loop's order from 0.0,
so the results are bitwise those loops' on any BLAS thread count. The
finite differences take all 2n perturbed vectors in row chunks, and the
descent audit certifies its steps a chunk at a time, up to G's first
bitwise repeat. A check at fixed centers takes the points' squared
distances to them once and costs a stack of memberships in one array
pass (a chunk of certificate trials, an audit chunk's pairs of h
values, an anchor's domination samples).
Only domination loops in Python per sample, for one ``phi`` call
each: the program's phi is what it checks. The Gram matrix (intended for
n <= 200) is built on the first Gram oracle call for a ``DataMatrix`` and
held on that object.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, SyntheticSpec, _integer, _real, make_blobs
from .membership import MembershipMatrix, PowerMembership, _check_finite, init_random, to_power
from .objective import (_TERMS, _running_sum, _sq_distances, _weighted_cost, aggregates,
                        compute_centers, phi)
from .solvers import (SolverConfig, _centers, _check_start, irw_auxiliary,
                      update_membership_irw, update_membership_mm)

_CHUNK = 256  # trials per draw in surrogate_argmin_oracle


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


def _quad_forms(gram: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """g' gram g for each row g of the k x n stack gs, as ``(g_i * gram_ik) * g_k``
    summed over i, then k, by a running sum from 0.0: bitwise a plain double
    loop, sign of zero too. The one g'Kg of the Gram oracles."""
    return _running_sum((gs[:, :, None] * gram * gs[:, None, :]).reshape(len(gs), -1))


def _weights(data: DataMatrix, g, name: str) -> np.ndarray:
    """g as a length-n float64 vector; any other shape is a ValueError."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (data.n,):
        raise ValueError(f"{name} must be a length-{data.n} vector")
    return g


def _worst(errors) -> float:
    """The largest of 0.0 and the floats ``errors``, the first of equals as
    Python's ``max`` takes it; NaN if any error is NaN, which ``max`` would
    drop, so a NaN error fails its check."""
    errors = [0.0, *errors]
    return np.nan if np.isnan(errors).any() else max(errors)


def gram_quad_oracle(data: DataMatrix, g) -> float:
    """Evaluate g'(X'X)g through the materialized Gram matrix.

    Intended for n <= 200; the optimized path never forms this matrix.
    """
    return float(_quad_forms(_gram_matrix(data), _weights(data, g, "g")[None])[0])


def gram_vector_oracle(data: DataMatrix, g) -> np.ndarray:
    """Evaluate (X'X)g through the materialized Gram matrix, each entry a
    running sum of ``gram_ik * g_k`` over k from 0.0, as a plain loop."""
    return _running_sum(_gram_matrix(data) * _weights(data, g, "g"))


def finite_diff_gradient(data: DataMatrix, g_t, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of g -> (g'X'Xg)/(g'1), per component.

    The 2n perturbed vectors' quadratic forms (by :func:`_quad_forms`) and
    sums are running sums from 0.0, so every bit is a plain loop's. They
    are taken for a chunk of components at a time, at most ``_TERMS``
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
    width = max(1, _TERMS // (2 * n * n))
    for start in range(0, n, width):
        comps = np.arange(start, min(start + width, n))
        k = comps.size
        # row p is g_t with component comps[p] up a step, row k + p with it down
        g = np.tile(g_t, (2 * k, 1))
        g[np.arange(k), comps] += step
        g[np.arange(k, 2 * k), comps] -= step
        ratio = _quad_forms(gram, g) / _running_sum(g)
        out[comps] = (ratio[:k] - ratio[k:]) / (2.0 * step)
    return out


def classic_update_oracle(data: DataMatrix, centers, r: float) -> MembershipMatrix:
    """Classic membership update by the textbook formula.

    ``f_ij = 1 / sum_k (b_ij / b_ik)^(1/(r-1))`` with ``b_ij = |x_i - m_j|^2``
    from the n x c x d point-center differences. A point on one or more
    centers (``b_ij == 0``) splits uniformly over them. ``centers`` is read
    as the solvers' update reads it.
    """
    _real(r, "r", 1.0)
    diffs = data.points[:, None, :] - _centers(data, centers)[None, :, :]
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
    dists = _sq_distances(data.points, compute_centers(data, G_t))
    F_star = update_membership_mm(data, G_t, r)
    h_star = _weighted_cost(F_star.values ** r, dists)
    tolerance = 1e-9 * (1.0 + abs(h_star))

    rng = np.random.default_rng(seed)
    gaps = []  # with _worst's 0.0 for the self sample, h_star - h_star
    for start in range(0, trials, _CHUNK):
        draws = rng.dirichlet(np.ones(G_t.c), size=(min(_CHUNK, trials - start), G_t.n))
        _check_finite(draws)
        gaps += (h_star - _weighted_cost(draws ** r, dists)).tolist()
    return OracleReport.from_error("surrogate_argmin", _worst(gaps), tolerance, trials + 1)


def descent_chain_audit(data: DataMatrix, F0: MembershipMatrix,
                        cfg: SolverConfig, steps: int) -> OracleReport:
    """Audit the per-step descent chain of the single-loop solver.

    Runs ``steps`` surrogate updates from F0 and checks, for every step,

        phi(F_next) <= h(G_next | G) <= h(G | G) = phi(F),

    each link within ``1e-10 * (1 + |phi(F)|)``. Errors are reported
    normalized by that scale, so the tolerance column reads 1e-10. h(. | G)
    is the fuzzy-means cost at G's optimal centers (see
    :mod:`fcmm.objective`), so the last link compares that difference form
    with phi's expanded form. The steps run in chunks of at most ``_TERMS``
    point-center terms, c n d per step; each chunk then takes its steps'
    squared distances in one call and both h values of every step in one
    cost pass, with the same bits as one step at a time. A start F0 the
    solvers refuse is a ValueError before any step.

    An MM step reads only G's bits (data, r and the BLAS thread count are
    fixed within a call), so once G equals an earlier state of its chunk
    bitwise, every later step replays one already certified: the audit
    stops there, with the full run's ``max_error`` and ``samples`` still
    ``steps``. The chunk's states are looked up by phi and confirmed by
    ``np.array_equal``; a phi match alone never stops it.
    """
    _integer(steps, "steps", 1)
    G = _check_start(data, F0, cfg)
    width = max(1, _TERMS // (cfg.c * data.n * data.d))
    errors, objs, values = [], [phi(data, G)], [G.values]
    for start in range(0, steps, width):
        centers, objs, values = [], objs[-1:], values[-1:]
        held = {objs[0]: [values[0]]}  # the chunk's states by their phi
        for _ in range(min(width, steps - start)):
            centers.append(compute_centers(data, G))
            G = to_power(update_membership_mm(data, G, cfg.r), cfg.r)
            objs.append(phi(data, G))
            values.append(G.values)
            same_phi = held.setdefault(objs[-1], [])
            if repeat := any(np.array_equal(G.values, held_g) for held_g in same_phi):
                break
            same_phi.append(G.values)
        dists = _sq_distances(data.points, np.stack(centers))
        pairs = np.stack([values[1:], values[:-1]], axis=1)  # [G_next, G] per step
        h_next, h_self = _weighted_cost(pairs, dists[:, None]).T
        obj, obj_next = np.array(objs[:-1]), np.array(objs[1:])
        scale = 1.0 + abs(obj)
        errors += np.stack([(obj_next - h_next) / scale, (h_next - h_self) / scale,
                            abs(h_self - obj) / scale], axis=1).ravel().tolist()
        if repeat:  # every later step replays one certified above
            break
    return OracleReport.from_error("descent_chain", _worst(errors), 1e-10, steps)


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


def _draw_on_centers(rng, n_max, r):
    """:func:`_draw_instance` with points on its MM centers and 1e-9 from them.

    With k = min(c - 1, (n - c) // 2), rows 1..2k go one-hot in cluster 0, so
    clusters 1..k weigh them 0 and their centers stay bitwise in place as
    rows 1..k move onto them and rows k+1..2k to 1e-9 from them. The other
    n - 2k >= c rows keep the centers apart; with fewer, some coincide.
    """
    data, G, r = _draw_instance(rng, n_max, r)
    k = min(G.c - 1, (G.n - G.c) // 2)
    g = G.values.copy()
    g[1:2 * k + 1] = np.eye(G.c)[0]
    G = PowerMembership(g)
    centers = compute_centers(data, G)[1:k + 1]
    points = data.points.copy()
    points[1:2 * k + 1] = np.vstack([centers, centers + 1e-9 * rng.normal(size=centers.shape)])
    return DataMatrix.from_points(points), G, r


def _solver_side(update):
    """``update().values``, or inf where that solver-side update raises ValueError:
    a broken kernel fails its check (a NaN gap if both sides raise) instead of
    stopping the battery. The references' errors still propagate."""
    try:
        return update().values
    except ValueError:
        return np.inf


def _gram_agreement(rng, size):
    """Gram-free aggregates against explicit Gram evaluation. The last two data
    matrices share one shape and G, so a Gram matrix held per shape fails here."""
    pairs = [_draw_instance(rng, size.n_max, 2.0)[:2] for _ in range(size.instances + 1)]
    twin, G = pairs[-1]
    pairs.append((DataMatrix.from_points(rng.normal(size=twin.points.shape)), G))
    errors = []
    for data, G in pairs:
        quad_refs = [gram_quad_oracle(data, g) for g in G.values.T]
        errors += [abs(quad - ref) / (1.0 + abs(ref))
                   for quad, ref in zip(aggregates(data, G).quad, quad_refs)]
    return [OracleReport.from_error("gram_agreement", _worst(errors), 1e-10, len(errors))]


def _gradient_fd(rng, size):
    """Central finite differences of q = quad / mass against
    |x_i|^2 - |x_i - m|^2 at g_t's center m: phi's gradient is the brackets
    the MM step builds."""
    errors = []
    for _ in range(size.instances * 2):
        n = int(rng.integers(5, 16))
        d = int(rng.integers(1, 4))
        data = DataMatrix.from_points(rng.normal(size=(n, d)))
        g_t = rng.uniform(0.1, 1.0, size=n)
        m = compute_centers(data, PowerMembership(g_t[:, None]))[0]
        grad = data.sq_norms - _sq_distances(data.points, m)
        fd = finite_diff_gradient(data, g_t, step=1e-5)
        errors.append(np.max(np.abs(fd - grad)) / (1.0 + np.max(np.abs(grad))))
    return [OracleReport.from_error("gradient_fd", _worst(errors), 1e-6, len(errors))]


def _surrogate_contact(rng, size):
    """The surrogate touches the objective at the anchor and dominates it
    elsewhere; h(. | G_t), the cost at G_t's centers, is a difference form,
    phi is not."""
    tangency, domination = [], []
    anchors = max(4, size.instances)
    per_anchor = max(25, size.trials // anchors)
    for _ in range(anchors):
        data, G_t, _ = _draw_instance(rng, size.n_max, 2.0)
        dists = _sq_distances(data.points, compute_centers(data, G_t))
        obj_t = phi(data, G_t)
        tangency.append(abs(_weighted_cost(G_t.values, dists) - obj_t) / (1.0 + abs(obj_t)))
        # one draw of all samples is the stream of one draw per sample
        draws = rng.dirichlet(np.ones(G_t.c), size=(per_anchor, data.n))
        Gs = [to_power(MembershipMatrix.from_values(F), 2.0) for F in draws]
        objs = np.array([phi(data, G) for G in Gs])
        gaps = objs - _weighted_cost(np.stack([G.values for G in Gs]), dists)
        domination += (gaps / (1.0 + np.abs(objs))).tolist()
    return [OracleReport.from_error("tangency", _worst(tangency), 1e-10, anchors),
            OracleReport.from_error("domination", _worst(domination), 1e-9,
                                    anchors * per_anchor)]


def _single_step(rng, size):
    """One surrogate step equals one re-weighting inner step, and one classic
    center-then-membership alternation by the textbook formula. The last
    ``size.instances`` draws put points on and 1e-9 from the MM centers, r
    cycling from 3, where their rounding shows most, to 1.5 and 2."""
    instances = [_draw_instance(rng, size.n_max) for _ in range(size.instances * 4)]
    instances += [_draw_on_centers(rng, size.n_max, (3.0, 1.5, 2.0)[k % 3])
                  for k in range(size.instances)]
    irw_gaps, classic_gaps = [], []
    for data, G_t, r in instances:
        F_mm = _solver_side(lambda: update_membership_mm(data, G_t, r))
        F_irw = _solver_side(
            lambda: update_membership_irw(data, G_t, irw_auxiliary(data, G_t), r))
        F_classic = classic_update_oracle(data, compute_centers(data, G_t), r).values
        irw_gaps.append(np.max(np.abs(F_mm - F_irw)))
        classic_gaps.append(np.max(np.abs(F_mm - F_classic)))
    return [OracleReport.from_error(name, _worst(gaps), 1e-12, len(instances)) for name, gaps
            in (("single_step_equivalence", irw_gaps), ("classic_coincidence", classic_gaps))]


def _descent(rng, size):
    """Monotone descent audit on synthetic blobs from a random start."""
    seed = int(rng.integers(1 << 32))
    blobs = make_blobs(SyntheticSpec(blob_count=3, points_per_blob=20, dim=2,
                                     blob_stddev=0.5, blob_center_scale=5.0, seed=seed))
    return [descent_chain_audit(blobs, init_random(blobs.n, 3, seed), SolverConfig(c=3),
                                size.steps)]


def _certificate(rng, size):
    """Randomized surrogate-minimizer certificate."""
    data = DataMatrix.from_points(rng.normal(size=(size.certificate_n, 2)))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=size.certificate_n))
    return [surrogate_argmin_oracle(data, to_power(F, 2.0), 2.0, size.trials,
                                    int(rng.integers(1 << 32)))]


# Every check with the fixed key of its stream, default_rng([seed, key]):
# a check's draws are its own, so a draw added to one moves no other's.
CHECKS = ((1, _gram_agreement), (2, _gradient_fd), (3, _surrogate_contact),
          (4, _single_step), (5, _descent), (6, _certificate))

# Every per-scale size, the scales in ``fcmm validate --scale``'s order.
_Sizes = namedtuple("_Sizes", "instances n_max trials steps certificate_n")
SCALES = {"quick": _Sizes(5, 30, 200, 50, 20), "full": _Sizes(20, 100, 1000, 100, 40)}


def run_suite(scale: str = "quick", seed: int = 0) -> list:
    """Run the full verification battery and return its reports, by ``CHECKS``.

    ``quick`` keeps instances at n <= 30 with at most 200 randomized
    trials; ``full`` raises both (``SCALES``). Each check draws from its own
    ``default_rng([seed, key])``. Deterministic for a fixed seed.
    """
    _integer(seed, "seed", 0)
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}, expected one of {tuple(SCALES)}")
    return [report for key, check in CHECKS
            for report in check(np.random.default_rng([seed, key]), SCALES[scale])]
