"""Workloads: seeded set-up, timed operations and the checks on them.

A workload has a set-up (load or generate, standardize, draw the seeded
starts) and a round: a fixed list of timed operations on that set-up. A
round does the same work every time it runs, so every count and final
objective it produces must repeat bitwise.

Workloads (the seed picks the inputs, nothing else):

iris
    The bundled Iris data (150 x 4, label column dropped), c=3, r=2.
    Per start seed of a block of 40, the three solvers through the public
    API from one start, each checked and timed on its own, then one
    ``cli.cmd_compare`` with all three, whose outputs must match them.
tall
    10 blobs x 10,000 points, d=10, c=10, r=2. MM and classic to
    convergence from one start; IRW for one outer iteration; MM again,
    which must repeat the first MM solve bitwise.
wide
    20 blobs x 5,000 points, d=50, c=20, r=1.2. MM to convergence;
    classic for 5 iterations, checked against a 5-iteration MM solve.
oracle
    The brute-force oracles of ``fcmm.oracle`` for a block of 8 battery
    seeds. A battery: Gram quadratic form and Gram vector for every
    cluster of 10 instances (n=80, c=3), finite-difference gradients of
    20 instances (n=12), one randomized surrogate-minimizer certificate
    (1000 trials) and one 100-step descent-chain audit. Every output is
    checked against numpy evaluations of the same quantities.

Set-up is timed several times before every round, so that its samples
spread over the run like those of the operations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import fcmm
import fcmm.cli
import fcmm.oracle
import checks
import reference

IRIS_BLOCK = 40
ORACLE_BLOCK = 8
ORACLE_GRAM_INSTANCES, ORACLE_GRAM_N, ORACLE_GRAM_C = 10, 80, 3
ORACLE_FD_INSTANCES, ORACLE_FD_N = 20, 12
ORACLE_TRIALS = 1000
ORACLE_CHAIN_STEPS = 100
# Bounds one round of tall (MM twice plus classic) to about a minute, so
# that a traced run (two rounds) ends within three; the solvers' default
# is 500. A capped solve ends with termination max_iters.
TALL_MAX_OUTER = 200
SOLVE = {"mm": "solve_fcm_mm", "classic": "solve_fcm_classic", "irw": "solve_irw_fcm"}


class Run:
    """What one pass over a workload measured and found wrong.

    ``samples`` hold raw times and ``scaled`` the same times at reference
    speed (see :mod:`reference`); without a reference both are equal.
    ``busy_ns`` sums the timed regions only (set-up and operations), so
    the time the benchmark spends checking results is not in it;
    ``busy_scaled_ns`` is the same sum at reference speed. ``log`` keeps
    every sample with its timed region (start, length, kernel times
    before and after) for the details file, so that other estimators can
    be tried on a run after the fact.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.samples = defaultdict(list)
        self.scaled = defaultdict(list)
        self.counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.busy_ns = 0
        self.busy_scaled_ns = 0.0
        self.scale = 1.0
        self._kernel_s = None
        self.log = []
        self._region = None

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return its result and raw milliseconds, and set
        ``scale`` from the reference kernel times around it."""
        before = self._kernel_s
        if self.reference is not None and before is None:
            before = self.reference.measure()
        start = time.perf_counter_ns()
        out = fn(*args)
        elapsed = time.perf_counter_ns() - start
        self.busy_ns += elapsed
        if self.reference is not None:
            self._kernel_s = self.reference.measure()
            speed = self.reference.nominal_s / ((before + self._kernel_s) / 2)
            self.scale = speed ** self.reference.elasticity
            self._region = (start, elapsed, before, self._kernel_s)
        self.busy_scaled_ns += elapsed * self.scale
        return out, elapsed / 1e6

    def timed_parts(self, parts):
        """Run each call in ``parts`` as a timed region of its own; return
        their results and the raw milliseconds of all of them.

        ``scale`` becomes the parts' summed time at reference speed over
        their summed raw time, so a long operation is scaled by kernel
        times taken along it rather than only at its two ends.
        """
        outputs, raw, scaled, regions = [], 0.0, 0.0, []
        for part in parts:
            out, ms = self.timed(part)
            outputs.append(out)
            raw += ms
            scaled += ms * self.scale
            regions.append(self._region)
        if raw > 0:
            self.scale = scaled / raw
        self._region = regions
        return outputs, raw

    def sample(self, name, value):
        """Record a time derived from the last timed region."""
        self.samples[name].append(value)
        self.scaled[name].append(value * self.scale)
        self.log.append((name, value, self._region))

    @contextlib.contextmanager
    def op(self, label):
        """Count one attempted operation; it fails if it raises or a check
        appends a problem to the yielded list."""
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception:  # a raising operation is a failed one; keep going
            problems.append(traceback.format_exc(limit=3).strip())
        if problems:
            self.fail(label, problems)

    def fail(self, label, problems):
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)


def _solve(run, kind, data, F0, cfg, problems):
    """Time one solver call, check it, and return ``(result, ms)``."""
    result, ms = run.timed(getattr(fcmm, SOLVE[kind]), data, F0, cfg)
    problems += checks.check_solve(data, result, cfg.r)
    return result, ms


def _record(run, kind, result, ms, cfg, fingerprint):
    """Per-step time, counts and fingerprint entry of one headline solve.

    The per-step time is wall time per outer iteration, except for IRW,
    where it is per membership update (the paper's unit of work).
    """
    iters = len(result.trace) - 1
    updates = result.trace.total_membership_updates()
    if kind == "irw":
        run.sample("irw_update_ms", ms / updates)
    else:
        run.sample(f"{kind}_iter_ms", ms / iters)
    run.counts[f"solvers.{kind}.outer_iters"] += iters
    run.counts[f"solvers.{kind}.final_objective"] += result.objective_final
    cap_hits = 0
    if kind == "irw":
        cap_hits = checks.inner_cap_hits(result, cfg.max_inner_iters)
        run.counts["solvers.irw.membership_updates"] += updates
        run.counts["solvers.irw.inner_cap_hits"] += cap_hits
    fingerprint.append((kind, iters, updates, cap_hits, result.termination,
                        result.objective_final.hex()))


# --------------------------------------------------------------------- iris

def setup_iris(root, seed):
    out_dir = os.path.join(root, ".bench_out", "iris-compare")
    seeds = range(seed * IRIS_BLOCK, (seed + 1) * IRIS_BLOCK)
    manifests = [fcmm.cli.iris_manifest(os.path.join(root, "data", "iris.csv"), out_dir,
                                        ("classic", "irw", "mm"), seed=s) for s in seeds]
    data = fcmm.cli.load_manifest_dataset(manifests[0])
    starts = [fcmm.init_random(data.n, m.cfg.c, m.cfg.seed) for m in manifests]
    return {"data": data, "manifests": manifests, "starts": starts, "out_dir": out_dir}


def round_iris(run, state):
    fingerprint = []
    data = state["data"]
    for manifest, F0 in zip(state["manifests"], state["starts"]):
        cfg = manifest.cfg
        results = {}
        for kind in ("mm", "classic", "irw"):
            with run.op(f"{kind} seed {cfg.seed}") as problems:
                result, ms = _solve(run, kind, data, F0, cfg, problems)
                run.sample(f"{kind}_solve_s", ms / 1e3)
                _record(run, kind, result, ms, cfg, fingerprint)
                results[kind] = result
                if kind == "classic" and "mm" in results:
                    problems += checks.check_same_path(results["mm"], result)
                if kind == "irw":
                    best = min(res.objective_final for res in results.values())
                    problems += checks.check_near_best(result, best)
        with run.op(f"compare seed {cfg.seed}") as problems:
            (status, report), ms = run.timed(fcmm.cli.cmd_compare, manifest)
            run.sample("compare_ms", ms)
            if status != 0:
                problems.append(f"cmd_compare exit status {status}")
            elif len(results) == 3:
                problems += checks.check_compare_outputs(state["out_dir"], report, results)
                for kind, row in report["per_algorithm"].items():
                    run.counts[f"solvers.{kind}.updates_to_best"] += row["updates_to_best"]
                    fingerprint.append((kind, "updates_to_best", row["updates_to_best"]))
    return fingerprint


# ------------------------------------------------------------- tall, wide

def _blobs_setup(seed, blob_count, points_per_blob, dim, c):
    spec = fcmm.SyntheticSpec(blob_count=blob_count, points_per_blob=points_per_blob,
                              dim=dim, seed=seed)
    data = fcmm.standardize(fcmm.make_blobs(spec))
    return {"data": data, "F0": fcmm.init_random(data.n, c, seed)}


def setup_tall(root, seed):
    return _blobs_setup(seed, 10, 10_000, 10, 10)


def round_tall(run, state):
    fingerprint = []
    data, F0 = state["data"], state["F0"]
    cfg = fcmm.SolverConfig(c=10, r=2.0, max_outer_iters=TALL_MAX_OUTER)
    results = {}
    for kind in ("mm", "classic"):
        with run.op(kind) as problems:
            result, ms = _solve(run, kind, data, F0, cfg, problems)
            run.sample(f"{kind}_solve_s", ms / 1e3)
            _record(run, kind, result, ms, cfg, fingerprint)
            results[kind] = result
            if kind == "classic" and "mm" in results:
                problems += checks.check_same_path(results["mm"], result)
    irw_cfg = fcmm.SolverConfig(c=10, r=2.0, max_outer_iters=1)
    with run.op("irw") as problems:
        result, ms = _solve(run, "irw", data, F0, irw_cfg, problems)
        _record(run, "irw", result, ms, irw_cfg, fingerprint)
    with run.op("mm again") as problems:
        again, ms = _solve(run, "mm", data, F0, cfg, problems)
        run.sample("mm_solve_s", ms / 1e3)
        run.sample("mm_iter_ms", ms / (len(again.trace) - 1))
        first = results["mm"]
        if (again.objective_final.hex() != first.objective_final.hex()
                or not np.array_equal(again.F_final.values, first.F_final.values)):
            problems.append("second MM solve differs from the first")
    return fingerprint


def setup_wide(root, seed):
    return _blobs_setup(seed, 20, 5_000, 50, 20)


def round_wide(run, state):
    fingerprint = []
    data, F0 = state["data"], state["F0"]
    cfg = fcmm.SolverConfig(c=20, r=1.2)
    with run.op("mm") as problems:
        result, ms = _solve(run, "mm", data, F0, cfg, problems)
        run.sample("mm_solve_s", ms / 1e3)
        _record(run, "mm", result, ms, cfg, fingerprint)
    short = fcmm.SolverConfig(c=20, r=1.2, max_outer_iters=5)
    with run.op("classic") as problems:
        classic, ms = _solve(run, "classic", data, F0, short, problems)
        _record(run, "classic", classic, ms, short, fingerprint)
    with run.op("mm, 5 iterations") as problems:
        mm_short, _ = _solve(run, "mm", data, F0, short, problems)
        problems += checks.check_same_path(mm_short, classic)
    return fingerprint


# ------------------------------------------------------------------- oracle

def _oracle_battery_inputs(rng, battery_seed):
    """Seeded instances for one battery, built through fcmm's public API.

    Shapes are fixed and only values come from the seed, so a battery
    costs the same on every seed.
    """
    gram = []
    for i in range(ORACLE_GRAM_INSTANCES):
        points = rng.normal(size=(ORACLE_GRAM_N, 1 + i % 5))
        F = fcmm.MembershipMatrix.from_values(
            rng.dirichlet(np.ones(ORACLE_GRAM_C), size=ORACLE_GRAM_N))
        gram.append((fcmm.DataMatrix.from_points(points), fcmm.to_power(F, 2.0)))
    gradient = [(fcmm.DataMatrix.from_points(rng.normal(size=(ORACLE_FD_N, 1 + i % 3))),
                 rng.uniform(0.1, 1.0, size=ORACLE_FD_N))
                for i in range(ORACLE_FD_INSTANCES)]
    F = fcmm.MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=40))
    surrogate = (fcmm.DataMatrix.from_points(rng.normal(size=(40, 2))), fcmm.to_power(F, 2.0))
    spec = fcmm.SyntheticSpec(blob_count=3, points_per_blob=20, dim=2, blob_stddev=0.5,
                              blob_center_scale=5.0, seed=battery_seed)
    blobs = fcmm.make_blobs(spec)
    cfg = fcmm.SolverConfig(c=3, seed=battery_seed)
    chain = (blobs, fcmm.init_random(blobs.n, cfg.c, cfg.seed), cfg)
    return {"seed": battery_seed, "gram": gram, "gradient": gradient,
            "surrogate": surrogate, "chain": chain}


def setup_oracle(root, seed):
    seeds = range(seed * ORACLE_BLOCK, (seed + 1) * ORACLE_BLOCK)
    return {"batteries": [_oracle_battery_inputs(np.random.default_rng(s), s)
                          for s in seeds]}


def _oracle_parts(battery):
    """One battery as a list of calls: one per Gram instance, then one for
    the gradients, the surrogate certificate and the descent audit."""
    def gram(data, G):
        return [(fcmm.oracle.gram_quad_oracle(data, G.values[:, j]),
                 fcmm.oracle.gram_vector_oracle(data, G.values[:, j]))
                for j in range(G.c)]

    def rest():
        gradient = [fcmm.oracle.finite_diff_gradient(data, g_t, step=1e-5)
                    for data, g_t in battery["gradient"]]
        data, G_t = battery["surrogate"]
        surrogate = fcmm.oracle.surrogate_argmin_oracle(data, G_t, 2.0, ORACLE_TRIALS,
                                                         battery["seed"])
        chain = fcmm.oracle.descent_chain_audit(*battery["chain"], ORACLE_CHAIN_STEPS)
        return gradient, surrogate, chain

    return [functools.partial(gram, data, G) for data, G in battery["gram"]] + [rest]


def round_oracle(run, state):
    fingerprint = []
    for battery in state["batteries"]:
        with run.op(f"oracle battery {battery['seed']}") as problems:
            outputs, ms = run.timed_parts(_oracle_parts(battery))
            gram, (gradient, surrogate, chain) = outputs[:-1], outputs[-1]
            run.sample("oracle_battery_s", ms / 1e3)
            for (data, G), outputs in zip(battery["gram"], gram):
                for j, (quad, vector) in enumerate(outputs):
                    problems += checks.check_gram(data, G.values[:, j], quad, vector)
            for (data, g_t), fd in zip(battery["gradient"], gradient):
                problems += checks.check_gradient(data, g_t, fd)
            problems += checks.check_report(surrogate, ORACLE_TRIALS + 1)
            problems += checks.check_report(chain, ORACLE_CHAIN_STEPS)
            run.counts["oracle.gram_calls"] += 2 * sum(len(o) for o in gram)
            fingerprint.append((float(np.sum([q for o in gram for q, _ in o])).hex(),
                                float(np.sum([np.sum(v) for o in gram for _, v in o])).hex(),
                                float(np.sum([np.sum(fd) for fd in gradient])).hex(),
                                surrogate.max_error.hex(), chain.max_error.hex()))
    return fingerprint


WORKLOADS = {
    "iris": (setup_iris, round_iris, 7),
    "tall": (setup_tall, round_tall, 7),
    "wide": (setup_wide, round_wide, 5),
    "oracle": (setup_oracle, round_oracle, 7),
}
"""name -> (set-up, round, set-ups timed before each round)."""

# The end-to-end metric each workload reports as ``op_ms``.
HEADLINE = {"iris": ("compare_ms", 1.0), "tall": ("mm_iter_ms", 1.0),
            "wide": ("mm_iter_ms", 1.0), "oracle": ("oracle_battery_s", 1e3)}


def timed_setup(run, workload, root, seed, repeats):
    setup = WORKLOADS[workload][0]
    state = None
    for _ in range(repeats):
        state, ms = run.timed(setup, root, seed)
        run.sample("setup_s", ms / 1e3)
    return state


def measure(workload, root, seed, seconds):
    """Repeat set-ups and a round until ``seconds`` are used.

    A round is not started when the mean round so far would overrun;
    at least one round runs. Rounds after the first must reproduce the
    first one's fingerprint.
    """
    _, do_round, repeats = WORKLOADS[workload]
    run = Run(reference.for_workload(workload))
    start = time.perf_counter()
    fingerprints, durations, counts = [], [], []
    while True:
        t0 = time.perf_counter()
        state = timed_setup(run, workload, root, seed, repeats)
        run.counts = Counter()
        fingerprints.append(do_round(run, state))
        counts.append(run.counts)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.fmean(durations) > seconds:
            break
    for i, fp in enumerate(fingerprints[1:], start=2):
        if fp != fingerprints[0]:
            run.fail(f"round {i}", ["counts or final objectives differ from round 1"])
    run.counts = counts[0]
    return run, fingerprints[0], len(fingerprints)


def summarize(samples):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (left out below 20 samples)."""
    out = {}
    for name, values in samples.items():
        values = sorted(values)
        n = len(values)
        row = {"median": statistics.median(values), "n": n}
        if n >= 20:
            pct = int(100 * (1 - 10 / n))
            row[f"p{pct}"] = float(np.percentile(values, pct))
        out[name] = row
    return out
