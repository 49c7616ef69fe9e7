"""Correctness gate for every operation the benchmark times.

Each check returns a list of problems; an empty list passes. The checks
hold references to fcmm's functions taken when this module is imported,
before any span wrapper is installed, so checking never adds spans.
"""

from __future__ import annotations

import json
import os

import numpy as np

from fcmm.cli import TRACE_HEADER, updates_to_reach
from fcmm.membership import validate
from fcmm.objective import fcm_objective

OBJECTIVE_RTOL = 1e-10
RISE_RTOL = 1e-10
SAME_PATH_ATOL = 1e-12
IRW_BEST_RTOL = 1e-6
# The verification battery's own tolerances for the same comparisons.
GRAM_RTOL = 1e-10
GRADIENT_RTOL = 1e-6


def check_solve(data, result, r):
    """Simplex rows, objective against the difference form, no rise."""
    problems = []
    report = validate(result.F_final)
    if not report.passed:
        problems.append(f"F_final off the simplex ({report})")
    if result.centers_final is None:
        problems.append(f"no final centers (termination {result.termination})")
    else:
        reference = fcm_objective(data, result.F_final, result.centers_final, r)
        if not abs(result.objective_final - reference) <= OBJECTIVE_RTOL * abs(reference):
            problems.append(f"objective_final {result.objective_final!r} differs from "
                            f"the difference-form objective {reference!r}")
    objectives = result.trace.objectives()
    if objectives.size == 0 or objectives[-1] != result.objective_final:
        problems.append("objective_final is not the trace's last objective")
    rises = np.flatnonzero(np.diff(objectives) > RISE_RTOL * np.abs(objectives[:-1]))
    if rises.size:
        problems.append(f"trace rises at iteration {int(rises[0]) + 1}")
    return problems


def check_same_path(mm, classic):
    """MM and classic from one start take the same path."""
    problems = []
    if len(mm.trace) != len(classic.trace):
        problems.append(f"MM took {len(mm.trace) - 1} iterations, "
                        f"classic {len(classic.trace) - 1}")
    gap = float(np.max(np.abs(mm.F_final.values - classic.F_final.values)))
    if not gap <= SAME_PATH_ATOL:
        problems.append(f"final memberships of MM and classic differ by {gap:.3e}")
    return problems


def check_near_best(result, best):
    """The solve ends within IRW_BEST_RTOL (relative) of the best objective."""
    excess = result.objective_final - best
    if excess > IRW_BEST_RTOL * abs(best):
        return [f"objective {result.objective_final!r} is {excess / abs(best):.3e} "
                f"(relative) above the best {best!r}"]
    return []


def check_compare_outputs(out_dir, report, results):
    """The compare report, trace CSVs and summary.json agree with ``results``.

    ``results`` are direct solves of the same data from the same start,
    so every final objective must match bitwise.
    """
    problems = []
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    best = report["best_objective"]
    for name, result in results.items():
        with open(os.path.join(out_dir, f"{name}_trace.csv")) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            problems.append(f"{name}_trace.csv header is {lines[:1]!r}")
            continue
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(result.trace) or float(rows[-1][1]) != result.objective_final:
            problems.append(f"{name}_trace.csv does not match the direct solve")
        if summary.get(name, {}).get("final_objective") != result.objective_final:
            problems.append(f"summary.json {name} final_objective differs")
        row = report["per_algorithm"][name]
        if row["final_objective"] != result.objective_final:
            problems.append(f"compare {name} final objective {row['final_objective']!r} "
                            f"!= direct solve {result.objective_final!r}")
        if row["updates_to_best"] != updates_to_reach(result, best):
            problems.append(f"compare {name} updates_to_best differs from its trace")
    return problems


def check_gram(data, g, quad, vector):
    """Gram oracles against ``||X'g||^2`` and ``X (X'g)`` from numpy."""
    y = data.points.T @ g
    quad_ref = float(y @ y)
    vector_ref = data.points @ y
    problems = []
    if not abs(quad - quad_ref) <= GRAM_RTOL * (1.0 + abs(quad_ref)):
        problems.append(f"gram_quad_oracle {quad!r} != {quad_ref!r}")
    gap = float(np.max(np.abs(vector - vector_ref)))
    if not gap <= GRAM_RTOL * (1.0 + float(np.max(np.abs(vector_ref)))):
        problems.append(f"gram_vector_oracle differs from X X'g by {gap:.3e}")
    return problems


def check_gradient(data, g_t, fd):
    """Finite differences against the analytic gradient of g'X X'g / g'1."""
    y = data.points.T @ g_t
    mass = float(g_t.sum())
    grad = 2.0 * (data.points @ y) / mass - float(y @ y) / mass ** 2
    gap = float(np.max(np.abs(fd - grad)))
    if not gap <= GRADIENT_RTOL * (1.0 + float(np.max(np.abs(grad)))):
        return [f"finite_diff_gradient differs from the analytic gradient by {gap:.3e}"]
    return []


def check_report(report, samples):
    """An oracle report that passed, over the expected number of samples."""
    if not report.passed or report.samples != samples or not report.max_error >= 0.0:
        return [f"oracle report {report} (expected {samples} samples)"]
    return []


def inner_cap_hits(result, max_inner_iters):
    """Outer iterations whose inner loop stopped at the cap."""
    return sum(1 for rec in result.trace.records[1:]
               if rec.inner_iters == max_inner_iters)
