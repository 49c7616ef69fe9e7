"""Three solvers, one start: fuzzy clustering on synthetic Gaussian blobs.

Generates a seeded 3-blob dataset, draws one random membership matrix,
and runs the classic alternating solver, the double-loop re-weighting
solver, and the single-loop surrogate solver from that same start.
Prints each solver's convergence table and checks the recovered centers
against the blob layout.

Run:  python demos/01_three_solvers_on_blobs.py
"""

import numpy as np

from fcmm import (SOLVERS, SolverConfig, SyntheticSpec, init_random, make_blobs)

spec = SyntheticSpec(blob_count=3, points_per_blob=50, dim=2,
                     blob_stddev=0.4, blob_center_scale=8.0, seed=3)
data = make_blobs(spec)
truth = np.array([data.points[k * 50:(k + 1) * 50].mean(axis=0) for k in range(3)])

print(f"dataset: {data.n} points in {data.d}D, 3 blobs around")
for center in truth:
    print(f"    ({center[0]:+7.3f}, {center[1]:+7.3f})")

F0 = init_random(data.n, 3, seed=42)
cfg = SolverConfig(c=3, r=2.0, seed=42)

results = {}
for name, solver in SOLVERS.items():
    results[name] = solver(data, F0, cfg)

print("\nper-solver summary (same F0 for all three):")
print(f"{'solver':>9} {'final objective':>18} {'outer iters':>12} {'updates':>8}")
for name, res in results.items():
    last = res.trace.records[-1]
    print(f"{name:>9} {res.objective_final:>18.10f} {last.outer_iter:>12} "
          f"{last.membership_updates:>8}")

print("\nobjective vs outer iteration:")
width = max(len(res.trace.records) for res in results.values())
print(f"{'iter':>5} " + " ".join(f"{name:>16}" for name in results))
for it in range(width):
    row = [f"{it:>5}"]
    for res in results.values():
        recs = res.trace.records
        row.append(f"{recs[it].objective:>16.8f}" if it < len(recs) else " " * 16)
    print(" ".join(row))

print("\nrecovered centers vs blob means (single-loop solver):")
found = results["mm"].centers_final
for center in truth:
    j = int(np.argmin(np.linalg.norm(found - center, axis=1)))
    err = np.linalg.norm(found[j] - center)
    print(f"    blob ({center[0]:+7.3f}, {center[1]:+7.3f}) -> "
          f"center ({found[j][0]:+7.3f}, {found[j][1]:+7.3f})   error {err:.4f}")

print("\nnote how classic and mm produce bitwise the same trajectory (classic")
print("runs the mm update at its centers), while irw spends many membership")
print("updates per outer iteration on its inner loop.")
