"""Benchmark protocol on Iris: objective versus solver work.

Loads the bundled Iris CSV (label column dropped, features standardized),
runs the double-loop and single-loop solvers from one shared seeded
start, and compares them on the machine-independent work unit: the
number of closed-form membership updates needed to get within 1e-6
(relative) of the common final objective.

Run:  python demos/02_iris_work_comparison.py
"""

from pathlib import Path

from fcmm import SolverConfig, init_random, load_csv, solve_fcm_mm, solve_irw_fcm, standardize
from fcmm.cli import LANDMARK_RTOL, updates_to_reach

iris_csv = Path(__file__).resolve().parent.parent / "data" / "iris.csv"
data = standardize(load_csv(iris_csv, drop_columns={4}))
print(f"iris: {data.n} points, {data.d} features (label column dropped)")

F0 = init_random(data.n, 3, seed=42)
cfg = SolverConfig(c=3, r=2.0, seed=42)

res_irw = solve_irw_fcm(data, F0, cfg)
res_mm = solve_fcm_mm(data, F0, cfg)

print(f"\ndouble-loop final objective: {res_irw.objective_final:.10f} "
      f"({res_irw.trace.records[-1].outer_iter} outer iters, "
      f"{res_irw.trace.total_membership_updates()} updates)")
print(f"single-loop final objective: {res_mm.objective_final:.10f} "
      f"({res_mm.trace.records[-1].outer_iter} outer iters, "
      f"{res_mm.trace.total_membership_updates()} updates)")

best = min(res_irw.objective_final, res_mm.objective_final)
threshold = best + LANDMARK_RTOL * abs(best)
print(f"\nlandmark: objective <= {threshold:.10f} "
      "(within 1e-6 relative of the best final value)")

print("\nobjective vs cumulative membership updates:")
print(f"{'updates':>8} {'irw objective':>16} {'':>4} {'updates':>8} {'mm objective':>16}")
rows = max(len(res_irw.trace.records), len(res_mm.trace.records))
for it in range(rows):
    cells = []
    for res in (res_irw, res_mm):
        recs = res.trace.records
        if it < len(recs):
            mark = "*" if recs[it].objective <= threshold else " "
            cells.append(f"{recs[it].membership_updates:>8} {recs[it].objective:>15.8f}{mark}")
        else:
            cells.append(" " * 25)
    print((" " * 4).join(cells))

w_irw = updates_to_reach(res_irw, best)
w_mm = updates_to_reach(res_mm, best)
print(f"\nupdates to reach the landmark:  double-loop {w_irw},  single-loop {w_mm}")
print("the inner loop buys nothing: per outer iteration the double-loop")
print("solver descends further, but per membership update it never wins.")
