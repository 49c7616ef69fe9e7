"""The core identity: one surrogate step is one inner step of the re-weighting.

Three routes to the same membership update, all starting from the same
powered matrix G:

  * surrogate route: minimize the tangent-plane upper bound in closed form;
  * re-weighting route: freeze the scalars s_j and apply the
    linearized-subproblem update once;
  * classic route: compute the optimal centers and apply the textbook
    inverse-distance update to the point-center differences
    (``fcmm.oracle.classic_update_oracle``, the reference the solvers'
    shared update is checked against).

Algebraically identical, computed through different intermediates. The
demo measures the largest elementwise gap over random instances. The
solvers make the identity literal: the classic solver runs the MM update
at its centers, so its trajectory is bitwise MM's; the double-loop
solver's first inner step is the surrogate step, and the single-loop
solver is the double loop capped at one inner step, so the two
trajectories agree bitwise.

Run:  python demos/03_single_step_identity.py
"""

import numpy as np

from fcmm import (DataMatrix, MembershipMatrix, SolverConfig, aggregates,
                  compute_centers, init_random, solve_fcm_mm, solve_irw_fcm, to_power)
from fcmm.oracle import classic_update_oracle
from fcmm.solvers import irw_auxiliary, update_membership_irw, update_membership_mm

rng = np.random.default_rng(0)

print("single-step gaps over 200 random instances (n<=50, d<=5, c<=5):")
worst_irw = worst_classic = 0.0
for _ in range(200):
    n, d, c = int(rng.integers(5, 51)), int(rng.integers(1, 6)), int(rng.integers(2, 6))
    r = float(rng.choice([1.5, 2.0, 3.0]))
    data = DataMatrix.from_points(rng.normal(size=(n, d)))
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(c), size=n))
    G = to_power(F, r)

    F_mm = update_membership_mm(data, G, r)
    F_irw = update_membership_irw(data, G, irw_auxiliary(data, G), r)
    F_classic = classic_update_oracle(data, compute_centers(aggregates(data, G)), r)

    worst_irw = max(worst_irw, np.max(np.abs(F_mm.values - F_irw.values)))
    worst_classic = max(worst_classic, np.max(np.abs(F_mm.values - F_classic.values)))

print(f"    surrogate vs re-weighting    : {worst_irw:.3e}")
print(f"    surrogate vs textbook classic: {worst_classic:.3e}")
print("    (pure rounding noise; the updates are the same formula)")

print("\ncapping the inner loop at one iteration turns the double loop")
print("into the single loop, trajectory and all:")
data = DataMatrix.from_points(rng.normal(size=(60, 3)))
F0 = init_random(60, 3, seed=1)
res_irw1 = solve_irw_fcm(data, F0, SolverConfig(c=3, max_inner_iters=1))
res_mm = solve_fcm_mm(data, F0, SolverConfig(c=3))
objs_irw = res_irw1.trace.objectives()
objs_mm = res_mm.trace.objectives()
print(f"    outer iterations: {len(objs_irw) - 1} vs {len(objs_mm) - 1}")
print(f"    objectives bitwise equal along the trajectory: "
      f"{[o.hex() for o in objs_irw] == [o.hex() for o in objs_mm]}")
print(f"    final memberships bitwise equal: "
      f"{bool((res_irw1.F_final.values == res_mm.F_final.values).all())}")
