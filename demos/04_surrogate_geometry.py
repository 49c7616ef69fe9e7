"""Why the single loop descends: tangency, domination, and the descent chain.

The reduced objective phi subtracts a convex quadratic-over-linear term
per cluster, so replacing that term by its tangent plane at the current
iterate yields an upper bound h that touches phi exactly at the anchor.
The term is homogeneous of degree 1, so by Euler its tangent plane has no
constant term, and h is the fuzzy-means cost at the anchor's optimal
centers:

    h(G | G_t) = sum_ij g_ij |x_i - m_j^t|^2,    m_t = y_t / mass_t.

Minimizing h in closed form therefore drives phi down through the chain

    phi(F_next) <= h(G_next | G) <= h(G | G) = phi(F).

The demo checks the two surrogate properties on random memberships and
then prints every link of the chain along a short solver run.

Run:  python demos/04_surrogate_geometry.py
"""

import numpy as np

from fcmm import (DataMatrix, MembershipMatrix, aggregates, compute_centers,
                  fcm_objective, init_random, phi, to_power)
from fcmm.solvers import update_membership_mm

rng = np.random.default_rng(4)
data = DataMatrix.from_points(rng.normal(size=(40, 3)))

anchor = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=40))
G_anchor = to_power(anchor, 2.0)
p_anchor = phi(data, G_anchor)
centers_anchor = compute_centers(aggregates(data, G_anchor))

print(f"anchor objective phi      : {p_anchor:.10f}")
print(f"surrogate at the anchor   : {fcm_objective(data, anchor, centers_anchor, 2.0):.10f}")

print("\ndomination on 2000 random feasible memberships:")
gaps = []
for _ in range(2000):
    F = MembershipMatrix.from_values(rng.dirichlet(np.ones(3), size=40))
    gaps.append(fcm_objective(data, F, centers_anchor, 2.0) - phi(data, to_power(F, 2.0)))
gaps = np.array(gaps)
print(f"    h - phi ranges over [{gaps.min():.6f}, {gaps.max():.6f}]  "
      f"(never negative)")

print("\ndescent chain along ten surrogate steps:")
print(f"{'step':>5} {'phi(F)':>16} {'h(G_next|G)':>16} {'phi(F_next)':>16}")
F = init_random(40, 3, seed=5)
G = to_power(F, 2.0)
for step in range(1, 11):
    obj = phi(data, G)
    F_next = update_membership_mm(data, G, 2.0)
    G_next = to_power(F_next, 2.0)
    h_next = fcm_objective(data, F_next, compute_centers(aggregates(data, G)), 2.0)
    obj_next = phi(data, G_next)
    assert obj_next <= h_next <= obj + 1e-10 * (1 + abs(obj))
    print(f"{step:>5} {obj:>16.10f} {h_next:>16.10f} {obj_next:>16.10f}")
    F, G = F_next, G_next

print("\neach row shows phi(F_next) <= h(G_next|G) <= phi(F): F_next costs less")
print("at the old centers than F did, and moving the centers lowers it again.")
