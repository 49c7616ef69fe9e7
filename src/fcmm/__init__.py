"""Fuzzy c-means clustering via majorization-minimization.

Three mathematically linked solvers for the fuzzy c-means problem: the
classic alternating scheme, a double-loop iteratively re-weighted solver,
and a single-loop solver that minimizes a tangent-plane surrogate of the
reduced objective. One surrogate step coincides with one inner step of
the re-weighting scheme, which makes the inner loop redundant; the
package ships the solvers, the objective/surrogate machinery, a
brute-force verification suite, and a benchmark CLI that measures solver
work in membership updates.

Single updates, surrogate pieces and brute-force checks are imported from
:mod:`fcmm.solvers`, :mod:`fcmm.objective` and :mod:`fcmm.oracle`.
"""

from .dataset import DataMatrix, SyntheticSpec, load_csv, make_blobs, standardize
from .exceptions import DegenerateClusterError
from .membership import (MembershipMatrix, PowerMembership, dump_csv, init_random,
                         to_power, validate)
from .objective import aggregates, compute_centers, fcm_objective, phi
from .solvers import (SOLVERS, SolverConfig, SolverResult, SolverTrace,
                      TERMINATION_CONVERGED, TERMINATION_DEGENERATE,
                      TERMINATION_MAX_ITERS, solve_fcm_classic, solve_fcm_mm,
                      solve_irw_fcm)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix", "SyntheticSpec", "load_csv", "make_blobs", "standardize",
    "DegenerateClusterError",
    "MembershipMatrix", "PowerMembership", "dump_csv", "init_random", "to_power", "validate",
    "aggregates", "compute_centers", "fcm_objective", "phi",
    "SOLVERS", "SolverConfig", "SolverResult", "SolverTrace",
    "TERMINATION_CONVERGED", "TERMINATION_DEGENERATE", "TERMINATION_MAX_ITERS",
    "solve_fcm_classic", "solve_fcm_mm", "solve_irw_fcm",
    "__version__",
]
