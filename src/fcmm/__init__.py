"""Fuzzy c-means clustering via majorization-minimization.

Three mathematically linked solvers for the fuzzy c-means problem: the
classic alternating scheme, a double-loop iteratively re-weighted solver,
and a single-loop solver that minimizes a tangent-plane surrogate of the
reduced objective. One surrogate step coincides with one inner step of
the re-weighting scheme, which makes the inner loop redundant; the
package ships the solvers, the objective/surrogate machinery, a
brute-force verification suite, and a benchmark CLI that measures solver
work in membership updates.
"""

from .dataset import DataMatrix, SyntheticSpec, load_csv, make_blobs, standardize
from .exceptions import DegenerateClusterError
from .membership import (MembershipMatrix, MembershipReport, PowerMembership,
                         dump_csv, init_random, to_power, validate)
from .objective import (ClusterAggregates, aggregates, compute_centers,
                        fcm_objective, majorizer_h, phi, tangent_gradient)
from .oracle import (OracleReport, descent_chain_audit, finite_diff_gradient,
                     gram_quad_oracle, gram_vector_oracle, run_suite,
                     surrogate_argmin_oracle)
from .solvers import (SOLVERS, SolverConfig, SolverResult, SolverTrace,
                      TraceRecord, TERMINATION_CONVERGED, TERMINATION_DEGENERATE,
                      TERMINATION_MAX_ITERS, irw_auxiliary, solve_fcm_classic,
                      solve_fcm_mm, solve_irw_fcm, update_membership_classic,
                      update_membership_irw, update_membership_mm)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix", "SyntheticSpec", "load_csv", "make_blobs", "standardize",
    "DegenerateClusterError",
    "MembershipMatrix", "MembershipReport", "PowerMembership",
    "dump_csv", "init_random", "to_power", "validate",
    "ClusterAggregates", "aggregates", "compute_centers",
    "fcm_objective", "majorizer_h", "phi", "tangent_gradient",
    "OracleReport", "descent_chain_audit", "finite_diff_gradient",
    "gram_quad_oracle", "gram_vector_oracle", "run_suite",
    "surrogate_argmin_oracle",
    "SOLVERS", "SolverConfig", "SolverResult", "SolverTrace", "TraceRecord",
    "TERMINATION_CONVERGED", "TERMINATION_DEGENERATE", "TERMINATION_MAX_ITERS",
    "irw_auxiliary", "solve_fcm_classic", "solve_fcm_mm", "solve_irw_fcm",
    "update_membership_classic", "update_membership_irw", "update_membership_mm",
    "__version__",
]
