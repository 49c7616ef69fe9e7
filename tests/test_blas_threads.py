"""Solver outputs and the verification battery's reports do not depend on
the BLAS thread count.

Above a size, a threaded BLAS splits one product among its threads and the
bits of the result follow the thread count. The cluster masses and phi's
linear term are numpy reductions that use no BLAS, and ``fcm_objective``
and the battery's surrogate costs are running sums in a plain loop's order.
``G'X`` is a BLAS product over all points: on these 50,000 rows its bits
hold on 1 and 2 OpenBLAS threads at c = 10, where the solves run, but not
at c = 20, so the c = 20 objectives below weight inputs whose last bits may
follow the thread count. The battery's Gram oracles call no BLAS at all.
Each run is a child process, since the thread count is read when numpy
loads, and reports the thread count the BLAS really uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcmm

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import hashlib
import numpy as np
from stamp import _blas_runtime
from fcmm.dataset import SyntheticSpec, make_blobs, standardize
from fcmm.membership import PowerMembership, init_random, to_power
from fcmm.objective import aggregates, compute_centers, fcm_objective
from fcmm.oracle import run_suite
from fcmm.solvers import SolverConfig, solve_fcm_mm, solve_irw_fcm

print("threads", _blas_runtime()[0])
data = standardize(make_blobs(SyntheticSpec(blob_count=10, points_per_blob=5000, dim=10, seed=1)))
F0 = init_random(data.n, 10, 0)
runs = {
    "mm": solve_fcm_mm(data, F0, SolverConfig(c=10, r=2.0, max_outer_iters=5)),
    "irw": solve_irw_fcm(data, F0, SolverConfig(c=10, r=1.5, max_outer_iters=1,
                                                max_inner_iters=3)),
}
for name, result in runs.items():
    digest = hashlib.sha256(result.F_final.values.tobytes())
    digest.update(result.centers_final.tobytes())
    digest.update(result.trace.objectives().tobytes())
    print(name, digest.hexdigest())
# cluster masses at more cluster counts than the solves use: a BLAS product
# over these 50,000 rows differs between 1 and 2 threads at each of them
rng = np.random.default_rng(0)
for c in (20, 57, 100):
    sums = PowerMembership(rng.random((50000, c))).col_sums
    print("col_sums", c, hashlib.sha256(sums.tobytes()).hexdigest())
# fcm_objective, the battery's reference, at the random start's centers and
# after 5 MM iterations: its BLAS dot products differed between 1 and 2
# threads at each of these four
for c in (10, 20):
    F = init_random(data.n, c, 0)
    centers = compute_centers(data, to_power(F, 2.0))
    mm = solve_fcm_mm(data, F, SolverConfig(c=c, r=2.0, max_outer_iters=5))
    print("fcm_objective", c, fcm_objective(data, F, centers, 2.0).hex(),
          fcm_objective(data, mm.F_final, mm.centers_final, 2.0).hex())
# the verification battery; its Gram oracles call no BLAS
errors = " ".join(report.max_error.hex() for report in run_suite("quick", 0))
print("run_suite", hashlib.sha256(errors.encode()).hexdigest())
"""


def _run(threads):
    """The child's thread count and its digest lines."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(Path(fcmm.__file__).resolve().parent.parent),
                                           str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    first, *digests = done.stdout.splitlines()
    return first.split()[1], digests


def test_mm_and_irw_are_bitwise_on_one_and_two_blas_threads():
    runs = {}
    for asked in ("1", "2"):
        threads, runs[asked] = _run(asked)
        if threads != asked:  # a 1-CPU machine, or a BLAS other than OpenBLAS
            pytest.skip(f"the BLAS ran {threads} thread(s) when asked for {asked}")
    assert len(runs["1"]) == 8
    assert runs["2"] == runs["1"]
