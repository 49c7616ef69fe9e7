"""Set-up builds each large array once.

numpy reports its allocations to ``tracemalloc``, so the traced peak of
one set-up call, over the bytes of the array it returns, counts the n x d
temporaries it made. One copy more than the bounds allow fails.
"""

import tracemalloc

import numpy as np
import pytest

from fcmm.dataset import SyntheticSpec, make_blobs, standardize
from fcmm.membership import init_random

N, D = 20_000, 20
SPEC = SyntheticSpec(blob_count=20, points_per_blob=N // 20, dim=D, seed=0)


def _traced_peak_ratio(build):
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (N, D) and out.dtype == np.float64
    return peak / out.nbytes


# the returned array and its row norms (1/D of it), plus, for standardize,
# one row block of about 2^16 values; a boolean finiteness mask (1/8 of it)
# fails make_blobs's bound, and one more n x d copy fails every bound
@pytest.mark.parametrize("build, bound", [
    (lambda data: make_blobs(SPEC).points, 1.1),
    (lambda data: standardize(data).points, 1.5),
    (lambda data: init_random(N, D, 0).values, 1.25),
], ids=["make_blobs", "standardize", "init_random"])
def test_set_up_peak_memory(build, bound):
    data = make_blobs(SPEC)  # built before tracing: standardize's input is not counted
    assert _traced_peak_ratio(lambda: build(data)) <= bound
