"""Reference kernels: how fast the shared machine runs at this moment.

On a shared machine the speed of any code drifts by up to half over a
few seconds, with the load that other tenants put on the host. Each
timed region is therefore bracketed by runs of a fixed kernel shaped
like the workload's own work, and a time is also reported at reference
speed: ``raw * nominal / kernel``, with ``kernel`` the mean of the
kernel times just before and just after the region. The kernels use
numpy alone, never fcmm, so a change to the program moves the scaled
time while a change in machine load mostly cancels out.

``nominal`` is a fixed constant per kernel, close to its time on the
machine where the benchmark was defined (Xeon, 2 vCPUs, numpy 2.4.6,
OpenBLAS 0.3.31 on 1 thread), so scaled times read in that machine's
seconds.

Some work slows less than the kernel when the host is loaded. Its time
is scaled by ``(nominal / kernel) ** elasticity`` instead, with the
elasticity measured on that machine: the slope of log(operation time)
against log(kernel time) over many alternating pairs. An Iris compare
measured 0.66 to 0.70 over about a thousand pairs, against three
different kernels; the array workloads and the oracle track their
kernels with an elasticity of 1.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _small_kernel():
    """Tiny arrays and Python-level calls, like Iris solves."""
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((150, 4))
    Y = rng.standard_normal((3, 4))
    V = rng.standard_normal((40, 4))

    def kernel():
        for _ in range(20):
            B = X @ Y.T
            B *= B
            W = np.exp(-np.log(B + 1.0))
            W /= W.sum(axis=1, keepdims=True)
            (W ** 2.0).T @ X
        total = 0.0
        for i in range(40):
            for k in range(40):
                total += float(np.dot(V[i], V[k]))
        return total

    return kernel


def _gram_kernel():
    """A Python double loop of small dot products, like the Gram oracles."""
    rng = np.random.default_rng(12345)
    P = rng.standard_normal((40, 3))
    g = rng.uniform(0.1, 1.0, size=40)

    def kernel():
        total = 0.0
        for i in range(40):
            for k in range(40):
                total += g[i] * float(np.dot(P[i], P[k])) * g[k]
        return total

    return kernel


def _array_kernel(n, d, c):
    """One membership-update-like pass over an n x c array with two GEMMs."""
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((n, d))
    C = rng.standard_normal((c, d))

    def kernel():
        B = A @ C.T
        B *= B
        L = np.log(B + 1.0)
        L -= L.max(axis=1, keepdims=True)
        W = np.exp(L)
        W /= W.sum(axis=1, keepdims=True)
        return (W ** 1.2).T @ A

    return kernel


class Reference:
    """A kernel, its nominal time in seconds, repeats per measurement, and
    the elasticity of the workload's time to the kernel's."""

    def __init__(self, kernel, nominal_s, repeats, elasticity=1.0):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.repeats = repeats
        self.elasticity = elasticity

    def measure(self):
        """Median kernel time in seconds over ``repeats`` runs."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def for_workload(name):
    # One kernel run per region suits iris's hundreds of short operations;
    # an oracle battery is timed in parts of about 80 ms, each bracketed by
    # a median of a few kernel runs.
    if name == "iris":
        return Reference(_small_kernel(), 4.0e-3, 1, elasticity=0.7)
    if name == "oracle":
        return Reference(_gram_kernel(), 3.0e-3, 5)
    if name == "tall":
        return Reference(_array_kernel(100_000, 10, 10), 45e-3, 5)
    if name == "wide":
        return Reference(_array_kernel(100_000, 50, 20), 90e-3, 5)
    raise ValueError(f"no reference kernel for workload {name!r}")
