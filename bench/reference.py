"""The reference kernel that calibrates the benchmark's timings.

On a shared host the cores speed up and slow down by up to about 1.8x
over seconds to minutes, and CPU time tracks wall time, so a raw rate
measures the host as much as the program. The benchmark therefore times
this fixed kernel right before and right after each workload call, on the
same core at nearly the same moment, and scales that call's rates by how
far the kernel's time is from NOMINAL_S:

    calibrated rate = raw rate * kernel time / NOMINAL_S

A calibrated rate is the rate the call would have had on a host where the
kernel takes NOMINAL_S. The kernel mixes the kinds of work the workloads
do: small-array numpy calls from a Python loop (as `gen-data`), a BLAS
matrix product (as the posterior and the Stiefel step) and passes over a
few megabytes (as the checkpoint round trips). Its arrays are kept small,
because they count in the measuring process's peak RSS. It is the
benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time, in seconds, that calibrated rates are scaled to; about
# its time on an idle core of the host the benchmark was written on.
NOMINAL_S = 0.008


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((28, 28))
        self.matrix = rng.standard_normal((128, 784))
        self.block = rng.standard_normal(4_000_000 // 8)

    def work(self) -> float:
        total = 0.0
        for i in range(400):
            total += float(np.sin(self.small * (i % 7)).sum())
        for _ in range(4):
            total += float((self.matrix @ self.matrix.T)[0, 0])
        for _ in range(6):
            total += float(self.block.copy().sum())
        return total

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def factor(self, seconds: float) -> float:
        """What a rate measured next to a kernel time of ``seconds`` is
        multiplied by; a time is divided by it."""
        return seconds / NOMINAL_S
