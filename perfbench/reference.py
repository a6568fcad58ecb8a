"""A fixed piece of reference work that serves as the benchmark's ruler.

On a shared machine the speed of one core changes by up to 2x within
seconds, as neighbours come and go.  Timing the reference right next to
each measured operation and dividing by it cancels that drift: the
benchmark reports every time scaled to the speed at which the reference
takes its nominal time.

The reference mimics heatbo's hot path, so that contention slows both
alike: a product kernel on a coordinate-match tensor, its per-dimension
gradient matrices, a Cholesky solve and the gradient contraction.  How
much contention slows this depends on the array sizes (small arrays are
bound by interpreter overhead, large ones by memory), so each workload
uses a reference of its own shape.  The code is independent of heatbo and
must stay fixed, or scaled times stop being comparable across commits.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_solve, cholesky


class Reference:
    """MLL-gradient-shaped work on ``points`` random binary points in ``dims`` dimensions."""

    def __init__(self, points: int, dims: int, repeats: int, nominal_s: float):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(points, dims))
        self.match = X.T[:, :, None] == X.T[:, None, :]
        A = rng.random((points, points))
        self.spd = A @ A.T + points * np.eye(points)
        self.repeats = repeats
        # About the fastest seconds() seen on a vCPU of an Intel Xeon KVM guest
        # (2 vCPUs, BLAS pinned to one thread, numpy 2.4, scipy 1.17).
        self.nominal_s = nominal_s

    def _work(self) -> float:
        total = 0.0
        for _ in range(self.repeats):
            K = np.ones(self.match.shape[1:])
            for M in self.match:
                K = K * np.where(M, 1.0, 0.9)
            grads = [K * np.where(M, 0.0, 0.1) for M in self.match]
            factor = cholesky(self.spd + K, lower=True)
            W = cho_solve((factor, True), np.eye(K.shape[0]))
            total += sum(float(np.sum(W * G)) for G in grads)
        return total

    def seconds(self) -> float:
        """Wall time of one pass of the reference work."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
