"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a shared host whose speed changes by up to 1.7x for
tens of seconds at a time, for every op and at every time scale, so neither a
run's best op nor its median escapes a slow stretch. Before each op the
benchmark therefore times one chunk of a fixed kernel of the same character as
the workload's ops: gradients of a 2-16-3 tanh MLP in numpy, on all 450 rows
(like the full-data oracle of flatness reports) and on batches of 32 (like
training steps), mixed per workload. The kernel is the benchmark's own code and
calls nothing of flatmin, so a change to flatmin leaves it as it is. Each op's
time is scaled by the chunk's reference time over the chunk timed just before
it: a reported time is the op's time on the reference host in its fast
stretches.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds per kernel gradient on the reference host (a 2-vCPU Intel Xeon
# sandbox, numpy 2 with scipy-openblas) in its fast stretches.
REF_FULL_GRAD_S = 125e-6
REF_BATCH_GRAD_S = 30e-6
WARMUP_CHUNKS = 5


class Calibration:
    """Times chunks of ``full_grads`` 450-row and ``batch_grads`` 32-row
    gradients; ``scale`` turns seconds into reference-host seconds."""

    def __init__(self, full_grads: int, batch_grads: int) -> None:
        rng = np.random.default_rng(20230720)
        self.inputs = rng.standard_normal((450, 2))
        self.labels = rng.integers(0, 3, 450)
        self.w1 = 0.5 * rng.standard_normal((2, 16))
        self.b1 = np.zeros(16)
        self.w2 = 0.5 * rng.standard_normal((16, 3))
        self.b2 = np.zeros(3)
        self.full = np.arange(450)
        self.full_grads = full_grads
        self.batches = [rng.choice(450, 32, replace=False) for _ in range(batch_grads)]
        self.ref_chunk_s = full_grads * REF_FULL_GRAD_S + batch_grads * REF_BATCH_GRAD_S
        for _ in range(WARMUP_CHUNKS):
            self.chunk()

    def grad(self, rows: np.ndarray) -> np.ndarray:
        """Cross-entropy gradient of the MLP on ``rows``."""
        x = self.inputs[rows]
        hidden = np.tanh(x @ self.w1 + self.b1)
        logits = hidden @ self.w2 + self.b2
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(rows.size), self.labels[rows]] -= 1.0
        probs /= rows.size
        delta = (probs @ self.w2.T) * (1.0 - hidden * hidden)
        return np.concatenate(
            [(x.T @ delta).ravel(), delta.sum(axis=0), (hidden.T @ probs).ravel(), probs.sum(axis=0)]
        )

    def chunk(self) -> float:
        """Seconds one chunk takes now."""
        start = time.perf_counter()
        for _ in range(self.full_grads):
            self.grad(self.full)
        for rows in self.batches:
            self.grad(rows)
        return time.perf_counter() - start

    def scale(self, seconds: float, chunk_s: float) -> float:
        return seconds * self.ref_chunk_s / chunk_s
