"""Reference loops that calibrate the benchmark's times to the machine's speed.

The speed of a shared virtual machine drifts with its neighbours' load,
by up to 2x over tens of seconds, and scalar Python code and matrix
products drift by different amounts. Each workload therefore times the
reference loop that does its own kind of work right before and right
after each run, in the same process, and the mean wall time is scaled
by ``NOMINAL_S`` over the loop's mean time: the time a run would take
on a machine on which the loop takes ``NOMINAL_S``. The loops are the
benchmark's own code, so a change to gazelab does not change them.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


def interpreter() -> None:
    """Scalar Python arithmetic and many calls on small arrays (parsing, fusion, SVM steps)."""
    s = 0
    for i in range(300_000):
        s += i * i % 7
    rng = np.random.default_rng(0)
    a = rng.normal(size=(100, 64))
    w = np.zeros(64)
    for _ in range(800):
        violated = a @ w < 1.0
        w -= 0.001 * (a[violated].sum(axis=0) - w)


def matmul() -> None:
    """Mini-batch gathers and products of 512-wide rows (MLP training)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 512))
    W = rng.normal(size=(512, 64)) * 0.01
    for _ in range(300):
        batch = X[rng.permutation(600)[:32]]
        hidden = np.maximum(batch @ W, 0.0)
        W -= 1e-6 * (batch.T @ hidden)
    np.maximum(X @ W, 0.0).sum()


#: Each loop's time in seconds: the fastest of 50 calls on a shared 2-vCPU
#: x86-64 virtual machine (Python 3.11.7, numpy 2.4.6, one BLAS thread).
NOMINAL_S: dict[Callable[[], None], float] = {interpreter: 0.0384, matmul: 0.0565}


#: Calls of the loop timed on each side of a measured run or set-up.
CALLS = 2


def seconds(loop: Callable[[], None]) -> list[float]:
    """Times of ``CALLS`` calls of the loop."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return times
