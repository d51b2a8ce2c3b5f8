"""Wall-clock timing shared by the kernel benchmarks in this directory.

Each script runs as ``python3 bench/<name>.py``, which puts this
directory first on ``sys.path``, so they import it as ``timing``.
"""

from __future__ import annotations

import statistics
import time


def times_s(fn, repeats: int) -> tuple[list[float], object]:
    """Seconds of each of ``repeats`` calls of ``fn``, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def median_s(fn, repeats: int) -> tuple[float, object]:
    """Median seconds of ``repeats`` calls of ``fn``, and its last result."""
    times, result = times_s(fn, repeats)
    return statistics.median(times), result
