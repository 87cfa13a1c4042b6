"""Best-of-N wall-clock timing for the relative speed guards."""

from __future__ import annotations

import time


def best_of(repeats: int, fn, calls: int = 1) -> float:
    """The fastest of ``repeats`` timings of ``calls`` back-to-back calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best
