"""Deterministic fan-out over an index range.

Results are always assembled in index order, so the worker count affects
wall time only, never any output value.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def run_indexed(fn: Callable[[int], T], count: int, workers: int = 1) -> list[T]:
    if workers <= 1 or count <= 1:
        return [fn(n) for n in range(count)]
    # imported here, as a single-worker run needs no thread pool
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(fn, range(count)))
