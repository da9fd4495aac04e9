"""Ordered map of independent jobs over a thread pool.

The sampler's chains and the effects tables' column chunks are
self-contained jobs: each has its own seed stream or column range, and each
result is kept in input order. Running them on threads therefore changes no
bit of any result, whatever the number of threads. numpy's matrix products,
ufuncs and reductions release the GIL, so the jobs really overlap.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

__all__ = ["ordered_map"]


def cpu_count() -> int:
    return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, run on ``min(len(items), cpu_count())``
    threads. An exception raised by a job is raised here."""
    items = list(items)
    workers = min(len(items), cpu_count())
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here: at import time it would add to every process start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))
