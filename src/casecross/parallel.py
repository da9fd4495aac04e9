"""Ordered map of independent jobs over a thread pool.

The sampler's chains and the effects tables' column chunks are
self-contained jobs: each has its own seed stream or column range, and each
result is kept in input order. Running them on threads therefore changes no
bit of any result, whatever the number of threads. numpy's matrix products,
ufuncs and reductions release the GIL, so the jobs really overlap.

A process keeps one pool per worker count for its whole life, started on
first use: starting and joining threads on every call cost more than the
pool gained on small fits. A job that itself calls ``ordered_map`` runs its
items inline, so no worker ever waits on the pool it runs on, and a forked
child, whose copy of a pool has no threads, starts its own.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable

__all__ = ["ordered_map"]

_pools: dict = {}              # (process id, workers) -> ThreadPoolExecutor
_in_worker = threading.local()


def cpu_count() -> int:
    return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, run on ``min(len(items), cpu_count())``
    threads of the process's pool, or inline when called from one of its
    jobs. An exception raised by a job is raised here."""
    items = list(items)
    workers = min(len(items), cpu_count())
    if workers <= 1 or getattr(_in_worker, "flag", False):
        return [fn(x) for x in items]
    return list(_pool(workers).map(fn, items))


def _pool(workers: int):
    key = (os.getpid(), workers)
    pool = _pools.get(key)
    if pool is None:
        # imported here: at import time it would add to every process start
        from concurrent.futures import ThreadPoolExecutor

        # a pool starts no thread until its first job, so one that loses a
        # race to setdefault costs nothing
        pool = _pools.setdefault(key, ThreadPoolExecutor(workers, initializer=_mark_worker))
    return pool


def _mark_worker() -> None:
    _in_worker.flag = True
