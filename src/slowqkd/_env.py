"""Process-level knobs shared by the sweep and simulation drivers."""

from __future__ import annotations

import os
from typing import Callable, Iterable


def worker_count() -> int:
    """Worker cap from the QKD_THREADS environment variable (default 1)."""
    raw = os.environ.get("QKD_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"QKD_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"QKD_THREADS must be a positive integer, got {raw!r}")
    return n


def pool_size(requested: int, tasks: int, cpus: int | None) -> int:
    """Processes worth starting: the request capped by the task and CPU counts."""
    return max(1, min(requested, tasks, cpus or 1))


def parallel_map(fn: Callable, tasks: Iterable[tuple]) -> list:
    """``[fn(*task) for task in tasks]``, over a process pool when QKD_THREADS > 1.

    The pool has min(QKD_THREADS, number of tasks, CPU count) workers; at
    one worker everything runs in this process and no pool is started.
    Results keep task order, so they do not depend on the worker count.
    Workers are spawned, not forked (the caller may hold BLAS threads), so
    ``fn`` must be importable by name and sees no state patched at run time.
    """
    tasks = list(tasks)
    workers = pool_size(worker_count(), len(tasks), os.cpu_count())
    if workers == 1:
        return [fn(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))
