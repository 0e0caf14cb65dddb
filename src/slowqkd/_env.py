"""Process-level knobs shared by the sweep and simulation drivers."""

from __future__ import annotations

import itertools
import operator
import os
import sys
from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

# Array elements per chunk of a stochastic engine.  Changing it changes the
# substream layout (not the distribution), so results are fixed per version.
CHUNK_ELEMENTS = 1_000_000


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
    with _pool(workers) as pool:
        # batched, not one task per message: a sweep point costs less than its message
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))


def _streamed_map(fn: Callable, tasks: Iterable[tuple]) -> Iterator:
    """``fn(*task)`` for each task, in task order, like ``parallel_map``, but
    drawing tasks one at a time and, in a pool, keeping at most two per
    worker in flight, so memory does not grow with the number of tasks."""
    tasks = iter(tasks)
    head = list(itertools.islice(tasks, pool_size(worker_count(), sys.maxsize, os.cpu_count())))
    workers = max(1, len(head))  # the request, capped by the CPU and task counts
    tasks = itertools.chain(head, tasks)
    if workers == 1:
        yield from itertools.starmap(fn, tasks)
        return
    with _pool(workers) as pool:
        window = deque()
        for task in tasks:
            window.append(pool.submit(fn, *task))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _pool(workers: int):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))


def check_run(trials: int, seed: int) -> None:
    """Refuse a seed below 0, or trials outside [1, sys.maxsize] (what a range can index)."""
    if not 1 <= trials <= sys.maxsize:
        raise ValueError(f"trials must be in [1, {sys.maxsize}], got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def substream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Substream ``key`` of ``seed``, split by spawn key as NumPy's parallel-RNG guide advises."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def chunk_schedule(trials: int, width: int, stream: tuple[int, ...] = ()) -> Iterator[tuple]:
    """``(key, count)`` per chunk, generated lazily: runs of at most
    max(1, CHUNK_ELEMENTS // width) trials, chunk i keyed ``(*stream, i)``.
    Independent of the worker count."""
    size = max(1, CHUNK_ELEMENTS // width)
    for i, start in enumerate(range(0, trials, size)):
        yield (*stream, i), min(size, trials - start)


def _seeded_chunk(fn: Callable, args: tuple, seed: int, key: tuple[int, ...], count: int) -> tuple:
    return fn(*args, rng=substream(seed, key), count=count)


def seeded_chunks(fn: Callable, args: tuple, seed: int, trials: int, width: int,
                  stream: tuple[int, ...] = ()) -> tuple:
    """The one driver of every stochastic engine: column sums of the ints or
    Counters ``fn(*args, rng=substream(seed, key), count=count)`` returns over
    ``chunk_schedule(trials, width, stream)``.  Results are folded in chunk
    order as they arrive, so memory stays flat however many chunks run."""
    tasks = ((fn, args, seed, key, count) for key, count in chunk_schedule(trials, width, stream))
    results = _streamed_map(_seeded_chunk, tasks)
    totals = next(results)
    for result in results:
        totals = tuple(map(operator.add, totals, result))
    return totals
