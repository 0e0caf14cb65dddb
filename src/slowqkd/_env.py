"""Process-level knobs shared by the sweep and simulation drivers."""

from __future__ import annotations

import itertools
import operator
import os
import sys
import time
from collections import deque
from numbers import Integral
from typing import Callable, Iterable, Iterator

import numpy as np

# Array elements per chunk of a stochastic engine.  Changing it changes the
# substream layout (not the distribution), so results are fixed per version.
CHUNK_ELEMENTS = 1_000_000

# ``fan_out`` pools only to save more than a spawned worker's start-up, 0.4-0.5 s with scipy
# (sweeps) and 0.2-0.35 s without (Monte Carlo, attack) on 2 vCPUs, in BATCH_S-s batches.
WORKER_START_S = 0.8
BATCH_S = 0.05


def worker_count() -> int:
    """Worker cap from the QKD_THREADS environment variable (default 1)."""
    raw = os.environ.get("QKD_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"QKD_THREADS must be a positive integer, got {raw!r}")
    return n


def fan_out(fn: Callable, tasks: Iterable[tuple], count: int) -> Iterator:
    """``fn(*task)`` for each of the ``count`` tasks, yielded in task order.

    At one worker, min(QKD_THREADS, CPU count, count - 1), a plain starmap.
    Otherwise the first two tasks run here and the second is timed (the
    first may also build the process's caches), and a pool starts only if
    (count - 2) * cost * (1 - 1/workers) exceeds WORKER_START_S.  It takes
    batches of about BATCH_S, two per worker in flight; results do not depend
    on where a task ran.  Workers are spawned (the caller may hold BLAS
    threads), so ``fn`` must be importable and sees no run-time patches.
    """
    tasks = iter(tasks)
    workers = max(1, min(worker_count(), os.cpu_count() or 1, count - 1))
    cost = 0.0
    if workers > 1:  # so count >= 3
        yield fn(*next(tasks))
        start = time.perf_counter()
        second = fn(*next(tasks))
        cost = time.perf_counter() - start
        yield second
    if (count - 2) * cost * (1 - 1 / workers) <= WORKER_START_S:
        yield from itertools.starmap(fn, tasks)
        return
    size = max(1, int(BATCH_S / cost))
    with _pool(workers) as pool:
        window = deque()
        for batch in iter(lambda: list(itertools.islice(tasks, size)), []):
            window.append(pool.submit(_starmap, fn, batch))
            if len(window) == 2 * workers:
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()


def _starmap(fn: Callable, batch: list[tuple]) -> list:
    return list(itertools.starmap(fn, batch))


def _pool(workers: int):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))


def check_integers(**fields) -> None:
    """Refuse a field that is not an integer (numpy integers are; bools are not)."""
    for name, value in fields.items():
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_run(trials: int, seed: int) -> None:
    """Refuse a seed below 0, or trials outside [1, sys.maxsize] (what a range can index)."""
    check_integers(trials=trials, seed=seed)
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
    size = _chunk_trials(width)
    for i, start in enumerate(range(0, trials, size)):
        yield (*stream, i), min(size, trials - start)


def _chunk_trials(width: int) -> int:
    return max(1, CHUNK_ELEMENTS // width)


def _seeded_chunk(fn: Callable, args: tuple, seed: int, key: tuple[int, ...], count: int) -> tuple:
    return fn(*args, rng=substream(seed, key), count=count)


def seeded_chunks(fn: Callable, args: tuple, seed: int, trials: int, width: int,
                  stream: tuple[int, ...] = ()) -> tuple:
    """The one driver of every stochastic engine: column sums of the ints
    ``fn(*args, rng=substream(seed, key), count=count)`` returns over
    ``chunk_schedule(trials, width, stream)``.  Results are folded in chunk
    order as they arrive, so memory stays flat however many chunks run."""
    tasks = ((fn, args, seed, key, count) for key, count in chunk_schedule(trials, width, stream))
    results = fan_out(_seeded_chunk, tasks, len(range(0, trials, _chunk_trials(width))))
    totals = next(results)
    for result in results:
        totals = tuple(map(operator.add, totals, result))
    return totals
