"""Fixtures shared by the test modules."""

import contextlib
import os

import pytest

from slowqkd import _env


@pytest.fixture
def two_workers(monkeypatch):
    """``with two_workers() as pools:`` runs its body at QKD_THREADS=2 on what
    looks like two CPUs and lists the worker count of each pool ``_env``
    starts.  By default the gate is open (no start-up cost, one task per
    batch), so a run of three or more tasks must start a pool, and leaving
    the block asserts that one did.  ``gated=True`` keeps the real costs."""
    pools = []
    real_pool = _env._pool

    def spy(workers):
        pools.append(workers)
        return real_pool(workers)

    @contextlib.contextmanager
    def run(gated=False):
        with monkeypatch.context() as m:
            m.setenv("QKD_THREADS", "2")
            m.setattr(os, "cpu_count", lambda: 2)
            m.setattr(_env, "_pool", spy)
            if not gated:
                m.setattr(_env, "WORKER_START_S", 0.0)
                m.setattr(_env, "BATCH_S", 0.0)
            pools.clear()
            yield pools
        assert gated or pools, "no pool started"

    return run
