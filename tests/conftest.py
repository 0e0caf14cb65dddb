"""Fixtures shared by the test modules."""

import contextlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from slowqkd import _env

PROVENANCE_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "PROVENANCE.json"


@pytest.fixture
def reference_versions():
    """Skips the test unless Python, numpy and scipy are the versions recorded
    in perfbench/refs/PROVENANCE.json, which made the bytes and totals that
    the test compares with."""
    made = json.loads(PROVENANCE_FILE.read_text(encoding="utf-8"))
    here = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    unlike = [f"{k} {v} (refs: {made[k]})" for k, v in here.items() if v != made[k]]
    if unlike:
        pytest.skip("reference values were made with other versions: " + ", ".join(unlike))


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
