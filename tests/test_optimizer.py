"""Parameter search: grid behavior, brute-force agreement, determinism."""

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from slowqkd import (
    Detector,
    M_CANDIDATES_DEFAULT,
    CurveSpec,
    Optimum,
    ProtocolParams,
    heuristic_M,
    key_rate,
    mu_grid,
    optimize_point,
    optimize_with_M,
    sweep_curves,
)
from slowqkd import _env, keyrate, optimizer
from slowqkd.keyrate import rate_grid
from slowqkd.optimizer import MU_MAX, MU_MIN
from slowqkd._env import fan_out, worker_count

from oracles import (
    OPTIMIZER_REL,
    brute_force_optimum,
    first_keyless_row_oracle,
    scan_every_nu_optimum,
)

BASE = ProtocolParams(mu=0.1, nu_th=0, eta=1.0, M=1, L=128, e_sys=0.03, d_c=1e-9)


def test_mu_grid_endpoints_and_density():
    grid = mu_grid(20)
    assert grid[0] == MU_MIN
    assert grid[-1] == MU_MAX
    assert len(grid) == 121  # 6 decades at 20 points each, inclusive
    ratios = [grid[i + 1] / grid[i] for i in range(len(grid) - 1)]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)


def test_mu_grid_density_scaling():
    assert len(mu_grid(40)) == 241


@pytest.mark.parametrize("ppd", [2.5, 20.0, True, np.float64(20.0), "20"])
def test_mu_grid_refuses_a_non_integer_density(ppd):
    """Each refusal runs in the cached body: with ``typed=True`` a whole
    float or a bool never hits the entry that 20 or 1 left in the cache."""
    for cached in (20, 1):
        mu_grid(cached)
    with pytest.raises(ValueError, match="points_per_decade must be an integer"):
        mu_grid(ppd)
    with pytest.raises(ValueError, match="points_per_decade must be an integer"):
        optimize_point(BASE, eta=0.01, M=1, points_per_decade=ppd)


def test_mu_grid_is_one_cached_tuple():
    assert isinstance(mu_grid(), tuple) and mu_grid(20) is mu_grid(20)
    assert mu_grid(np.int64(20)) == mu_grid(20)


def test_optimum_reproduces_its_own_rate():
    o = optimize_point(BASE, eta=0.01, M=1)
    again = key_rate(replace(BASE, mu=o.mu_opt, nu_th=o.nu_th_opt, eta=0.01, M=1))
    assert o.result.G == again.G
    assert o.result == again


def test_optimum_within_mu_bounds():
    for eta, M in [(1e-4, 1), (0.01, 100), (1.0, 1)]:
        o = optimize_point(BASE, eta=eta, M=M)
        assert MU_MIN <= o.mu_opt <= MU_MAX
        assert 0 <= o.nu_th_opt <= BASE.L - 1


def test_positive_rate_at_moderate_transmission():
    o = optimize_point(BASE, eta=1e-2, M=1)
    assert o.result.G > 0.0


@pytest.mark.parametrize(
    "eta,M,detector",
    [
        (1e-2, 1, Detector.PNR),
        (1e-3, 100, Detector.PNR),
        (1e-2, 10, Detector.THRESHOLD),
    ],
)
def test_agrees_with_coarse_brute_force(eta, M, detector):
    """0.5% agreement against an exhaustive (mu, nu_th) scan.

    The unit-level scan is deliberately coarser than the acceptance one
    (400 mu points) to keep the suite fast; same domain, same clamping.
    """
    base = replace(BASE, detector=detector)
    g_brute, _, _ = brute_force_optimum(base, eta, M, n_mu=400)
    o = optimize_point(base, eta=eta, M=M)
    assert o.result.G == pytest.approx(g_brute, rel=5e-3)
    assert o.result.G >= g_brute * (1.0 - 5e-3)


def test_grid_refinement_is_converged():
    o20 = optimize_point(BASE, eta=1e-2, M=1, points_per_decade=20)
    o40 = optimize_point(BASE, eta=1e-2, M=1, points_per_decade=40)
    assert o40.result.G == pytest.approx(o20.result.G, rel=5e-3)


@pytest.mark.parametrize("c_d", [0.0, 1.28e5])
@pytest.mark.parametrize("detector", list(Detector))
@pytest.mark.parametrize("M", [1, 10**3, 10**6])
@pytest.mark.parametrize("eta", [1e-7, 1e-3, 1.0])
def test_matches_scan_over_every_nu_th(eta, M, detector, c_d):
    """The grid-then-refine optimizer against a scalar scan of every nu_th."""
    base = replace(BASE, detector=detector, c_d=c_d)
    g_ref, _, _ = scan_every_nu_optimum(base, eta, M)
    o = optimize_point(base, eta=eta, M=M)
    assert o.result.G == pytest.approx(g_ref, rel=OPTIMIZER_REL)
    assert o.result.G >= g_ref * (1.0 - OPTIMIZER_REL)
    if g_ref == 0.0:
        assert (o.mu_opt, o.nu_th_opt, o.result.G) == (MU_MIN, 0, 0.0)


def test_memory_bounding_chunks_give_the_same_optimum(monkeypatch):
    whole = optimize_point(BASE, eta=1e-3, M=1000)
    monkeypatch.setattr(optimizer, "_GRID_CELLS", 1)  # one nu_th per rate_grid call
    assert optimize_point(BASE, eta=1e-3, M=1000) == whole


_THRESHOLD_DEAD = replace(BASE, detector=Detector.THRESHOLD, c_d=1.28e5)
# The optimizer's canonical points in perfbench/canonical.py: (base, eta, M
# candidates), the first at zero rate, the rest positive.
_CANONICAL = [
    (BASE, 1e-7, (1,)),
    (BASE, 1e-3, (1000,)),
    (BASE, 1.0, (1,)),
    (BASE, 1e-2, (10**6,)),
    (_THRESHOLD_DEAD, 1e-2, M_CANDIDATES_DEFAULT),
]


@pytest.mark.parametrize("base,eta,Ms", _CANONICAL)
def test_one_grid_pass_and_refinement_through_the_stages(monkeypatch, base, eta, Ms):
    """Each point grids its keyed rows once, in chunks, each with its cached
    tagged-fraction table, and refines three rows by golden section through
    the scalar ``_model`` (2 + 32 evaluations each, 102 in all); ``key_rate``
    is called once, for the result."""
    calls = {"rows": [], "refine": 0, "key_rate": 0}

    def grid(p, mu, nu_th, tagged):
        calls["rows"].append(list(nu_th))
        assert tagged.shape == (len(nu_th), len(mu)) and not tagged.flags.writeable
        return rate_grid(p, mu, nu_th, tagged)

    def refine(*args):
        calls["refine"] += 1
        return keyrate._model(*args)

    def final(p):
        calls["key_rate"] += 1
        return key_rate(p)

    monkeypatch.setattr(optimizer, "rate_grid", grid)
    monkeypatch.setattr(optimizer, "_model", refine)
    monkeypatch.setattr(optimizer, "key_rate", final)
    keyed = keyrate._keyed_rows(base)
    chunk = max(1, optimizer._GRID_CELLS // len(mu_grid()))
    for M in Ms:
        calls.update(rows=[], refine=0, key_rate=0)
        positive = optimize_point(base, eta, M).result.G > 0.0
        assert positive == (eta != 1e-7)
        assert calls["refine"] == (102 if positive else 0)
        assert len(calls["rows"]) == math.ceil(keyed / chunk)
        assert sum(calls["rows"], []) == list(range(keyed))
        assert calls["key_rate"] == 1


def _clear_sweep_caches() -> None:
    for cached in (optimizer._tagged_chunk, optimizer.mu_grid, keyrate._x_star):
        cached.cache_clear()


@pytest.mark.parametrize("L", [16, 128, 4096])
def test_a_sweep_builds_each_table_chunk_once(monkeypatch, L):
    """Seven M values at three eta share one tagged-fraction table: each of
    its chunks is built by the first point and read by the other twenty."""
    monkeypatch.delenv("QKD_THREADS", raising=False)
    base = replace(BASE, L=L)
    Ms = (1, 2, 10, 100, 1000, 10**4, 10**6)
    chunks = math.ceil(keyrate._keyed_rows(base) / (optimizer._GRID_CELLS // len(mu_grid())))
    _clear_sweep_caches()
    sweep_curves(CurveSpec(base, (1e-5, 1e-2, 1.0), Ms))
    info = optimizer._tagged_chunk.cache_info()
    assert (info.misses, info.hits) == (chunks, (3 * len(Ms) - 1) * chunks)


@pytest.mark.parametrize("L", [2, 16, 128, 4096])
def test_cached_table_is_the_fresh_tail_and_read_only(L):
    grid = np.asarray(mu_grid(), dtype=float)
    chunk = optimizer._GRID_CELLS // len(grid)
    keyed = keyrate._keyed_rows(replace(BASE, L=L))
    for lo in range(0, keyed, chunk):
        hi = min(lo + chunk, keyed)
        table = optimizer._tagged_chunk(L, optimizer.POINTS_PER_DECADE, lo, hi)
        assert table.tobytes() == gammainc(np.arange(lo, hi)[:, None] + 1, L * grid).tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@pytest.mark.parametrize("base,eta,Ms", _CANONICAL)
def test_cold_and_warm_caches_give_the_same_optimum(monkeypatch, base, eta, Ms):
    """A point's Optimum is the same, every field bit for bit, whether the
    sweep caches are empty, already hold its tables, or are bypassed so that
    ``rate_grid`` computes the tail itself."""
    for M in Ms[:3]:
        _clear_sweep_caches()
        cold = _fields(optimize_point(base, eta, M))
        assert _fields(optimize_point(base, eta, M)) == cold
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_tagged_chunk", lambda *key: None)
            assert _fields(optimize_point(base, eta, M)) == cold


def test_the_table_cache_keeps_at_most_two_chunks():
    """Points at L = 128 (one chunk), 4096 (two) and 16 (one) in turn never
    leave more than two chunks, about 2 * _GRID_CELLS floats, retained."""
    _clear_sweep_caches()
    for L in (128, 4096, 16):
        optimize_point(replace(BASE, L=L), 1e-2, 10)
        assert optimizer._tagged_chunk.cache_info().currsize <= 2
    assert optimizer._tagged_chunk.cache_info().maxsize == 2


@pytest.mark.parametrize(
    "base,eta,M",
    [
        (BASE, 1e-3, 1000),
        (BASE, 1.0, 1),
        (_THRESHOLD_DEAD, 1e-2, 100),
        (replace(BASE, L=4096), 1e-2, 1),
        (replace(BASE, L=16, e_sys=0.0, d_c=0.0), 0.3, 10),
    ],
)
def test_grid_rows_do_not_depend_on_the_rows_beside_them(base, eta, M):
    """The refinement reuses the first grid pass's rows, so a row of the
    keyed grid must equal, bit for bit, the same row gridded on its own or
    with its neighbours."""
    base = replace(base, eta=eta, M=M)
    grid = mu_grid()
    keyed = keyrate._keyed_rows(base)
    whole = rate_grid(base, grid, range(keyed))
    for lo in {max(i, 0) for i in (0, 1, keyed // 2, keyed - 3, keyed - 2)}:
        nus = range(lo, min(lo + 3, keyed))
        assert whole[list(nus)].tobytes() == rate_grid(base, grid, nus).tobytes(), nus
        assert whole[lo].tobytes() == rate_grid(base, grid, [lo]).tobytes(), lo


def _fields(o: Optimum) -> list:
    """Every field of an Optimum and of its result, flat, with NaN made comparable."""
    flat = [*astuple(o)[:-1], *astuple(o.result)]
    return ["nan" if isinstance(v, float) and math.isnan(v) else v for v in flat]


def _every_row(p: ProtocolParams) -> int:
    return p.L


@pytest.mark.parametrize("detector", list(Detector))
@pytest.mark.parametrize("eta", [1e-2, 1.0])
@pytest.mark.parametrize("e_sys", [0.9, 0.97])
def test_row_bound_keeps_the_optimum_above_half_e_sys(monkeypatch, e_sys, eta, detector):
    """Past e_sys = 1/2 the key comes from flipped bits: h(e_sys), not
    h(min(e_sys, 1/2)) = 1, sets the rows, and the optimum (past nu_th = 1
    here) is the one found over every nu_th."""
    base = replace(BASE, e_sys=e_sys, detector=detector)
    bounded = optimize_point(base, eta=eta, M=1)
    monkeypatch.setattr(optimizer, "_keyed_rows", _every_row)
    full = optimize_point(base, eta=eta, M=1)
    assert bounded.result.G > 0.0 and bounded.nu_th_opt > 1
    assert _fields(bounded) == _fields(full)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 256),
    st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.12), st.floats(0.88, 1.0)),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4]),
    st.sampled_from([0.0, 128.0, 1.28e5]),
    st.sampled_from(list(Detector)),
    st.floats(1e-7, 1.0),
    st.sampled_from([1, 10, 1000, 10**6]),
    st.floats(-6.0, 0.0),
)
def test_rows_past_the_bound_carry_no_key(L, e_sys, d_c, c_d, detector, eta, M, log_mu):
    """Rows from ceil(x* (L-1)) on give G = 0 (keyrate._keyed_rows derives
    why), the optimizer keeps one spare row past them, and bounding the
    rows leaves the optimum as it is over every nu_th."""
    base = ProtocolParams(mu=10.0**log_mu, nu_th=0, eta=eta, M=M, L=L, e_sys=e_sys,
                          d_c=d_c, c_d=c_d, detector=detector)
    first = first_keyless_row_oracle(L, e_sys)
    rows = keyrate._keyed_rows(base)
    assert rows >= min(L, first + 2)
    assert not rate_grid(base, mu_grid(), range(first, L)).any()
    if rows < L:
        assert key_rate(replace(base, nu_th=rows)).G == 0.0
    bounded = optimize_point(base, eta, M)
    with patch.object(optimizer, "_keyed_rows", _every_row):
        assert _fields(optimize_point(base, eta, M)) == _fields(bounded)


def test_dead_channel_reports_boundary_point():
    dead = replace(BASE, d_c=1e-3)  # dark counts swamp any signal
    o = optimize_point(dead, eta=1e-9, M=1)
    assert o.result.G == 0.0
    assert o.mu_opt == MU_MIN
    assert o.nu_th_opt == 0


def test_rate_increases_with_transmission_in_clean_channel():
    clean = replace(BASE, e_sys=0.0, d_c=0.0)
    etas = [10 ** (-3 + i / 2) for i in range(7)]
    rates = [optimize_point(clean, eta=e, M=1).result.G for e in etas]
    assert all(b > a for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# M selection


def test_heuristic_M_values():
    assert heuristic_M(128, 0.0) == 1
    assert heuristic_M(128, 1.28e5) == 1000
    # round-half-to-even at the midpoint
    assert heuristic_M(100, 1050.0) == 10


def test_heuristic_M_validation():
    with pytest.raises(ValueError):
        heuristic_M(1, 0.0)
    with pytest.raises(ValueError):
        heuristic_M(128, -1.0)


def test_default_M_candidates_shape():
    assert M_CANDIDATES_DEFAULT[0] == 1
    assert 1000 in M_CANDIDATES_DEFAULT
    assert 10**6 in M_CANDIDATES_DEFAULT
    assert list(M_CANDIDATES_DEFAULT) == sorted(M_CANDIDATES_DEFAULT)


def test_optimize_with_M_beats_each_candidate():
    cands = (1, 10, 100, 1000)
    best = optimize_with_M(BASE, eta=1e-3, M_candidates=cands)
    for M in cands:
        assert best.result.G >= optimize_point(BASE, eta=1e-3, M=M).result.G
    assert best.M in cands


def test_optimize_with_M_refuses_no_candidates():
    with pytest.raises(ValueError, match="M_candidates must be non-empty"):
        optimize_with_M(BASE, 1e-3, ())


def test_optimize_with_M_dead_channel_prefers_smallest_M():
    dead = replace(BASE, d_c=1e-3)
    for cands in ((1, 10, 100), (10, 1)):  # every G ties at 0, whatever the order given
        best = optimize_with_M(dead, eta=1e-9, M_candidates=cands)
        assert best.result.G == 0.0
        assert best.M == 1, cands


def test_dead_time_optimum_beats_fixed_M(monkeypatch):
    """With a large per-sequence dead time the optimizer may spread it
    over more pulses; the reported optimum can never fall below the fixed
    M = 1000 operating point it also evaluates."""
    base = replace(BASE, c_d=1.28e5, detector=Detector.THRESHOLD)
    for eta in (1e-2, 1e-1):
        best = optimize_with_M(base, eta=eta, M_candidates=(100, 1000, 10_000))
        fixed = optimize_point(base, eta=eta, M=1000)
        assert best.result.G >= fixed.result.G


# ---------------------------------------------------------------------------
# sweeps


def _small_spec():
    return CurveSpec(
        base=BASE,
        eta_grid=(1e-3, 1e-2, 1e-1),
        M_values=(10, 1),
    )


def test_sweep_row_order_is_sorted_M_then_eta():
    rows = sweep_curves(_small_spec())
    assert [(r.M, r.eta) for r in rows] == [
        (1, 1e-3), (1, 1e-2), (1, 1e-1),
        (10, 1e-3), (10, 1e-2), (10, 1e-1),
    ]


def test_sweep_independent_of_worker_count(monkeypatch, two_workers):
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = sweep_curves(_small_spec())
    with two_workers():
        assert worker_count() == 2
        parallel = sweep_curves(_small_spec())
    assert serial == parallel


def test_small_sweep_starts_no_pool(two_workers):
    # six points of about a millisecond save far less than a worker's start-up
    with two_workers(gated=True) as pools:
        sweep_curves(_small_spec())
    assert pools == []


def test_a_slow_first_task_alone_starts_no_pool(two_workers):
    # the first task may build the process's caches, so the gate times the
    # second: timing a 50 ms first task, 40 * 0.05 s * (1 - 1/2) = 1 s would
    # pass WORKER_START_S, though the forty tasks after it take no time
    with two_workers(gated=True) as pools:
        assert list(fan_out(time.sleep, [(0.05,), *[(0.0,)] * 40], 41)) == [None] * 41
    assert pools == []


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(base=BASE, eta_grid=(), M_values=(1,))
    with pytest.raises(ValueError):
        CurveSpec(base=BASE, eta_grid=(0.0, 0.1), M_values=(1,))
    with pytest.raises(ValueError):
        CurveSpec(base=BASE, eta_grid=(0.1, 0.1), M_values=(1,))
    with pytest.raises(ValueError):
        CurveSpec(base=BASE, eta_grid=(0.1,), M_values=(0,))


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("QKD_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("QKD_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("QKD_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("QKD_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()


def test_fan_out_caps_workers_at_tasks_and_cpus(monkeypatch):
    # the gate open, and threads standing in for the spawned workers
    pools = []
    monkeypatch.setattr(_env, "_pool", lambda n: pools.append(n) or ThreadPoolExecutor(n))
    monkeypatch.setattr(_env, "WORKER_START_S", 0.0)

    def workers(requested, count, cpus):
        monkeypatch.setenv("QKD_THREADS", str(requested))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        tasks = [(i, 1) for i in range(count)]
        assert list(fan_out(operator.sub, tasks, count)) == [i - 1 for i in range(count)]
        return pools[0] if pools else 1

    assert workers(10**6, 3, 2) == 2  # the CPU count
    assert workers(10**6, 3, 64) == 2  # the tasks after the first
    assert workers(10**6, 2, 64) == 1
    assert workers(4, 100, 8) == 4  # the request
    assert workers(4, 0, 8) == 1
    assert workers(4, 100, None) == 1


def test_fan_out_runs_in_process_at_one_worker(monkeypatch):
    # a lambda cannot be pickled, so these calls prove no pool was started
    monkeypatch.delenv("QKD_THREADS", raising=False)
    assert list(fan_out(lambda a, b: a - b, [(5, 1), (3, 2)], 2)) == [4, 1]
    monkeypatch.setenv("QKD_THREADS", str(10**6))
    assert list(fan_out(lambda a, b: a - b, [(5, 1)], 1)) == [4]
    assert list(fan_out(lambda a: a, [], 0)) == []
    # two CPUs, but too little work to pay for a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = [(i, 1) for i in range(100)]
    assert list(fan_out(lambda a, b: a - b, tasks, 100)) == [i - 1 for i in range(100)]


def test_fan_out_keeps_task_order_in_a_pool(monkeypatch, two_workers):
    tasks = [(float(i), 3.0) for i in range(9)]
    with two_workers():  # one task per batch
        assert list(fan_out(math.pow, tasks, 9)) == [math.pow(*t) for t in tasks]
    with two_workers(), monkeypatch.context() as m:  # the seven after the first two in one batch
        m.setattr(_env, "BATCH_S", 1.0)
        assert list(fan_out(math.pow, tasks, 9)) == [math.pow(*t) for t in tasks]
