"""Event-level simulation: replay equivalence, exact oracles, determinism.

The analytic detection rate keeps only the leading O(lambda) term, so the
tight statistical tests here compare against the *exact* event-model
probabilities in oracles.py; agreement with the leading-order formulas is
asserted separately with the O(lambda) gap made explicit.
"""

import math
import sys

import numpy as np
import pytest

from slowqkd import (
    Detector,
    McConfig,
    McMode,
    ProtocolParams,
    binomial_stderr,
    compare_to_analytic,
    detection_rate_Q,
    simulate,
)
from slowqkd._env import CHUNK_ELEMENTS, chunk_schedule, substream
from slowqkd.montecarlo import _beamdump_events, _sift_beamdump, _sift_standard, _standard_events

from oracles import exact_Q_pnr, exact_ebit_pnr, replay_beamdump, replay_standard

# collision-rich parameters so the replay exercises multi-event blocks,
# dead-time shadowing and dark/photon coincidences
BUSY_PNR = ProtocolParams(
    mu=0.8, nu_th=0, eta=0.9, M=3, L=4, e_sys=0.25, d_c=0.05, detector=Detector.PNR
)
BUSY_THR = ProtocolParams(
    mu=0.8, nu_th=0, eta=0.9, M=3, L=4, e_sys=0.25, d_c=0.05,
    detector=Detector.THRESHOLD,
)


# ---------------------------------------------------------------------------
# vectorized sift vs pure-Python replay


@pytest.mark.parametrize("p", [BUSY_PNR, BUSY_THR], ids=["pnr", "threshold"])
def test_sift_standard_matches_replay(p):
    rng = substream(1234, (0,))
    ev = _standard_events(p, rng, 400)
    _, accepted, errored = _sift_standard(p, ev)
    for i in range(400):
        want = replay_standard(p, ev, i)
        assert (bool(accepted[i]), bool(errored[i])) == want, f"sequence {i}"


def test_sift_beamdump_matches_replay():
    p = ProtocolParams(
        mu=1.5, nu_th=0, eta=0.9, M=3, L=4, d_c=0.05, detector=Detector.THRESHOLD
    )
    rng = substream(99, (0,))
    ev = _beamdump_events(p, rng, 400)
    _, double = _sift_beamdump(p, ev)
    for i in range(400):
        assert bool(double[i]) == replay_beamdump(p, ev, i), f"sequence {i}"


def test_multi_photon_counters_follow_ground_truth():
    rng = substream(5, (0,))
    ev = _standard_events(BUSY_PNR, rng, 300)
    counts, _, _ = _sift_standard(BUSY_PNR, ev)
    per_block = ev["n_bob"].sum(axis=2)
    assert counts.multi_photon_blocks == int((per_block >= 2).sum())
    assert counts.multi_photon_sequences == int((per_block >= 2).any(axis=1).sum())


# ---------------------------------------------------------------------------
# chunking and determinism


def test_chunk_schedule_partitions_trials():
    cases = [(10_000_001, 4 * 8, ()), (5, 2, ()), (7, 3 * CHUNK_ELEMENTS, (1,)),
             (2_500_000, 1, (1,)), (CHUNK_ELEMENTS, 7, (4, 2))]
    for trials, width, stream in cases:
        schedule = chunk_schedule(trials, width, stream)
        assert sum(count for _, count in schedule) == trials
        assert all(1 <= count * width <= max(CHUNK_ELEMENTS, width) for _, count in schedule)
        assert [key for key, _ in schedule] == [(*stream, i) for i in range(len(schedule))]
        assert {count for _, count in schedule[:-1]} <= {max(1, CHUNK_ELEMENTS // width)}
    # M=4, L=8: the chunk sizes and (i,) keys every mc-validate CSV is made with
    schedule = chunk_schedule(10_000_001, 4 * 8)
    assert schedule[:2] == [((0,), 31_250), ((1,), 31_250)]
    assert schedule[-1] == ((320,), 1)
    assert chunk_schedule(5, 1 * 2) == [((0,), 5)]


def test_simulate_is_deterministic():
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=2, L=8, d_c=1e-4),
        trials=50_000,
        seed=42,
    )
    assert simulate(cfg) == simulate(cfg)


def test_simulate_independent_of_worker_count(monkeypatch):
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=2, L=8, d_c=1e-4),
        trials=50_000,
        seed=7,
    )
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = simulate(cfg)
    monkeypatch.setenv("QKD_THREADS", "2")
    parallel = simulate(cfg)
    assert serial == parallel


def test_config_validation():
    p = ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=1, L=8)
    with pytest.raises(ValueError):
        McConfig(params=p, trials=0, seed=1)
    with pytest.raises(ValueError, match="trials"):
        McConfig(params=p, trials=sys.maxsize + 1, seed=1)
    with pytest.raises(ValueError):
        McConfig(params=p, trials=10, seed=-1)
    with pytest.raises(ValueError, match="THRESHOLD"):
        McConfig(params=p, trials=10, seed=1, mode=McMode.BEAM_DUMP)


# ---------------------------------------------------------------------------
# statistics against the exact event model


def _z(k, n, p_true):
    se = binomial_stderr(k, n)
    return (k / n - p_true) / se if se > 0 else math.inf


def test_detection_rate_exact_ztest_pnr():
    p = ProtocolParams(mu=0.01, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=11))
    assert abs(_z(stats.detected, stats.sequences, exact_Q_pnr(p))) <= 3.0


def test_detection_rate_exact_ztest_multiblock():
    p = ProtocolParams(mu=0.02, nu_th=0, eta=0.05, M=4, L=8, d_c=0.0)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=12))
    assert abs(_z(stats.detected, stats.sequences, exact_Q_pnr(p))) <= 3.0


def test_bit_error_rate_exact_ztest():
    p = ProtocolParams(mu=0.02, nu_th=0, eta=0.05, M=4, L=8, d_c=0.0, e_sys=0.03)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=13))
    assert stats.detected > 1000
    assert abs(_z(stats.bit_errors, stats.detected, exact_ebit_pnr(p))) <= 3.0


def test_leading_order_rate_sits_below_exact_by_o_lambda():
    """detection_rate_Q keeps the O(lambda) acceptance term only; at
    lambda = L*eta*mu its relative deficit against the exact model is
    ~ lambda*(M+1)/4, which a 1e7-trial run resolves.  Pinning the gap
    here is what justifies validating the Monte Carlo against the exact
    oracle above rather than against the truncated formula."""
    p = ProtocolParams(mu=0.02, nu_th=0, eta=0.05, M=4, L=8, d_c=0.0)
    lam = p.L * p.eta * p.mu
    exact = exact_Q_pnr(p)
    ana = detection_rate_Q(p)
    gap = (exact - ana) / exact
    assert 0.0 < gap < lam * (p.M + 1) / 4 * 1.5
    assert gap == pytest.approx(lam * (p.M + 1) / 4, rel=0.25)


def test_dark_only_detection_rate():
    # no light at all: acceptance is driven purely by dark counts and the
    # analytic L*d_c rate is nearly exact
    p = ProtocolParams(mu=0.0, nu_th=0, eta=0.5, M=1, L=16, d_c=1e-4)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=21))
    assert abs(_z(stats.detected, stats.sequences, exact_Q_pnr(p))) <= 3.0
    assert detection_rate_Q(p) == pytest.approx(16 * 1e-4, rel=1e-3)
    # dark clicks land on a uniformly random detector: error rate 1/2
    assert abs(_z(stats.bit_errors, stats.detected, 0.5)) <= 3.0


def test_threshold_matches_pnr_in_sparse_regime():
    # with at most one event per sequence in practice, click/no-click
    # detectors sift identically to number-resolving ones
    kw = dict(mu=0.005, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0)
    s_thr = simulate(
        McConfig(
            params=ProtocolParams(detector=Detector.THRESHOLD, **kw),
            trials=500_000,
            seed=31,
        )
    )
    p_pnr = ProtocolParams(detector=Detector.PNR, **kw)
    assert abs(_z(s_thr.detected, s_thr.sequences, exact_Q_pnr(p_pnr))) <= 3.5


def test_compare_to_analytic_rows_and_zscores():
    p = ProtocolParams(mu=0.002, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0)
    rows = compare_to_analytic(McConfig(params=p, trials=400_000, seed=41))
    assert [r.quantity for r in rows] == ["Q", "e_bit"]
    q = rows[0]
    assert q.analytic == pytest.approx(detection_rate_Q(p), rel=1e-12)
    assert abs(q.z) <= 4.0  # leading-order analytic, lambda = 8e-4
    assert not q.flagged or abs(q.z) > 3.0


# ---------------------------------------------------------------------------
# beam-dump diagnostics


def test_beamdump_conditional_double_count_bound():
    """Given a block carrying >= 2 photons, both detectors fire in it
    with probability >= 1/8 (equality for exactly two photons and no
    dark counts), so 8x the double-count rate bounds the multi-photon
    rate from above."""
    p = ProtocolParams(
        mu=0.25, nu_th=0, eta=0.5, M=1, L=8, d_c=0.0, detector=Detector.THRESHOLD
    )
    stats = simulate(
        McConfig(params=p, trials=300_000, seed=51, mode=McMode.BEAM_DUMP)
    )
    assert stats.multi_photon_sequences > 1000
    cond = stats.double_counts / stats.multi_photon_sequences
    se = binomial_stderr(stats.double_counts, stats.multi_photon_sequences)
    assert cond >= 1.0 / 8.0 - 3.0 * se
    rate_mp = stats.multi_photon_blocks / stats.sequences
    se_mp = binomial_stderr(stats.multi_photon_blocks, stats.sequences)
    assert 8.0 * stats.double_count_rate() >= rate_mp - 5.0 * se_mp


def test_beamdump_dark_counts_only():
    # double counts from two dark clicks in the same block: rate
    # ~ (L*d_c)^2 per block (each detector sees L independent chances)
    p = ProtocolParams(
        mu=0.0, nu_th=0, eta=0.5, M=2, L=16, d_c=5e-3, detector=Detector.THRESHOLD
    )
    stats = simulate(
        McConfig(params=p, trials=400_000, seed=52, mode=McMode.BEAM_DUMP)
    )
    per_det = 1.0 - (1.0 - 5e-3) ** 16
    both_same_block = per_det * per_det  # block of first A-click, M=1 term
    # M=2: both first clicks in block 0 or both in block 1
    silent = (1.0 - per_det) ** 2  # neither clicks in a given block... approx
    expect = both_same_block * (1.0 + silent)
    assert stats.double_count_rate() == pytest.approx(expect, rel=0.1)


def test_beamdump_comparison_row():
    p = ProtocolParams(
        mu=0.03, nu_th=0, eta=0.3, M=2, L=8, d_c=1e-5, detector=Detector.THRESHOLD
    )
    rows = compare_to_analytic(
        McConfig(params=p, trials=200_000, seed=53, mode=McMode.BEAM_DUMP)
    )
    assert [r.quantity for r in rows] == ["e_mB"]
    assert rows[0].empirical >= 0.0


# ---------------------------------------------------------------------------
# bookkeeping


def test_clicks_histogram_totals():
    cfg = McConfig(
        params=ProtocolParams(mu=0.3, nu_th=0, eta=0.5, M=2, L=4, d_c=1e-3,
                              detector=Detector.THRESHOLD),
        trials=20_000,
        seed=61,
    )
    stats = simulate(cfg)
    assert sum(stats.clicks_histogram.values()) == cfg.trials
    assert set(stats.clicks_histogram) <= {0, 1, 2}


def test_clicks_histogram_counts_events_for_pnr():
    cfg = McConfig(
        params=ProtocolParams(mu=0.5, nu_th=0, eta=0.9, M=2, L=4, d_c=0.0),
        trials=20_000,
        seed=62,
    )
    stats = simulate(cfg)
    assert sum(stats.clicks_histogram.values()) == cfg.trials
    assert max(stats.clicks_histogram) > 2  # photon-number resolution visible


def test_stats_helper_formulas():
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=1, L=8, d_c=0.0),
        trials=10_000,
        seed=63,
    )
    stats = simulate(cfg)
    assert stats.detection_rate() == stats.detected / stats.sequences
    assert stats.detection_stderr() == pytest.approx(
        math.sqrt(
            stats.detection_rate() * (1 - stats.detection_rate()) / stats.sequences
        )
    )
    assert binomial_stderr(0, 100) == 0.0
    assert math.isnan(binomial_stderr(1, 0))
