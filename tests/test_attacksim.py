"""Intercept-resend attack bookkeeping, cross-engine agreement, controls."""

import math
import sys
import time
import tracemalloc

import pytest

from slowqkd import (
    DEFAULT_SCENARIO,
    AttackScenario,
    HonestStats,
    analytic_success,
    honest_baseline,
    run_attack,
)

from oracles import honest_baseline_sequences, run_attack_events, z_score

# small enough for the pulse-level engine, same structure as the default
SMALL = AttackScenario(
    p_z=0.9, M=5, n_sequences=2100, n_measured=20, n_clean=1, eta_nominal=0.01
)


def test_analytic_success_default_scenario():
    # 0.99^99 * 0.01, frozen from high-precision evaluation
    got = analytic_success(DEFAULT_SCENARIO)
    assert got == pytest.approx(0.0036972963764972675, rel=1e-12)
    assert abs(got - 3.697e-3) <= 1e-6


def test_analytic_success_composes():
    sc = SMALL
    assert analytic_success(sc) == pytest.approx(0.9**20 * 0.1, rel=1e-12)


def test_scenario_budget_validation():
    # forwarded pulses must match the detection count Bob expects
    with pytest.raises(ValueError, match="budget"):
        AttackScenario(n_measured=98, n_clean=1)
    with pytest.raises(ValueError, match="budget"):
        AttackScenario(eta_nominal=0.02)
    AttackScenario(n_measured=98, n_clean=2)  # still 100 forwarded: fine


def test_scenario_field_validation():
    with pytest.raises(ValueError):
        AttackScenario(p_z=1.0)
    with pytest.raises(ValueError):
        AttackScenario(p_z=0.0)
    with pytest.raises(ValueError):
        AttackScenario(M=0)
    with pytest.raises(ValueError, match="n_clean must be >= 0"):
        AttackScenario(n_measured=101, n_clean=-1)  # 100 forwarded: only the sign refuses it
    with pytest.raises(ValueError, match="exceeds"):
        AttackScenario(n_sequences=50, n_measured=99, n_clean=1, eta_nominal=1.0)
    # the budget check would overflow converting n_sequences*M to a float
    with pytest.raises(ValueError, match="n_sequences"):
        AttackScenario(n_sequences=10**400)
    with pytest.raises(ValueError, match="n_sequences"):
        AttackScenario(M=10**400)
    # numpy draws binomial counts up to int64 only
    with pytest.raises(ValueError, match="M must not exceed"):
        AttackScenario(M=2**63, n_sequences=1, n_measured=1, n_clean=0, eta_nominal=1.0)
    run_attack(AttackScenario(M=2**62, n_sequences=1, n_measured=1, n_clean=0, eta_nominal=1.0), 3, 1)


@pytest.mark.parametrize("field", ["M", "n_sequences", "n_measured", "n_clean"])
def test_scenario_counts_refuse_non_integers(field):
    # each of these floats keeps the pulse budget balanced, so only the type check refuses it
    value = {"M": 2.5, "n_sequences": 10_000.0, "n_measured": 99.0, "n_clean": 1.0}[field]
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        AttackScenario(**{field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        AttackScenario(**{field: True})


@pytest.mark.parametrize("trials,seed,field", [(2.5, 1, "trials"), (10, 1.0, "seed"), (True, 1, "trials")])
def test_run_counts_refuse_non_integers(trials, seed, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        run_attack(SMALL, trials, seed)
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        honest_baseline(SMALL, trials, seed)


def test_totals_past_int64_are_exact_python_ints():
    # one run holds up to M * n_forwarded = 2^62 matched pulses, so the
    # totals of three or four runs pass 2^63 and must not wrap negative
    M = 2**62
    one = AttackScenario(M=M, n_sequences=1, n_measured=1, n_clean=0, eta_nominal=1.0)
    stats = run_attack(one, 3, 1)
    assert 0 <= stats.sifted_naive_total <= 3 * M
    assert 0 <= stats.bit_errors_total <= 3 * M
    honest = honest_baseline(one, 4, 1)
    assert 0 <= honest.sifted_naive_total <= 4 * M
    assert honest.sifted_modified_total == 0  # every sequence has M > 1 detections
    # four forwarded sequences of 2^62 pulses are past what one binomial draws
    with pytest.raises(ValueError, match="M must not exceed"):
        AttackScenario(M=M, n_sequences=4, n_measured=4, n_clean=0, eta_nominal=1.0)


def test_attack_memory_does_not_grow_with_n_forwarded(monkeypatch):
    # 10^10 forwarded sequences per run, yet a run is five numbers: the peak
    # must not scale with n_forwarded (a basis array would be 10^10 elements)
    monkeypatch.delenv("QKD_THREADS", raising=False)
    sc = AttackScenario(n_sequences=10**12, n_measured=10**10 - 1, n_clean=1)
    tracemalloc.start()
    try:
        stats = run_attack(sc, trials=2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert 0 < stats.sifted_naive_total <= 2 * sc.M * sc.n_forwarded


def test_run_sizes_past_sys_maxsize_and_negative_seeds_are_refused():
    for engine in (run_attack, honest_baseline):
        with pytest.raises(ValueError, match="trials"):
            engine(SMALL, trials=sys.maxsize + 1, seed=1)
        with pytest.raises(ValueError, match="trials"):
            engine(SMALL, trials=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            engine(SMALL, trials=10, seed=-1)


def test_run_attack_success_frequency():
    stats = run_attack(DEFAULT_SCENARIO, trials=200_000, seed=17)
    ana = analytic_success(DEFAULT_SCENARIO)
    assert abs(z_score(stats.successes, stats.trials, ana, ana * (1 - ana))) <= 3.0


def test_run_attack_naive_sifting_leaks_key_material():
    stats = run_attack(DEFAULT_SCENARIO, trials=50_000, seed=18)
    # every forwarded sequence contributes its basis-matched pulses
    sc = DEFAULT_SCENARIO
    expect = sc.n_measured * (sc.p_z**2 + (1 - sc.p_z) ** 2) * sc.M + sc.n_clean * (
        sc.p_z**2 + (1 - sc.p_z) ** 2
    ) * sc.M
    assert stats.sifted_naive_mean == pytest.approx(expect, rel=0.02)
    assert stats.sifted_naive_mean > 0


def test_run_attack_modified_sifting_removes_everything():
    stats = run_attack(DEFAULT_SCENARIO, trials=50_000, seed=19)
    assert stats.sifted_modified_total == 0
    assert stats.sifted_modified_mean == 0.0


def test_run_attack_single_pulse_sequences_evade_countermeasure():
    # with M = 1 every forwarded sequence is a single detection, so the
    # multiple-detection discard has nothing to remove
    sc = AttackScenario(
        p_z=0.99, M=1, n_sequences=10_000, n_measured=99, n_clean=1,
        eta_nominal=0.01,
    )
    stats = run_attack(sc, trials=20_000, seed=20)
    assert stats.sifted_modified_total == stats.sifted_naive_total > 0


def test_run_attack_test_round_error_mean():
    # errors only in measured X sequences: nm*(1-p_z) of them on average,
    # each with Binomial(M, 1-p_z) sifted test bits flipping half the time
    sc = DEFAULT_SCENARIO
    stats = run_attack(sc, trials=200_000, seed=22)
    expect = sc.n_measured * (1 - sc.p_z) * sc.M * (1 - sc.p_z) * 0.5
    assert stats.bit_errors_total / stats.trials == pytest.approx(expect, rel=0.05)


def _error_moments(sc: AttackScenario) -> tuple[float, float]:
    """Exact mean and variance of one run's test-round errors: per measured
    sequence 1[X] * Binomial(M, (1 - p_z)/2), independently."""
    x = 1.0 - sc.p_z
    r = x / 2
    mean = x * sc.M * r
    second = x * (sc.M * r * (1 - r) + (sc.M * r) ** 2)
    return sc.n_measured * mean, sc.n_measured * (second - mean**2)


def _naive_moments(sc: AttackScenario) -> tuple[float, float]:
    """Exact mean and variance of one run's basis-matched pulses: per forwarded
    sequence Binomial(M, q) with q = p_z or 1 - p_z as Alice picks Z or X."""
    p = sc.p_z
    pi = p**2 + (1 - p) ** 2
    kappa = p**3 + (1 - p) ** 3
    return sc.n_forwarded * sc.M * pi, sc.n_forwarded * (sc.M * p * (1 - p) + sc.M**2 * (kappa - pi**2))


def test_run_attack_totals_match_their_exact_moments():
    sc = DEFAULT_SCENARIO
    stats = run_attack(sc, trials=200_000, seed=32)
    for total, (mean, var) in ((stats.bit_errors_total, _error_moments(sc)),
                               (stats.sifted_naive_total, _naive_moments(sc))):
        z = z_score(total, stats.trials, mean, var)
        assert abs(z) <= 4.0, (total, mean, var, z)


def test_successful_runs_have_no_test_round_errors():
    # one run per seed, so each AttackStats is one run's joint outcome
    runs = [run_attack(SMALL, trials=1, seed=s) for s in range(3000)]
    wins = [r for r in runs if r.successes]
    assert len(wins) > 10  # about 0.9^20 * 0.1 * 3000 = 36.5
    assert all(r.bit_errors_total == 0 for r in wins)
    assert any(r.bit_errors_total > 0 for r in runs)


def test_run_attack_deterministic():
    a = run_attack(DEFAULT_SCENARIO, trials=70_000, seed=5)
    b = run_attack(DEFAULT_SCENARIO, trials=70_000, seed=5)
    assert a == b


def test_honest_baseline_independent_of_worker_count(monkeypatch, two_workers):
    # 2.5*10^6 sequences: three chunks of at most 10^6 (run_attack: test_cli)
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = honest_baseline(DEFAULT_SCENARIO, 250, 8)
    with two_workers():
        assert honest_baseline(DEFAULT_SCENARIO, 250, 8) == serial


def test_cheap_honest_baseline_starts_no_pool(two_workers):
    # ten chunks of about 70 us each save far less than a worker's start-up
    with two_workers(gated=True) as pools:
        honest_baseline(DEFAULT_SCENARIO, 1000, 8)
    assert pools == []


# ---------------------------------------------------------------------------
# pulse-level reference engine


def test_event_engine_invariants():
    outcomes = run_attack_events(SMALL, trials=3000, seed=23)
    assert len(outcomes) == 3000
    for o in outcomes:
        assert o.sifted_bits_modified == 0  # M > 1: all-M click pattern
        assert all(c == SMALL.M for c in o.per_sequence_clicks)
        assert o.eve_record_matches
        if o.undetected_success:
            assert o.bit_errors == 0


def test_event_engine_success_frequency_matches_analytic():
    outcomes = run_attack_events(SMALL, trials=3000, seed=24)
    wins = sum(o.undetected_success for o in outcomes)
    ana = analytic_success(SMALL)
    assert abs(z_score(wins, len(outcomes), ana, ana * (1 - ana))) <= 4.0


def test_event_engine_agrees_with_sequence_engine_on_yield():
    outcomes = run_attack_events(SMALL, trials=2000, seed=25)
    ev_mean = sum(o.sifted_bits_naive for o in outcomes) / len(outcomes)
    seq = run_attack(SMALL, trials=50_000, seed=26)
    assert ev_mean == pytest.approx(seq.sifted_naive_mean, rel=0.05)


def test_event_engine_agrees_with_sequence_engine_on_errors():
    outcomes = run_attack_events(SMALL, trials=5000, seed=33)
    ev_mean = sum(o.bit_errors for o in outcomes) / len(outcomes)
    seq = run_attack(SMALL, trials=50_000, seed=34)
    var = _error_moments(SMALL)[1]
    se = math.sqrt(var / len(outcomes) + var / seq.trials)
    assert abs(ev_mean - seq.bit_errors_total / seq.trials) <= 4.0 * se


def test_event_engine_modified_equals_naive_at_single_pulse():
    sc = AttackScenario(
        p_z=0.9, M=1, n_sequences=2100, n_measured=20, n_clean=1,
        eta_nominal=0.01,
    )
    outcomes = run_attack_events(sc, trials=500, seed=27)
    for o in outcomes:
        assert o.sifted_bits_modified == o.sifted_bits_naive


# ---------------------------------------------------------------------------
# honest-channel controls


def test_honest_baseline_mean_yield():
    # symmetric bases: mean sifted = n_seq * M * eta / 2
    sc = AttackScenario(
        p_z=0.5, M=1000, n_sequences=10_000, n_measured=1, n_clean=0,
        eta_nominal=1e-4,
    )
    st = honest_baseline(sc, trials=400, seed=28)
    se = math.sqrt(500.0 / 400)  # per-trial totals are nearly Poisson(500)
    assert abs(st.sifted_naive_mean - 500.0) <= 3.0 * se


def test_honest_baseline_memory_does_not_grow_with_n_sequences(monkeypatch):
    # one trial of 4*10^6 sequences runs in chunks of 10^6, not as one
    # (1, n_sequences) array per draw (a 100 MB traced peak when it did)
    monkeypatch.delenv("QKD_THREADS", raising=False)
    sc = AttackScenario(n_sequences=4_000_000, n_measured=39_999, n_clean=1)
    tracemalloc.start()
    try:
        honest_baseline(sc, trials=1, seed=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_honest_baseline_survives_modified_sifting():
    """The countermeasure that zeroes the attack barely costs the honest
    channel: with M*eta << 1 nearly all detected sequences carry exactly
    one detection and stay in the sifted key."""
    sc = AttackScenario(
        p_z=0.99, M=1000, n_sequences=100_000, n_measured=1, n_clean=0,
        eta_nominal=1e-5,
    )
    st = honest_baseline(sc, trials=200, seed=29)
    assert st.sifted_modified_total > 0
    loss = 1.0 - st.sifted_modified_mean / st.sifted_naive_mean
    assert loss < 0.02  # M*eta = 0.01: bunching is rare


# ---------------------------------------------------------------------------
# the detection-class engine against per-sequence draws and exact moments

# (scenario, trials): one detection per sequence at most; a busy channel with
# many multi-detection sequences; every pulse detected; symmetric bases; and
# fewer sequences in the whole run than detection classes, so its one chunk
# draws sequence by sequence
HONEST_CASES = {
    "M=1": (AttackScenario(p_z=0.9, M=1, n_sequences=10_000, n_measured=99, n_clean=1,
                           eta_nominal=0.01), 100),
    "busy": (AttackScenario(p_z=0.8, M=5, n_sequences=1000, n_measured=299, n_clean=1,
                            eta_nominal=0.3), 1000),
    "eta=1": (AttackScenario(p_z=0.7, M=3, n_sequences=100, n_measured=100, n_clean=0,
                             eta_nominal=1.0), 2000),
    "p_z=0.5": (AttackScenario(p_z=0.5, M=20, n_sequences=5000, n_measured=49, n_clean=1,
                               eta_nominal=0.01), 200),
    "per-sequence chunk": (AttackScenario(p_z=0.6, M=1000, n_sequences=100, n_measured=1,
                                          n_clean=0, eta_nominal=0.01), 9),
}


def _honest_moments(sc: AttackScenario) -> dict[str, tuple[float, float]]:
    """Exact per-sequence mean and variance of the naive bits, the modified
    bits, and the naive bits of multi-detection sequences (their difference).
    A sequence's matched detections are Binomial(M, eta * q), q = p_z or
    1 - p_z as Alice picks Z or X; modified sifting keeps one bit with
    probability s = M eta (1 - eta)^(M-1) E[q], and naive * modified =
    modified, so their covariance is s (1 - E[naive])."""
    p, M, eta = sc.p_z, sc.M, sc.eta_nominal
    pi, kappa = p**2 + (1 - p) ** 2, p**3 + (1 - p) ** 3
    naive = (M * eta * pi, M * eta * pi - M * eta**2 * kappa + M**2 * eta**2 * (kappa - pi**2))
    s = M * eta * (1 - eta) ** (M - 1) * pi
    modified = (s, s * (1 - s))
    multi = (naive[0] - s, naive[1] + modified[1] - 2 * s * (1 - naive[0]))
    return {"naive": naive, "modified": modified, "multi": multi}


def _honest_totals(st) -> dict[str, int]:
    return {"naive": st.sifted_naive_total, "modified": st.sifted_modified_total,
            "multi": st.sifted_naive_total - st.sifted_modified_total}


@pytest.mark.parametrize("case", list(HONEST_CASES))
def test_honest_baseline_matches_sequence_oracle_and_exact_moments(case):
    sc, trials = HONEST_CASES[case]
    n = trials * sc.n_sequences
    assert (sc.M + 1 > n) == (case == "per-sequence chunk")  # one chunk of n sequences
    fast = _honest_totals(honest_baseline(sc, trials, seed=41))
    slow = _honest_totals(honest_baseline_sequences(sc, trials, seed=42))
    for name, (mean, var) in _honest_moments(sc).items():
        for engine in (fast, slow):
            assert abs(z_score(engine[name], n, mean, var)) <= 4.0, (name, engine, mean, var)
        assert abs(fast[name] - slow[name]) <= 4.0 * math.sqrt(2 * n * var), (name, fast, slow)


def test_honest_baseline_spread_matches_the_exact_variance():
    # 40 seeds of one busy chunk: the z-scores against the exact moments
    # must have mean about 0 and spread about 1 (4 sigma of 40 samples)
    sc, _ = HONEST_CASES["busy"]
    trials = 20
    n = trials * sc.n_sequences
    moments = _honest_moments(sc)
    for name, (mean, var) in moments.items():
        z = [z_score(_honest_totals(honest_baseline(sc, trials, seed))[name], n, mean, var)
             for seed in range(100, 140)]
        avg = sum(z) / len(z)
        sd = math.sqrt(sum((x - avg) ** 2 for x in z) / (len(z) - 1))
        assert abs(avg) <= 4.0 / math.sqrt(len(z)), (name, avg)
        assert 0.55 <= sd <= 1.45, (name, sd)


def test_honest_baseline_draws_past_one_chunk_by_class():
    # 10^6 + 500 sequences of M = 1000: a class chunk of 10^6, then a chunk
    # of 500 sequences, fewer than its 1001 classes, drawn sequence by sequence
    sc, _ = HONEST_CASES["per-sequence chunk"]
    trials = 10_005
    n = trials * sc.n_sequences
    totals = _honest_totals(honest_baseline(sc, trials, seed=43))
    for name, (mean, var) in _honest_moments(sc).items():
        assert abs(z_score(totals[name], n, mean, var)) <= 4.0, (name, totals)


# (scenario, trials, seed, naive total, modified total), recorded with the versions in
# perfbench/refs/PROVENANCE.json: three chunks by class; a chunk by class and a last one of
# 500 sequences, fewer than its 1001 classes; and M = CHUNK_ELEMENTS, so both chunks go
# sequence by sequence.  A change of draws or substreams changes these totals.
HONEST_TOTALS = [
    (DEFAULT_SCENARIO, 250, 8, 2_450_698, 904_742),
    (HONEST_CASES["per-sequence chunk"][0], 10_005, 43, 5_203_367, 240),
    (AttackScenario(p_z=0.6, M=10**6, n_sequences=1000, n_measured=10, n_clean=0,
                    eta_nominal=0.01), 1001, 44, 5_204_489_308, 0),
]


@pytest.mark.usefixtures("reference_versions")
@pytest.mark.parametrize("sc,trials,seed,naive,modified", HONEST_TOTALS,
                         ids=["by class", "last chunk by sequence", "M = chunk size"])
def test_honest_baseline_matches_its_reference_totals(sc, trials, seed, naive, modified):
    assert honest_baseline(sc, trials, seed) == HonestStats(trials, naive, modified)


def test_honest_baseline_default_scenario_is_fast(monkeypatch):
    # 10^7 sequences in ten chunks of O(M) draws each: milliseconds, where
    # a per-sequence draw took about half a second (in process: a pool's
    # spawned workers alone take longer)
    monkeypatch.delenv("QKD_THREADS", raising=False)
    best = math.inf
    for seed in range(3):
        start = time.perf_counter()
        honest_baseline(DEFAULT_SCENARIO, 1000, seed)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
