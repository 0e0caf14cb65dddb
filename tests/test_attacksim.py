"""Intercept-resend attack bookkeeping, cross-engine agreement, controls."""

import math
import sys
import tracemalloc

import pytest

from slowqkd import (
    DEFAULT_SCENARIO,
    AttackScenario,
    analytic_success,
    honest_baseline,
    run_attack,
)

from oracles import run_attack_events

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
    se = math.sqrt(ana * (1 - ana) / stats.trials)
    assert abs(stats.empirical_success - ana) <= 3.0 * se


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


def test_run_attack_click_pattern_is_all_or_nothing():
    stats = run_attack(DEFAULT_SCENARIO, trials=1000, seed=21)
    sc = DEFAULT_SCENARIO
    assert stats.clicks_histogram == {
        0: (sc.n_sequences - sc.n_forwarded) * 1000,
        sc.M: sc.n_forwarded * 1000,
    }


def test_run_attack_test_round_error_mean():
    # errors only in measured X sequences: nm*(1-p_z) of them on average,
    # each with Binomial(M, 1-p_z) sifted test bits flipping half the time
    sc = DEFAULT_SCENARIO
    stats = run_attack(sc, trials=200_000, seed=22)
    expect = sc.n_measured * (1 - sc.p_z) * sc.M * (1 - sc.p_z) * 0.5
    assert stats.bit_errors_total / stats.trials == pytest.approx(expect, rel=0.05)


def test_run_attack_deterministic():
    a = run_attack(DEFAULT_SCENARIO, trials=70_000, seed=5)
    b = run_attack(DEFAULT_SCENARIO, trials=70_000, seed=5)
    assert a == b


def test_honest_baseline_independent_of_worker_count(monkeypatch):
    # 2.5*10^6 sequences: three chunks of at most 10^6 (run_attack: test_cli)
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = honest_baseline(DEFAULT_SCENARIO, 250, 8)
    monkeypatch.setenv("QKD_THREADS", "2")
    assert honest_baseline(DEFAULT_SCENARIO, 250, 8) == serial


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
    freq = sum(o.undetected_success for o in outcomes) / len(outcomes)
    ana = analytic_success(SMALL)
    se = math.sqrt(ana * (1 - ana) / len(outcomes))
    assert abs(freq - ana) <= 4.0 * se


def test_event_engine_agrees_with_sequence_engine_on_yield():
    outcomes = run_attack_events(SMALL, trials=2000, seed=25)
    ev_mean = sum(o.sifted_bits_naive for o in outcomes) / len(outcomes)
    seq = run_attack(SMALL, trials=50_000, seed=26)
    assert ev_mean == pytest.approx(seq.sifted_naive_mean, rel=0.05)


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
