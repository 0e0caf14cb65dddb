"""Intercept-resend attack on naive slow-basis sifting.

Scenario: Alice runs an asymmetric-basis protocol (Z with probability p_z,
used for key; X for testing) but chooses the basis once per sequence of M
pulses instead of per pulse.  Eve blocks most sequences, measures
``n_measured`` of them pulse-by-pulse in Z and resends her results through
a lossless line, and forwards ``n_clean`` sequences untouched.  The number
of forwarded pulses is budgeted to match the detection count Bob expects
from a channel of transmission ``eta_nominal``, so the detection *rate*
raises no alarm.

The attack succeeds on basis luck: if every measured sequence was a Z
sequence (Eve's record is exact, no errors introduced) and every clean
sequence was an X sequence (it contributes no key bits Eve is missing),
Eve holds the complete sifted key and the test rounds show zero errors.
That event has probability p_z**n_measured * (1 - p_z)**n_clean.

The giveaway is the detection *pattern*: every forwarded sequence arrives
with all M pulses detected.  Modified sifting — Bob discards any sequence
with more than one detection — therefore reduces Eve's contribution to the
sifted key to zero (for M > 1) while keeping most honest detections, which
at realistic transmission are single-detection sequences.

``run_attack`` draws only the per-sequence basis choices and the binomial
basis-match counts (exact, fast).  The tests cross-check it against a
pulse-by-pulse replay (``run_attack_events`` in ``tests/oracles.py``).
Both engines here run through ``_env.seeded_chunks``, the chunked, seeded
and pooled driver the Monte Carlo uses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ._env import check_run, seeded_chunks

__all__ = [
    "AttackScenario",
    "AttackStats",
    "HonestStats",
    "DEFAULT_SCENARIO",
    "analytic_success",
    "run_attack",
    "honest_baseline",
]

_INT64_MAX = np.iinfo(np.int64).max  # the largest binomial count numpy draws


@dataclass(frozen=True)
class AttackScenario:
    """Attack geometry; validated so Eve's budget matches Bob's expectation."""

    p_z: float = 0.99
    M: int = 100
    n_sequences: int = 10_000
    n_measured: int = 99
    n_clean: int = 1
    eta_nominal: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.p_z < 1.0:
            raise ValueError(f"p_z must be in (0, 1), got {self.p_z}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.n_sequences * self.M > sys.float_info.max:
            raise ValueError(f"n_sequences*M must not exceed {sys.float_info.max:.4g}, "
                             f"got n_sequences = {self.n_sequences} and M = {self.M}")
        if self.M > _INT64_MAX:
            raise ValueError(f"M must not exceed {_INT64_MAX}, got {self.M}")
        if self.n_measured < 1:
            raise ValueError(f"n_measured must be >= 1, got {self.n_measured}")
        if self.n_clean < 0:
            raise ValueError(f"n_clean must be >= 0, got {self.n_clean}")
        if self.n_forwarded > self.n_sequences:
            raise ValueError(
                f"n_measured + n_clean = {self.n_forwarded} exceeds "
                f"n_sequences = {self.n_sequences}"
            )
        if not 0.0 < self.eta_nominal <= 1.0:
            raise ValueError(f"eta_nominal must be in (0, 1], got {self.eta_nominal}")
        expected = round(self.n_sequences * self.M * self.eta_nominal)
        budget = self.n_forwarded * self.M
        if budget != expected:
            raise ValueError(
                f"forwarded pulse budget {budget} does not match the "
                f"expected detection count {expected} "
                f"(n_sequences * M * eta_nominal)"
            )

    @property
    def n_forwarded(self) -> int:
        return self.n_measured + self.n_clean


DEFAULT_SCENARIO = AttackScenario()


def analytic_success(sc: AttackScenario) -> float:
    """Probability that the basis pattern hands Eve an undetected full key."""
    return sc.p_z**sc.n_measured * (1.0 - sc.p_z) ** sc.n_clean


@dataclass(frozen=True)
class AttackStats:
    scenario: AttackScenario
    trials: int
    successes: int
    sifted_naive_total: int
    sifted_modified_total: int
    bit_errors_total: int
    clicks_histogram: dict[int, int]

    @property
    def empirical_success(self) -> float:
        return self.successes / self.trials

    @property
    def sifted_naive_mean(self) -> float:
        return self.sifted_naive_total / self.trials

    @property
    def sifted_modified_mean(self) -> float:
        return self.sifted_modified_total / self.trials


def _attack_chunk(sc: AttackScenario, *, rng: np.random.Generator, count: int) -> tuple:
    """(successes, basis-matched pulses, test-round errors) of ``count`` runs."""
    nm = sc.n_measured
    basis_z = rng.random((count, sc.n_forwarded)) < sc.p_z
    successes = int((basis_z[:, :nm].all(axis=1) & (~basis_z[:, nm:]).all(axis=1)).sum())
    matched = rng.binomial(sc.M, np.where(basis_z, sc.p_z, 1.0 - sc.p_z))
    errors = rng.binomial(matched[:, :nm][~basis_z[:, :nm]], 0.5)
    return successes, int(matched.sum()), int(errors.sum())


def run_attack(sc: AttackScenario, trials: int, seed: int) -> AttackStats:
    """Exact sequence-level simulation of ``trials`` protocol runs.

    Per forwarded sequence only two random quantities matter: Alice's
    basis (Z with probability p_z) and the number of Bob's pulses whose
    per-pulse basis matches it, which is Binomial(M, p_z) for a Z sequence
    and Binomial(M, 1 - p_z) for an X sequence.  Test-round errors occur
    only in measured X sequences, where each matched pulse is wrong with
    probability 1/2.  All forwarded sequences produce exactly M
    detections, so modified sifting keeps nothing when M > 1.
    """
    check_run(trials, seed)
    nf = sc.n_forwarded
    successes, naive_total, errors_total = seeded_chunks(_attack_chunk, (sc,), seed, trials, nf)
    hist = {0: (sc.n_sequences - nf) * trials} if sc.n_sequences > nf else {}
    hist[sc.M] = nf * trials  # M >= 1, so this never adds to the blocked count at 0
    return AttackStats(
        scenario=sc,
        trials=trials,
        successes=successes,
        sifted_naive_total=naive_total,
        sifted_modified_total=naive_total if sc.M == 1 else 0,
        bit_errors_total=errors_total,
        clicks_histogram=hist,
    )


@dataclass(frozen=True)
class HonestStats:
    trials: int
    sifted_naive_total: int
    sifted_modified_total: int

    @property
    def sifted_naive_mean(self) -> float:
        return self.sifted_naive_total / self.trials

    @property
    def sifted_modified_mean(self) -> float:
        return self.sifted_modified_total / self.trials


def _honest_chunk(sc: AttackScenario, *, rng: np.random.Generator, count: int) -> tuple[int, int]:
    """(naive, modified) sifted yield of ``count`` honest sequences."""
    detections = rng.binomial(sc.M, sc.eta_nominal, count)
    alice_z = rng.random(count) < sc.p_z
    matched = rng.binomial(detections, np.where(alice_z, sc.p_z, 1.0 - sc.p_z))
    return int(matched.sum()), int(matched[detections == 1].sum())


def honest_baseline(sc: AttackScenario, trials: int, seed: int) -> HonestStats:
    """Sifted-key yield of the honest lossy channel under both sifting rules.

    Detections per sequence are Binomial(M, eta_nominal); sifting keeps
    basis-matched detections.  Modified sifting keeps only sequences with
    exactly one detection, which at small M * eta is nearly all of them —
    the honest penalty of the countermeasure is mild while it zeroes the
    attack.  Only totals are kept, so the trials x n_sequences sequences
    run as one i.i.d. stream of width 1, and memory does not grow with
    n_sequences.
    """
    check_run(trials, seed)
    totals = seeded_chunks(_honest_chunk, (sc,), seed, trials * sc.n_sequences, 1, stream=(1,))
    return HonestStats(trials, *totals)
