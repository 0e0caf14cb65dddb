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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AttackScenario",
    "AttackStats",
    "HonestStats",
    "DEFAULT_SCENARIO",
    "analytic_success",
    "run_attack",
    "honest_baseline",
]

_CHUNK_TRIALS = 1 << 16


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    nm, nf = sc.n_measured, sc.n_forwarded
    successes = 0
    naive_total = 0
    errors_total = 0
    done = 0
    index = 0
    while done < trials:
        count = min(_CHUNK_TRIALS, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        basis_z = rng.random((count, nf)) < sc.p_z
        successes += int((basis_z[:, :nm].all(axis=1) & (~basis_z[:, nm:]).all(axis=1)).sum())
        matched = rng.binomial(sc.M, np.where(basis_z, sc.p_z, 1.0 - sc.p_z))
        naive_total += int(matched.sum())
        measured_x = matched[:, :nm][~basis_z[:, :nm]]
        if measured_x.size:
            errors_total += int(rng.binomial(measured_x, 0.5).sum())
        done += count
        index += 1
    hist: dict[int, int] = {}
    if sc.n_sequences > nf:
        hist[0] = (sc.n_sequences - nf) * trials
    hist[sc.M] = hist.get(sc.M, 0) + nf * trials
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


def honest_baseline(sc: AttackScenario, trials: int, seed: int) -> HonestStats:
    """Sifted-key yield of the honest lossy channel under both sifting rules.

    Detections per sequence are Binomial(M, eta_nominal); sifting keeps
    basis-matched detections.  Modified sifting keeps only sequences with
    exactly one detection, which at small M * eta is nearly all of them —
    the honest penalty of the countermeasure is mild while it zeroes the
    attack.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    naive_total = 0
    modified_total = 0
    done = 0
    index = 0
    chunk = max(1, _CHUNK_TRIALS // max(1, sc.n_sequences // 64))
    while done < trials:
        count = min(chunk, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, index)))
        detections = rng.binomial(sc.M, sc.eta_nominal, (count, sc.n_sequences))
        alice_z = rng.random((count, sc.n_sequences)) < sc.p_z
        matched = rng.binomial(detections, np.where(alice_z, sc.p_z, 1.0 - sc.p_z))
        naive_total += int(matched.sum())
        modified_total += int(matched[detections == 1].sum())
        done += count
        index += 1
    return HonestStats(
        trials=trials,
        sifted_naive_total=naive_total,
        sifted_modified_total=modified_total,
    )
