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

``run_attack`` draws each run from its basis counts: how many measured and
how many clean sequences are Z sequences, then one binomial per kind of
basis-matched pulse and one for the test-round errors.  ``honest_baseline``
draws the honest channel by detection class: per basis, one multinomial
gives how many sequences had 0, 1, ..., M detections, then one binomial
each gives the matched bits of single- and of multi-detection sequences.
Both are exact for the reported totals.  A run of ``run_attack`` costs the
same however many sequences it has, and a chunk of ``honest_baseline``
costs O(M) whatever its sequence count.  The tests cross-check them against a
pulse-by-pulse replay of the attack (``run_attack_events``) and a
sequence-by-sequence draw of the honest channel
(``honest_baseline_sequences``), both in ``tests/oracles.py``.  Both
engines here run in seeded chunks through ``_env.seeded_chunks``, as the
Monte Carlo does, and add their totals as exact Python ints.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._env import check_integers, check_run, seeded_chunks

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
_RUN_ARRAYS = 5  # length-count arrays _attack_chunk holds: its width per run


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
        check_integers(M=self.M, n_sequences=self.n_sequences, n_measured=self.n_measured,
                       n_clean=self.n_clean)
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.n_sequences * self.M > sys.float_info.max:
            raise ValueError(f"n_sequences*M must not exceed {sys.float_info.max:.4g}, "
                             f"got n_sequences = {self.n_sequences} and M = {self.M}")
        if self.n_measured < 1:
            raise ValueError(f"n_measured must be >= 1, got {self.n_measured}")
        if self.n_clean < 0:
            raise ValueError(f"n_clean must be >= 0, got {self.n_clean}")
        if self.n_forwarded > self.n_sequences:
            raise ValueError(
                f"n_measured + n_clean = {self.n_forwarded} exceeds "
                f"n_sequences = {self.n_sequences}"
            )
        if self.n_forwarded * self.M > _INT64_MAX:  # the largest matched count of one run
            raise ValueError(f"M must not exceed {_INT64_MAX // self.n_forwarded} "
                             f"((2**63 - 1) // (n_measured + n_clean)), got {self.M}")
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
    trials: int
    successes: int
    sifted_naive_total: int
    sifted_modified_total: int
    bit_errors_total: int

    @property
    def empirical_success(self) -> float:
        return self.successes / self.trials

    @property
    def sifted_naive_mean(self) -> float:
        return self.sifted_naive_total / self.trials

    @property
    def sifted_modified_mean(self) -> float:
        return self.sifted_modified_total / self.trials


def _total(counts: np.ndarray, bound: int) -> int:
    """Exact sum of ``counts``, each at most ``bound``: in int64 when that cannot wrap."""
    return int(counts.sum()) if counts.size * bound <= _INT64_MAX else sum(counts.tolist())


def _attack_chunk(sc: AttackScenario, *, rng: np.random.Generator, count: int) -> tuple:
    """(successes, basis-matched pulses, test-round errors) of ``count`` runs."""
    nm, nc, M, p = sc.n_measured, sc.n_clean, sc.M, sc.p_z
    z_m = rng.binomial(nm, p, count)
    z_c = rng.binomial(nc, p, count)
    successes = int(np.count_nonzero((z_m == nm) & (z_c == 0)))
    x_matched = rng.binomial(M * (nm - z_m), 1.0 - p)
    matched = x_matched + rng.binomial(M * (z_m + z_c), p) + rng.binomial(M * (nc - z_c), 1.0 - p)
    errors = rng.binomial(x_matched, 0.5)
    return successes, _total(matched, M * sc.n_forwarded), _total(errors, M * nm)


def run_attack(sc: AttackScenario, trials: int, seed: int) -> AttackStats:
    """Exact simulation of ``trials`` protocol runs, drawn from basis counts.

    Alice picks Z with probability p_z per sequence, so a run has Z_m ~
    Binomial(n_measured, p_z) measured and Z_c ~ Binomial(n_clean, p_z)
    clean Z sequences, and Eve succeeds when Z_m = n_measured and Z_c = 0.
    Each of Bob's M pulses of a sequence matches its basis with probability
    p_z (Z sequence) or 1 - p_z (X sequence), so the run's matched pulses
    are Binomial(M*(Z_m + Z_c), p_z) + Binomial(M*(n_measured - Z_m),
    1 - p_z) + Binomial(M*(n_clean - Z_c), 1 - p_z).  Test-round errors
    occur only in measured X sequences, each matched pulse wrong with
    probability 1/2.  All forwarded sequences produce exactly M
    detections, so modified sifting keeps nothing when M > 1.
    """
    check_run(trials, seed)
    successes, naive_total, errors_total = seeded_chunks(
        _attack_chunk, (sc,), seed, trials, _RUN_ARRAYS
    )
    return AttackStats(
        trials=trials,
        successes=successes,
        sifted_naive_total=naive_total,
        sifted_modified_total=naive_total if sc.M == 1 else 0,
        bit_errors_total=errors_total,
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


@functools.lru_cache(maxsize=1)
def _detection_pmf(M: int, eta: float) -> np.ndarray:
    """Binomial(M, eta) pmf over d = 0..M in log space (no term overflows); read-only, as cached."""
    if eta == 1.0:  # every pulse is detected; log1p(-1) * 0 would make d = M nan
        pmf = np.eye(1, M + 1, M)[0]
    else:
        log_fact = np.fromiter(map(math.lgamma, range(1, M + 2)), float, M + 1)  # log d!
        log_choose = log_fact[M] - log_fact - log_fact[::-1]
        d = np.arange(M + 1)
        pmf = np.exp(log_choose + d * math.log(eta) + (M - d) * math.log1p(-eta))
        pmf /= pmf.sum()  # else rounding in log d! at large M leaves stray mass to d = M
    pmf.flags.writeable = False
    return pmf


def _honest_chunk(sc: AttackScenario, *, rng: np.random.Generator, count: int) -> tuple[int, int]:
    """(naive, modified) sifted yield of ``count`` honest sequences."""
    n_z = rng.binomial(count, sc.p_z)  # sequences are exchangeable: split them by basis once
    naive = modified = 0
    for n_b, q in ((n_z, sc.p_z), (count - n_z, 1.0 - sc.p_z)):
        if sc.M < count:  # count <= 10^6, so every draw is below count * M < 10^12
            per_class = rng.multinomial(n_b, _detection_pmf(sc.M, sc.eta_nominal))
            single = per_class[1]
            multi = rng.binomial(per_class[2:] @ np.arange(2, sc.M + 1), q)
        else:  # more classes than sequences: draw each sequence's detections, each below 2^63
            detections = rng.binomial(sc.M, sc.eta_nominal, n_b)
            single = np.count_nonzero(detections == 1)
            multi = _total(rng.binomial(detections[detections > 1], q), sc.M)
        kept = int(rng.binomial(single, q))
        modified += kept
        naive += kept + int(multi)
    return naive, modified


def honest_baseline(sc: AttackScenario, trials: int, seed: int) -> HonestStats:
    """Sifted-key yield of the honest lossy channel under both sifting rules.

    Detections per sequence are Binomial(M, eta_nominal); sifting keeps
    basis-matched detections.  Modified sifting keeps only sequences with
    exactly one detection, which at small M * eta is nearly all of them —
    the honest penalty of the countermeasure is mild while it zeroes the
    attack.  Only totals are reported, so only totals are drawn.  A chunk
    splits its sequences by basis with one binomial.  Per basis, with match
    probability q, one multinomial over the Binomial(M, eta) pmf gives the
    number n_d of sequences with d detections; modified sifting keeps
    Binomial(n_1, q) bits and naive sifting that plus Binomial(sum over
    d >= 2 of d * n_d, q).  That is the exact joint law of the two totals,
    at O(M) cost per chunk whatever its sequence count.  Each chunk picks
    its path alone: one with no more sequences than M (huge M) draws each
    sequence's detections instead, so no array outgrows the chunk and no
    draw reaches 2^63.  The trials x n_sequences sequences run as one
    i.i.d. stream of width 1, and memory does not grow with n_sequences.
    """
    check_run(trials, seed)
    totals = seeded_chunks(_honest_chunk, (sc,), seed, trials * sc.n_sequences, 1, stream=(1,))
    return HonestStats(trials, *totals)
