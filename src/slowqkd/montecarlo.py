"""Event-level Monte Carlo for the slow-basis detection model.

Simulates photon emission, channel loss, interferometer routing, dark
counts, dead time and sifting for sequences of M blocks x L pulses.

With the basis fixed per sequence, Bob reads at most one outcome from a
sequence: the one in its first block that holds a click.  Both modes sift
on that block, found by ``_first_block``.

* ``STANDARD`` — the full sifting chain.  Each pulse carries a Poisson(mu)
  photon number; photons survive the channel with probability eta, reach a
  valid detection slot with probability 1/2, and land on the detector
  encoding the correct bit with probability 1 - e_sys.  One dark-count
  opportunity per valid slot fires with probability d_c on a uniformly
  random detector.  Bob keeps the first clicked block if it contains
  exactly one event (PNR: one photon-number count; threshold: one detector
  clicking with the partner silent).
* ``BEAM_DUMP`` — the double-count diagnostic with one interferometer arm
  blocked.  An arriving photon is detected with probability 1/2 overall
  (1/4 per detector, the rest absorbed); a detector is dead from its first
  click to the end of the sequence, so a photon routed to a dead detector
  is lost (detection probability 1/4 when one detector is live).  A
  double count is recorded when both detectors click in the first clicked
  block, that is when their first clicks fall in the same block.

Trials are vectorized in chunks of at most ``CHUNK_ELEMENTS`` pulse slots
(one sequence when M*L is larger) by ``_env.seeded_chunks``, the driver the
attack study shares; chunk i draws from substream (seed, (i,)), so the
statistics are a pure function of the configuration and do not depend on
scheduling or worker count (QKD_THREADS).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._env import check_run, seeded_chunks
from .keyrate import Detector, ProtocolParams, key_rate

__all__ = [
    "McMode",
    "McConfig",
    "McStats",
    "McComparison",
    "binomial_stderr",
    "simulate",
    "compare_to_analytic",
]


class McMode(str, enum.Enum):
    STANDARD = "standard"
    BEAM_DUMP = "beamdump"


@dataclass(frozen=True)
class McConfig:
    """A simulation request: protocol parameters, trial count, seed, mode."""

    params: ProtocolParams
    trials: int
    seed: int
    mode: McMode = McMode.STANDARD

    def __post_init__(self) -> None:
        check_run(self.trials, self.seed)
        if self.mode is McMode.BEAM_DUMP and self.params.detector is not Detector.THRESHOLD:
            raise ValueError("beam-dump mode is a threshold-detector diagnostic; "
                             "params.detector must be THRESHOLD")


@dataclass(frozen=True)
class McStats:
    """Empirical counters from one simulation.

    ``detected`` counts the sequences the standard sift keeps and
    ``bit_errors`` those of them read in error; ``double_counts`` counts the
    beam-dump sequences whose first clicked block holds clicks on both
    detectors.  A mode's own counters are the only ones it fills; the others
    read 0.  ``multi_photon_blocks`` counts blocks carrying >= 2 photons at
    Bob's input (ground truth, pre-detection); ``multi_photon_sequences``
    counts sequences containing at least one such block.
    """

    sequences: int
    detected: int
    bit_errors: int
    double_counts: int
    multi_photon_blocks: int
    multi_photon_sequences: int


@dataclass(frozen=True)
class McComparison:
    """One empirical-vs-analytic row."""

    quantity: str
    analytic: float
    empirical: float
    stderr: float
    z: float


def binomial_stderr(k: int, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of an empirical proportion k/n."""
    if n <= 0:
        return math.nan
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# event generation


def _arrivals(p: ProtocolParams, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Photons reaching Bob per slot: Poisson(mu) emitted, each kept with probability eta."""
    return rng.binomial(rng.poisson(p.mu, shape), p.eta)


def _standard_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot event arrays for ``count`` sequences of the standard chain.

    ev0/ev1 hold the number of events (valid photons + dark counts) per
    slot on each physical detector; correct_det says which detector
    encodes Alice's bit for that slot; n_bob is the pre-interferometer
    photon number per pulse (ground truth for multi-photon accounting).
    Dark counts are the chunk's last draws, made at any d_c (at 0 all False).
    """
    shape = (count, p.M, p.L)
    n_bob = _arrivals(p, rng, shape)
    n_valid = rng.binomial(n_bob, 0.5)
    n_wrong = rng.binomial(n_valid, p.e_sys)  # draws nothing at e_sys = 0
    n_right = n_valid - n_wrong
    correct_det = rng.integers(0, 2, shape)
    dark = rng.random(shape) < p.d_c
    dark_det = rng.integers(0, 2, shape)
    ev0 = np.where(correct_det == 0, n_right, n_wrong) + (dark & (dark_det == 0))
    ev1 = np.where(correct_det == 0, n_wrong, n_right) + (dark & (dark_det == 1))
    return {"ev0": ev0, "ev1": ev1, "correct_det": correct_det, "n_bob": n_bob}


def _beamdump_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot click arrays for the beam-dump diagnostic.

    Each arriving photon is absorbed with probability 1/2 and otherwise
    routed to one of the two detectors with probability 1/4 each; one
    dark-count opportunity per slot and per detector, drawn last at any d_c.
    """
    shape = (count, p.M, p.L)
    n_bob = _arrivals(p, rng, shape)
    to_a = rng.binomial(n_bob, 0.25)
    to_b = rng.binomial(n_bob - to_a, 1.0 / 3.0)
    return {
        "ev_a": (to_a > 0) | (rng.random(shape) < p.d_c),
        "ev_b": (to_b > 0) | (rng.random(shape) < p.d_c),
        "n_bob": n_bob,
    }


# ---------------------------------------------------------------------------
# sifting


def _first_block(clicked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, blocks) index of each sequence's first clicked block in a
    (count, M) mask.  A silent sequence gets block 0, where its masks read
    False and its counts 0, so it is never sifted."""
    return np.arange(len(clicked)), clicked.argmax(axis=1)


def _sift_standard(p: ProtocolParams, ev: dict) -> tuple[np.ndarray, np.ndarray]:
    """Apply the sifting rule to standard-mode events.

    Returns the per-sequence sift masks (accepted, errored), which tests
    replay sequence by sequence.  PNR keeps the first clicked block if it
    holds one count; threshold if one detector clicks in it, and reads the
    bit from that detector's first slot there (no detector clicked earlier,
    so that slot is its first click).
    """
    ev0, ev1, correct_det = ev["ev0"], ev["ev1"], ev["correct_det"]

    if p.detector is Detector.PNR:
        block_counts = (ev0 + ev1).sum(axis=2)
        first = _first_block(block_counts > 0)
        accepted = block_counts[first] == 1
        wrong_counts = np.where(correct_det == 0, ev1, ev0).sum(axis=2)
        errored = accepted & (wrong_counts[first] == 1)
    else:
        c0, c1 = ev0 > 0, ev1 > 0
        k0, k1 = c0.any(axis=2), c1.any(axis=2)  # the blocks each detector clicks in
        first = _first_block(k0 | k1)
        in0 = k0[first]
        accepted = in0 ^ k1[first]
        slot = (c0[first] | c1[first]).argmax(axis=1)  # where accepted, the partner is silent
        errored = accepted & (correct_det[(*first, slot)] != np.where(in0, 0, 1))
    return accepted, errored


def _sift_beamdump(ev: dict) -> np.ndarray:
    """Double-count bookkeeping for beam-dump events: the per-sequence double mask.

    A detector's first click is unaffected by the partner's dead time, so
    a double count is a first clicked block in which both detectors click.
    """
    a, b = ev["ev_a"].any(axis=2), ev["ev_b"].any(axis=2)
    first = _first_block(a | b)
    return a[first] & b[first]


# ---------------------------------------------------------------------------
# driver


def _chunk(p: ProtocolParams, mode: McMode, *, rng: np.random.Generator, count: int) -> tuple:
    """The counters of ``count`` sequences, in ``McStats`` field order: the
    sift's own counts, then the ground-truth multi-photon counters that both
    modes share."""
    accepted = errored = double = ()  # a mode's sift makes only its own masks; the rest count 0
    if mode is McMode.STANDARD:
        ev = _standard_events(p, rng, count)
        accepted, errored = _sift_standard(p, ev)
    else:
        ev = _beamdump_events(p, rng, count)
        double = _sift_beamdump(ev)
    multi = ev["n_bob"].sum(axis=2) >= 2
    return (
        count,
        *(int(np.count_nonzero(mask)) for mask in (accepted, errored, double)),
        int(multi.sum()),
        int(multi.any(axis=1).sum()),
    )


def simulate(cfg: McConfig) -> McStats:
    """Run the event-level simulation described by ``cfg``.

    Deterministic: identical configurations (including seed) produce
    identical statistics regardless of QKD_THREADS.
    """
    p = cfg.params
    return McStats(*seeded_chunks(_chunk, (p, cfg.mode), cfg.seed, cfg.trials, p.M * p.L))


def _comparison(quantity: str, analytic: float, k: int, n: int, scale: float) -> McComparison:
    """The row of ``scale`` times the proportion k/n, with Wald's stderr.

    z is the score statistic (k - n a) / sqrt(n a (1 - a)) of the model's
    proportion a = analytic/scale: it divides by the model's spread, not the
    sample's, so it stays finite when k = 0 or n.  z is nan without trials
    (n = 0) or without a model value, and 0 or +-inf where the model has no
    spread (a = 0, a = 1, or a bound past 1) as k meets n a or not."""
    a = analytic / scale
    diff, var = k - n * a, n * a * (1.0 - a)
    if n == 0 or math.isnan(a):
        z = math.nan
    elif var > 0.0:
        z = diff / math.sqrt(var)
    else:
        z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    empirical = scale * (k / n) if n else math.nan
    return McComparison(quantity, analytic, empirical, scale * binomial_stderr(k, n), z)


def compare_to_analytic(cfg: McConfig) -> list[McComparison]:
    """Simulate and tabulate empirical vs analytic rates with score z-values.

    STANDARD mode reports the detection rate Q (k detections of n
    sequences) and the sifted bit error rate (k errors of n detections);
    BEAM_DUMP mode reports eight times the double-count rate against the
    analytic multi-detection bound e_mB (a leading-order, deliberately
    conservative quantity, so large positive z values are expected there
    at high dark-count rates).  Each row's z is the score statistic of the
    model's proportion (``_comparison``).
    """
    stats = simulate(cfg)
    model = key_rate(cfg.params)  # e_bit is nan where Q = 0: no sifted bits exist
    if cfg.mode is McMode.STANDARD:
        rows = [("Q", model.Q, stats.detected, stats.sequences, 1.0),
                ("e_bit", model.e_bit, stats.bit_errors, stats.detected, 1.0)]
    else:
        rows = [("e_mB", model.e_mB, stats.double_counts, stats.sequences, 8.0)]
    return [_comparison(*row) for row in rows]
