"""Event-level Monte Carlo for the slow-basis detection model.

Simulates photon emission, channel loss, interferometer routing, dark
counts, dead time and sifting for sequences of M blocks x L pulses.

Two modes:

* ``STANDARD`` — the full sifting chain.  Each pulse carries a Poisson(mu)
  photon number; photons survive the channel with probability eta, reach a
  valid detection slot with probability 1/2, and land on the detector
  encoding the correct bit with probability 1 - e_sys.  One dark-count
  opportunity per valid slot fires with probability d_c on a uniformly
  random detector.  Bob keeps the first block with a click if it contains
  exactly one event (PNR: one photon-number count; threshold: one detector
  clicking with the partner silent).
* ``BEAM_DUMP`` — the double-count diagnostic with one interferometer arm
  blocked.  An arriving photon is detected with probability 1/2 overall
  (1/4 per detector, the rest absorbed); a detector is dead from its first
  click to the end of the sequence, so a photon routed to a dead detector
  is lost (detection probability 1/4 when one detector is live).  A
  double count is recorded when both detectors' first clicks fall in the
  same block, necessarily the first clicked block.

Trials are vectorized in chunks of at most ``CHUNK_ELEMENTS`` pulse slots
(one sequence when M*L is larger) by ``_env.seeded_chunks``, the driver the
attack study shares; chunk i draws from substream (seed, (i,)), so the
statistics are a pure function of the configuration and do not depend on
scheduling or worker count (QKD_THREADS).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
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

    ``multi_photon_blocks`` counts blocks carrying >= 2 photons at Bob's
    input (ground truth, pre-detection); ``multi_photon_sequences`` counts
    sequences containing at least one such block.  ``clicks_histogram``
    maps the per-sequence click count (PNR: total counts; threshold /
    beam dump: number of detectors that ever clicked) to its frequency.
    """

    sequences: int
    detected: int
    bit_errors: int
    double_counts: int
    multi_photon_blocks: int
    multi_photon_sequences: int
    clicks_histogram: dict[int, int]

    def detection_rate(self) -> float:
        return self.detected / self.sequences

    def detection_stderr(self) -> float:
        return binomial_stderr(self.detected, self.sequences)

    def bit_error_rate(self) -> float:
        """Bit errors per detected sequence; nan without detections, like its stderr."""
        return self.bit_errors / self.detected if self.detected else math.nan

    def bit_error_stderr(self) -> float:
        return binomial_stderr(self.bit_errors, self.detected)

    def double_count_rate(self) -> float:
        return self.double_counts / self.sequences

    def double_count_stderr(self) -> float:
        return binomial_stderr(self.double_counts, self.sequences)


@dataclass(frozen=True)
class McComparison:
    """One empirical-vs-analytic row; flagged when |z| > 3."""

    quantity: str
    analytic: float
    empirical: float
    stderr: float
    z: float

    @property
    def flagged(self) -> bool:
        return abs(self.z) > 3.0


def binomial_stderr(k: int, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of an empirical proportion k/n."""
    if n <= 0:
        return math.nan
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# event generation


def _standard_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot event arrays for ``count`` sequences of the standard chain.

    ev0/ev1 hold the number of events (valid photons + dark counts) per
    slot on each physical detector; correct_det says which detector
    encodes Alice's bit for that slot; n_bob is the pre-interferometer
    photon number per pulse (ground truth for multi-photon accounting).
    """
    shape = (count, p.M, p.L)
    n_src = rng.poisson(p.mu, shape)
    n_bob = rng.binomial(n_src, p.eta)
    n_valid = rng.binomial(n_bob, 0.5)
    if p.e_sys > 0.0:
        n_wrong = rng.binomial(n_valid, p.e_sys)
    else:
        n_wrong = np.zeros(shape, dtype=np.int64)
    n_right = n_valid - n_wrong
    correct_det = rng.integers(0, 2, shape)
    if p.d_c > 0.0:
        dark = rng.random(shape) < p.d_c
        dark_det = rng.integers(0, 2, shape)
    else:
        dark = np.zeros(shape, dtype=bool)
        dark_det = np.zeros(shape, dtype=np.int64)
    ev0 = np.where(correct_det == 0, n_right, n_wrong) + (dark & (dark_det == 0))
    ev1 = np.where(correct_det == 0, n_wrong, n_right) + (dark & (dark_det == 1))
    return {"ev0": ev0, "ev1": ev1, "correct_det": correct_det, "n_bob": n_bob}


def _beamdump_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot click arrays for the beam-dump diagnostic.

    Each arriving photon is absorbed with probability 1/2 and otherwise
    routed to one of the two detectors with probability 1/4 each; one
    dark-count opportunity per slot and per detector.
    """
    shape = (count, p.M, p.L)
    n_src = rng.poisson(p.mu, shape)
    n_bob = rng.binomial(n_src, p.eta)
    to_a = rng.binomial(n_bob, 0.25)
    to_b = rng.binomial(n_bob - to_a, 1.0 / 3.0)
    if p.d_c > 0.0:
        dark_a = rng.random(shape) < p.d_c
        dark_b = rng.random(shape) < p.d_c
    else:
        dark_a = np.zeros(shape, dtype=bool)
        dark_b = np.zeros(shape, dtype=bool)
    return {
        "ev_a": (to_a > 0) | dark_a,
        "ev_b": (to_b > 0) | dark_b,
        "n_bob": n_bob,
    }


# ---------------------------------------------------------------------------
# sifting


def _first_click(flat: np.ndarray, L: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(ever_clicked, block_of_first_click) per sequence; block = M when silent."""
    any_click = flat.any(axis=1)
    first = flat.argmax(axis=1)
    block = np.where(any_click, first // L, M)
    return any_click, block


def _sift_standard(p: ProtocolParams, ev: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the sifting rule to standard-mode events.

    Returns the per-sequence (accepted, errored, clicks): the two sift
    masks, which tests replay sequence by sequence, and the click count
    (PNR: total counts; threshold: detectors that ever clicked).
    """
    ev0, ev1, correct_det = ev["ev0"], ev["ev1"], ev["correct_det"]
    count = ev0.shape[0]
    rows = np.arange(count)

    if p.detector is Detector.PNR:
        slot_counts = ev0 + ev1
        block_counts = slot_counts.sum(axis=2)
        has_click = block_counts > 0
        any_click = has_click.any(axis=1)
        first_blk = has_click.argmax(axis=1)
        accepted = any_click & (block_counts[rows, first_blk] == 1)
        wrong_counts = (ev0 * (correct_det == 1) + ev1 * (correct_det == 0)).sum(axis=2)
        errored = accepted & (wrong_counts[rows, first_blk] == 1)
        clicks = slot_counts.sum(axis=(1, 2))
    else:
        c0 = (ev0 > 0).reshape(count, -1)
        c1 = (ev1 > 0).reshape(count, -1)
        any0, b0 = _first_click(c0, p.L, p.M)
        any1, b1 = _first_click(c1, p.L, p.M)
        first = np.minimum(b0, b1)
        in0 = any0 & (b0 == first)
        in1 = any1 & (b1 == first)
        accepted = (any0 | any1) & (in0 ^ in1)
        det = np.where(in0, 0, 1)
        t = np.where(in0, c0.argmax(axis=1), c1.argmax(axis=1))
        cd_flat = correct_det.reshape(count, -1)
        errored = accepted & (cd_flat[rows, t] != det)
        clicks = any0.astype(np.int64) + any1.astype(np.int64)
    return accepted, errored, clicks


def _sift_beamdump(p: ProtocolParams, ev: dict) -> tuple[np.ndarray, np.ndarray]:
    """Double-count bookkeeping for beam-dump events: per-sequence (double, clicks).

    A detector's first click is unaffected by the partner's dead time, so
    the double-count condition reduces to: both detectors click at least
    once and their first clicks land in the same block.
    """
    count = ev["ev_a"].shape[0]
    any_a, blk_a = _first_click(ev["ev_a"].reshape(count, -1), p.L, p.M)
    any_b, blk_b = _first_click(ev["ev_b"].reshape(count, -1), p.L, p.M)
    double = any_a & any_b & (blk_a == blk_b)
    return double, any_a.astype(np.int64) + any_b.astype(np.int64)


# ---------------------------------------------------------------------------
# driver


def _chunk(p: ProtocolParams, mode: McMode, *, rng: np.random.Generator, count: int) -> tuple:
    """The counters of ``count`` sequences, in ``McStats`` field order: the
    sift's own counts, then the ground-truth multi-photon counters and the
    click histogram that both modes share."""
    accepted = errored = double = ()  # a mode's sift makes only its own masks; the rest count 0
    if mode is McMode.STANDARD:
        ev = _standard_events(p, rng, count)
        accepted, errored, clicks = _sift_standard(p, ev)
    else:
        ev = _beamdump_events(p, rng, count)
        double, clicks = _sift_beamdump(p, ev)
    multi = ev["n_bob"].sum(axis=2) >= 2
    hist = Counter({k: v for k, v in enumerate(np.bincount(clicks).tolist()) if v > 0})
    return (
        count,
        *(int(np.count_nonzero(mask)) for mask in (accepted, errored, double)),
        int(multi.sum()),
        int(multi.any(axis=1).sum()),
        hist,
    )


def simulate(cfg: McConfig) -> McStats:
    """Run the event-level simulation described by ``cfg``.

    Deterministic: identical configurations (including seed) produce
    identical statistics regardless of QKD_THREADS.
    """
    p = cfg.params
    *counts, hist = seeded_chunks(_chunk, (p, cfg.mode), cfg.seed, cfg.trials, p.M * p.L)
    return McStats(*counts, clicks_histogram=dict(sorted(hist.items())))


def _z_score(empirical: float, analytic: float, stderr: float) -> float:
    if stderr == 0.0:
        if empirical == analytic:
            return 0.0
        return math.copysign(math.inf, empirical - analytic)
    return (empirical - analytic) / stderr


def compare_to_analytic(cfg: McConfig) -> list[McComparison]:
    """Simulate and tabulate empirical vs analytic rates with z-scores.

    STANDARD mode reports the detection rate Q and the sifted bit error
    rate; BEAM_DUMP mode reports eight times the double-count rate against
    the analytic multi-detection bound e_mB (a leading-order, deliberately
    conservative quantity, so large positive z values are expected there
    at high dark-count rates).
    """
    stats = simulate(cfg)
    model = key_rate(cfg.params)  # e_bit is nan where Q = 0: no sifted bits exist
    if cfg.mode is McMode.STANDARD:
        rows = [("Q", model.Q, stats.detection_rate(), stats.detection_stderr()),
                ("e_bit", model.e_bit, stats.bit_error_rate(), stats.bit_error_stderr())]
    else:
        rows = [("e_mB", model.e_mB, 8.0 * stats.double_count_rate(),
                 8.0 * stats.double_count_stderr())]
    return [McComparison(q, ana, emp, se, _z_score(emp, ana, se)) for q, ana, emp, se in rows]
