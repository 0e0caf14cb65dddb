"""Event-level Monte Carlo for the slow-basis detection model.

Simulates photon emission, channel loss, interferometer routing, dark
counts, dead time and sifting for sequences of M blocks x L pulses.

With the basis fixed per sequence, Bob reads at most one outcome from a
sequence: the one in its first block that holds a click.  Both modes sift
on that block, found by ``_first_block``.

* ``STANDARD`` — the full sifting chain.  Bob receives Poisson(mu eta)
  photons per slot (a Poisson(mu) pulse through a channel of transmission
  eta); each reaches a valid detection slot with probability 1/2 and the
  detector encoding the correct bit with probability 1 - e_sys.  One
  dark-count opportunity per valid slot fires with probability d_c on a
  uniformly random detector.  Bob keeps the first clicked block if it
  holds exactly one event (PNR: one photon-number count; threshold: one
  detector clicking with the partner silent).
* ``BEAM_DUMP`` — the double-count diagnostic with one interferometer arm
  blocked.  An arriving photon is detected with probability 1/2 overall
  (1/4 per detector, the rest absorbed); a detector is dead from its first
  click to the end of the sequence, so a photon routed to a dead detector
  is lost (detection probability 1/4 when one detector is live).  A
  double count is recorded when both detectors click in the first clicked
  block, that is when their first clicks fall in the same block.

Trials run in chunks of at most ``CHUNK_ELEMENTS`` pulse slots (one
sequence when M*L is larger), driven by ``_env.seeded_chunks``, the driver
the attack study shares; chunk i draws from substream (seed, (i,)), so the
statistics are a pure function of the configuration and do not depend on
scheduling or worker count (QKD_THREADS).  A chunk's draws, in order:
Poisson(mu eta) arrivals, with no emission drawn and thinned, the mode's
photon splits (valid slot and error, or the two beam-dump detectors), then
the standard mode's dark counts and its detector coins, or the beam dump's
two dark counts.  The coins are one per slot that photons reach, for its
correct detector, then two per dark count, for its detector and for the
correct one of a slot that holds no photons: no sift reads a slot without
events, so this is the law of one fair coin per slot.  The Poisson and
every uniform ``random`` take a value at every slot, in consecutive calls
on pieces of ``_PIECE`` slots, which numpy fills from the stream as it
fills one call.  Two of them are read from the stream below numpy's call,
with its values and generator state:

* the Poisson, for 0 < mu eta <= ``_WALK_MU``: numpy reads uniforms there,
  the doubles ``random`` returns, one per empty slot, so ``_poisson_walk``
  takes them in one ``random`` call and walks only those of the slots that
  hold photons.  mu eta = 0 and larger means keep ``rng.poisson``;
* the dark counts' uniforms: a double is the top 53 bits of a 64-bit
  output, so ``_dark`` compares the ``random_raw`` outputs with d_c's
  threshold there.

Of each piece a chunk keeps what the later steps read: the slots that hold
arrivals or dark counts, with their values.  Each binomial runs over the
slots with photons only, as numpy's binomial draws nothing at n = 0.  The
sifts then work on a list of the slots that hold an event, through
(count, M) per-block sums.  So a chunk's memory follows its events, its
blocks and one piece; only its time grows with every slot, in a sparse
chunk at the cost of reading two 64-bit outputs a slot (a uniform each for
the arrivals and the dark counts).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._env import check_run, seeded_chunks
from .keyrate import _SCALAR, Detector, ProtocolParams, _detection

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
    read 0.
    """

    sequences: int
    detected: int
    bit_errors: int
    double_counts: int


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
# events and sifting: a chunk's slots are numbered in C order over (sequence, block, pulse)


_PIECE = 1 << 16  # slots per call of a full-size draw

# Up to where ``_poisson_walk`` costs less than ``rng.poisson`` on a piece, in the mean mu eta: the
# walk's time grows with the arrivals, numpy's with the slots.  Walk/poisson time is 0.60 at a mean
# of 0.01, 0.85 at 0.02 and 1.04 at 0.03 (median of 60 alternating pairs, numpy 2.4.6, 2 vCPUs).
_WALK_MU = 0.025


def _pieces(size: int, keep, draw, *args) -> list:
    """``keep(start, values)`` of each piece of ``draw(*args, size=size)``,
    taken as consecutive calls on pieces of at most ``_PIECE`` slots from
    ``start`` on.  numpy fills consecutive calls from the stream as it fills
    one, so the values and the generator state after the last piece are
    those of the single call; ``_emissions`` and ``_dark`` keep that
    promise for the draws they stand in for.  A piece goes as soon as
    ``keep`` returns, before the next is drawn: with two alive, the
    allocator hands the pair back after every draw and faults it in again
    for the next."""
    return [keep(start, draw(*args, size=min(_PIECE, size - start)))
            for start in range(0, size, _PIECE)]


def _emissions(rng: np.random.Generator, mu: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots of ``rng.poisson(mu, size)`` that hold a nonzero count, and
    the counts, with that call's generator state: from ``_poisson_walk`` for
    0 < mu <= ``_WALK_MU``, else from numpy, which reads nothing at mu = 0
    and above the bound costs less than the walk."""
    if 0.0 < mu <= _WALK_MU:
        return _poisson_walk(rng, mu, size)
    n = rng.poisson(mu, size)
    slots = np.flatnonzero(n)
    return slots, n[slots]


def _poisson_walk(rng: np.random.Generator, mu: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``_emissions`` for 0 < mu < 10, from the uniforms numpy's Poisson reads.

    There numpy counts a slot's photons by multiplying uniforms, the doubles
    ``rng.random`` returns, until the product falls to e^-mu or below: a
    slot reads its count plus one.  The walk takes those uniforms in one
    ``random`` call and steps only through the rare ones above e^-mu, each
    the first of a slot that holds photons.  A slot that reads more than one
    shifts the rest of the draw, so the walk draws again for the slots still
    owed.  Each of them reads at least one, so it never draws ahead of
    numpy; a slot still open when a draw runs out reads on in the next.
    Its time grows with the slots at one uniform each, plus a few hundred
    ns per emission."""
    floor = math.exp(-mu)  # numpy's exp(-lam)
    slots, counts = [], []
    done, x, prod = 0, 0, 1.0  # slots finished; slot ``done``'s count so far, and its product
    while done < size:
        u = rng.random(size - done)
        m = len(u)
        hits = np.flatnonzero(u > floor)
        # a hit whose next uniform takes the product to floor opens a one-photon slot
        one = (u[hits] * u[np.minimum(hits + 1, m - 1)] <= floor) & (hits < m - 1)
        pos = 0  # the next uniform, which slot ``done`` reads
        for h, single in zip([*hits.tolist(), m], [*one.tolist(), False]):  # m: the slots after
            while x and pos < m:  # slot ``done`` reads on until its product falls to floor
                prod *= u[pos]
                pos += 1
                if prod > floor:
                    x += 1
                else:
                    slots.append(done)
                    counts.append(x)
                    done, x, prod = done + 1, 0, 1.0
            if h < pos:  # read by an earlier slot, or by one still open
                continue
            done += h - pos  # the empty slots before h
            if single:
                slots.append(done)
                counts.append(1)
                done, pos = done + 1, h + 2
            elif h < m:
                x, prod, pos = 1, u[h], h + 1
    return np.array(slots, np.int64), np.array(counts, np.int64)


def _arrivals(p: ProtocolParams, rng: np.random.Generator,
              size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending slots that photons reach Bob in, and how many reach him
    in each: Poisson(mu eta) per slot, one draw.  A Poisson(mu) emission
    whose photons each survive the channel with probability eta is exactly
    Poisson(mu eta), so no emission is drawn and thinned."""
    slots, n_bob = zip(*_pieces(size, lambda start, arrived: (arrived[0] + start, arrived[1]),
                                _emissions, rng, p.mu * p.eta))
    slots = np.concatenate(slots)  # its pieces go before n_bob's are joined
    return slots, np.concatenate(n_bob)


def _dark(p: ProtocolParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """The ascending slots a dark count fires in: those of ``rng.random(size)``
    below d_c, with that call's generator state.  PCG64's double is
    (raw >> 11) 2^-53 of a raw output, so it lies below d_c exactly when raw
    lies below ceil(d_c 2^53) << 11 (under 2^64, as d_c < 1/2 at any L)."""
    below = np.uint64(math.ceil(p.d_c * 2.0**53) << 11)
    return np.concatenate(_pieces(size, lambda start, raw: start + np.flatnonzero(raw < below),
                                  rng.bit_generator.random_raw))


def _block_sums(p: ProtocolParams, count: int, slots: np.ndarray, weights=None) -> np.ndarray:
    """The (count, M) sums of ``weights`` (1 each by default) over the blocks
    of ``slots``: slot s lies in block s // L of the chunk's count*M."""
    return np.bincount(slots // p.L, weights, minlength=count * p.M).reshape(count, p.M)


def _first_block(clicked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, blocks) index of each sequence's first clicked block in a
    (count, M) mask.  A silent sequence gets block 0, where its masks read
    False and its counts 0, so it is never sifted."""
    return np.arange(len(clicked)), clicked.argmax(axis=1)


def _sift_standard(p: ProtocolParams, rng: np.random.Generator, count: int,
                   slots: np.ndarray, n_bob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw the rest of the standard chain over the arrivals and sift it: the
    per-sequence masks (accepted, errored).

    Each arriving photon reaches a valid slot with probability 1/2 and the
    detector of Alice's bit with probability 1 - e_sys; one dark count per
    slot fires with probability d_c on a uniformly random detector.  The
    right photons, wrong photons and dark counts of a slot are one entry
    each where they hold events.  PNR keeps the first clicked block if it
    holds one count; threshold if one detector clicks in it, and reads the
    bit from that detector's first slot there (no detector clicked earlier,
    so that slot is its first click).
    """
    size = count * p.M * p.L
    n_valid = rng.binomial(n_bob, 0.5)
    n_wrong = rng.binomial(n_valid, p.e_sys)  # draws nothing at e_sys = 0
    dark = _dark(p, rng, size)
    right, errs = n_valid > n_wrong, n_wrong > 0  # each part is cut to its events before they join
    n = np.concatenate(((n_valid - n_wrong)[right], n_wrong[errs], np.ones(len(dark), np.int64)))
    del n_valid, n_wrong  # the full-size counts go before the slots are cut
    slot = np.concatenate((slots[right], slots[errs], dark))
    coin = rng.integers(0, 2, len(slots), dtype=bool)  # the correct detector of each arrival slot
    # a dark count lands on a coin of its own; its correct detector is a fresh coin, or its
    # slot's where photons arrive there too
    dark_on1, dark_correct = rng.integers(0, 2, (2, len(dark)), dtype=bool)
    at = np.searchsorted(slots, dark)
    shared = at < np.searchsorted(slots, dark, side="right")  # the dark counts in arrival slots
    dark_correct[shared] = coin[at[shared]]
    on1 = np.concatenate((coin[right], ~coin[errs], dark_on1))  # the detector an entry lands on
    wrong = np.concatenate((np.zeros(right.sum(), bool), np.ones(errs.sum(), bool),
                            dark_on1 != dark_correct))
    if p.detector is Detector.PNR:
        counts = _block_sums(p, count, slot, n)
        first = _first_block(counts > 0)
        accepted = counts[first] == 1
        sequence, block = np.divmod(slot[wrong] // p.L, p.M)
        there = block == first[1][sequence]  # the wrong entries in their first clicked block
        errors = np.bincount(sequence[there], n[wrong][there], minlength=count)
        return accepted, accepted & (errors == 1)
    k0, k1 = _block_sums(p, count, slot[~on1]) > 0, _block_sums(p, count, slot[on1]) > 0
    first = _first_block(k0 | k1)
    accepted = k0[first] ^ k1[first]
    # a block's least 2 slot + wrong marks its first slot and, where the block
    # is accepted (that slot's entries all on one detector), whether they are wrong
    lead = np.full(count * p.M, 2 * size)
    np.minimum.at(lead, slot // p.L, 2 * slot + wrong)
    return accepted, accepted & (lead.reshape(count, p.M)[first] % 2 == 1)


def _sift_beamdump(p: ProtocolParams, rng: np.random.Generator, count: int,
                   slots: np.ndarray, n_bob: np.ndarray) -> np.ndarray:
    """Draw the rest of the beam-dump diagnostic over the arrivals and sift
    it: the per-sequence double mask.

    Each arriving photon is absorbed with probability 1/2 and otherwise
    routed to one of the two detectors with probability 1/4 each; one
    dark-count opportunity per slot and per detector.  A detector's first
    click is unaffected by the partner's dead time, so a double count is a
    first clicked block in which both detectors click.
    """
    size = count * p.M * p.L
    n = rng.binomial(n_bob, 0.25)  # to detector a; then the rest, of which a third go to b
    hit_a = n > 0
    hit_b = rng.binomial(np.subtract(n_bob, n, out=n), 1.0 / 3.0) > 0
    del n  # before the full-size dark-count draws
    dark_a = _dark(p, rng, size)
    dark_b = _dark(p, rng, size)
    a = _block_sums(p, count, np.append(slots[hit_a], dark_a)) > 0
    b = _block_sums(p, count, np.append(slots[hit_b], dark_b)) > 0
    first = _first_block(a | b)
    return a[first] & b[first]


# ---------------------------------------------------------------------------
# driver


def _chunk(p: ProtocolParams, mode: McMode, *, rng: np.random.Generator, count: int) -> tuple:
    """The counters of ``count`` sequences, in ``McStats`` field order."""
    slots, n_bob = _arrivals(p, rng, count * p.M * p.L)
    accepted = errored = double = ()  # a mode's sift makes only its own masks; the rest count 0
    if mode is McMode.STANDARD:
        accepted, errored = _sift_standard(p, rng, count, slots, n_bob)
    else:
        double = _sift_beamdump(p, rng, count, slots, n_bob)
    return (count, *(int(np.count_nonzero(mask)) for mask in (accepted, errored, double)))


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
    Q, e_mB, e_bit = _detection(_SCALAR, cfg.params, cfg.params.mu)  # key_rate's; e_bit nan at Q = 0
    if cfg.mode is McMode.STANDARD:
        rows = [("Q", Q, stats.detected, stats.sequences, 1.0),
                ("e_bit", e_bit, stats.bit_errors, stats.detected, 1.0)]
    else:
        rows = [("e_mB", e_mB, stats.double_counts, stats.sequences, 8.0)]
    return [_comparison(*row) for row in rows]
