"""Independent reference implementations used only by the tests.

Everything here is deliberately brute force: arbitrary-precision tail
sums, explicit geometric series, exhaustive grid searches, pure Python
sequence-by-sequence replays of the Monte Carlo sifting rules, the dense
Monte Carlo engine that sifts every slot, a pulse-by-pulse replay of the
intercept-resend attack, and a sequence-by-sequence draw of the honest
channel.
The package must agree with these, not the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import mpmath as mp
import numpy as np

from slowqkd import AttackScenario, Detector, HonestStats, McMode, ProtocolParams, key_rate, mu_grid
from slowqkd.keyrate import rate_grid


# ---------------------------------------------------------------------------
# high-precision scalar oracles


def poisson_upper_tail(lam: float, nu_th: int, dps: int = 60) -> float:
    """P(N > nu_th) for N ~ Poisson(lam), summed on the safe side.

    For nu_th >= lam the complement 1 - P(N <= nu_th) cancels
    catastrophically, so the upper tail is summed directly term by term.
    """
    if lam == 0.0:
        return 0.0
    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        if nu_th < lam:
            term = mp.e ** (-lam_mp)
            total = term
            for n in range(1, nu_th + 1):
                term = term * lam_mp / n
                total += term
            return float(1 - total)
        term = mp.e ** (-lam_mp) * lam_mp ** (nu_th + 1) / mp.factorial(nu_th + 1)
        total = mp.mpf(0)
        n = nu_th + 1
        while term > 0:
            total += term
            n += 1
            term = term * lam_mp / n
            if term < total * mp.mpf(10) ** (-dps - 10):
                break
        return float(total)


def e_src_slow_oracle(e_block: float, M: int, dps: int = 60) -> float:
    if e_block == 0.0:
        return 0.0
    # the direct difference must resolve e_block against 1, so scale the
    # working precision with its magnitude
    need = dps + max(0, -int(math.floor(math.log10(e_block))))
    with mp.workdps(need):
        return float(1 - (1 - mp.mpf(e_block)) ** M)


def binary_entropy_oracle(x: float, dps: int = 60) -> float:
    with mp.workdps(dps):
        x_mp = mp.mpf(x)
        if x_mp == 0 or x_mp == 1:
            return 0.0
        return float(-x_mp * mp.log(x_mp, 2) - (1 - x_mp) * mp.log(1 - x_mp, 2))


def geometric_sum_oracle(log_r: float, M: int, dps: int = 60) -> float:
    """sum_{m=0}^{M-1} r^m by explicit (or high-precision closed-form) sum."""
    with mp.workdps(dps):
        r = mp.e ** mp.mpf(log_r)
        if M <= 10_000:
            return float(mp.fsum(r**m for m in range(M)))
        if r == 1:
            return float(M)
        return float((1 - r**M) / (1 - r))


def detection_rate_oracle(p: ProtocolParams, dps: int = 60) -> float:
    """Q from its definition: per-block rate times explicit silent-block sum."""
    with mp.workdps(dps):
        lam = mp.mpf(p.L) * mp.mpf(p.eta) * mp.mpf(p.mu)
        s = lam / 2 * mp.e ** (-lam) + mp.mpf(p.L) * mp.mpf(p.d_c)
        r = mp.e ** (-lam) * (1 - mp.mpf(p.d_c)) ** (2 * p.L)
        total = mp.fsum(r**m for m in range(p.M)) if p.M <= 10_000 else (
            mp.mpf(p.M) if r == 1 else (1 - r**p.M) / (1 - r)
        )
        return float(s * total)


def e_mB_oracle(p: ProtocolParams, dps: int = 60) -> float:
    with mp.workdps(dps):
        L = mp.mpf(p.L)
        lam = L * mp.mpf(p.eta) * mp.mpf(p.mu)
        dc = mp.mpf(p.d_c)
        per_block = (
            lam**2 / 16 * mp.e ** (-lam)
            + lam / 2 * mp.e ** (-lam) * (2 * L - 1) * dc
            + L * (2 * L - 1) * dc**2
        )
        r = mp.e ** (-lam) * (1 - dc) ** (2 * p.L)
        total = mp.fsum(r**m for m in range(p.M)) if p.M <= 10_000 else (
            mp.mpf(p.M) if r == 1 else (1 - r**p.M) / (1 - r)
        )
        return float(8 * per_block * total)


# ---------------------------------------------------------------------------
# the one z-score of the statistical tests


def z_score(total: float, n: int, mean: float, var: float) -> float:
    """(total - n mean) / sqrt(n var): how far a sum of n draws of the given
    per-draw mean and variance sits from its expectation.  For k events of n
    Bernoulli(a) trials, mean = a and var = a (1 - a) give the score statistic.
    Without variance, 0 if the total is the expected one and +-inf if not."""
    diff = total - n * mean
    if n * var <= 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / math.sqrt(n * var)


# ---------------------------------------------------------------------------
# exact event-model probabilities (no leading-order truncation)
#
# The analytic detection rate keeps only the O(lambda) acceptance term, so
# at finite lambda it sits a relative O(lambda) below the exact model.
# These closed forms follow the simulated chain exactly and are the proper
# oracle for tight Monte Carlo z-tests.


def _pnr_slot_probs(p: ProtocolParams) -> tuple[float, float, float]:
    """(P0, P1, w) per slot: no event, exactly one event, and the
    probability that a lone event is a photon rather than a dark count."""
    rate = p.eta * p.mu / 2.0
    p0 = math.exp(-rate) * (1.0 - p.d_c)
    p1_photon = rate * math.exp(-rate) * (1.0 - p.d_c)
    p1_dark = math.exp(-rate) * p.d_c
    p1 = p1_photon + p1_dark
    w = p1_photon / p1 if p1 > 0 else 0.0
    return p0, p1, w


def exact_Q_pnr(p: ProtocolParams) -> float:
    """Exact acceptance probability of the standard-mode PNR sift."""
    p0, p1, _ = _pnr_slot_probs(p)
    block0 = p0**p.L
    block1 = p.L * p1 * p0 ** (p.L - 1)
    return block1 * sum(block0**m for m in range(p.M))


def exact_multi_photon(p: ProtocolParams) -> tuple[float, float]:
    """(per block, per sequence): the probability that a block carries two or
    more photons at Bob's input, 1 - e^-lambda (1 + lambda) with lambda =
    L eta mu, and that some block of a sequence's M does."""
    lam = p.L * p.eta * p.mu
    silent = math.exp(-lam) * (1.0 + lam)
    return 1.0 - silent, 1.0 - silent**p.M


def exact_ebit_pnr(p: ProtocolParams) -> float:
    """Exact sifted error rate: lone photons err at e_sys, lone darks at 1/2."""
    _, p1, w = _pnr_slot_probs(p)
    if p1 == 0.0:
        raise ValueError("no detections")
    return w * p.e_sys + (1.0 - w) * 0.5


# ---------------------------------------------------------------------------
# optimizer references

# Relative precision of the (mu, nu_th) optimizer against these searches.
OPTIMIZER_REL = 5e-3


def first_keyless_row_oracle(L: int, e_sys: float, dps: int = 60) -> int:
    """ceil(x* (L-1)), where x* in [0, 1/2] solves h(x*) = 1 - h(e_sys).

    From this nu_th on the untagged phase-error bound nu_th/(L-1) alone
    costs at least the 1 - h(e_sys) bits a sifted bit can carry.  x* by
    bisection at ``dps`` digits.
    """
    with mp.workdps(dps):
        def h(x):
            return mp.mpf(0) if x in (0, 1) else -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)

        target = 1 - h(mp.mpf(e_sys))
        if target == 0:  # e_sys = 1/2: x* = 0
            return 0
        lo, hi = mp.mpf(0), mp.mpf(1) / 2
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) < target else (lo, mid)
        return int(mp.ceil(hi * (L - 1)))


def brute_force_optimum(
    base: ProtocolParams,
    eta: float,
    M: int,
    n_mu: int = 2000,
    mu_lo: float = 1e-6,
    mu_hi: float = 1.0,
) -> tuple[float, float, int]:
    """Best G over a dense (mu, nu_th) grid; returns (G, mu, nu_th).

    Scans every nu_th in 0..L-1 at ``n_mu`` log-spaced mu in one ``rate_grid``
    call (pinned to ``key_rate`` entry by entry in test_keyrate), takes the
    first maximum in (nu_th, mu) order, and reports ``key_rate``'s G there.
    """
    p = replace(base, eta=eta, M=M)
    mus = np.logspace(math.log10(mu_lo), math.log10(mu_hi), n_mu)
    nu_th, i = divmod(int(np.argmax(rate_grid(p, mus, range(base.L)))), n_mu)
    mu = float(mus[i])
    return key_rate(replace(p, mu=mu, nu_th=nu_th)).G, mu, nu_th


def scan_every_nu_optimum(
    base: ProtocolParams, eta: float, M: int, points_per_decade: int = 20
) -> tuple[float, float, int]:
    """Scalar scan over nu_th = 0, 1, ... with a per-nu_th mu search; (G, mu, nu_th).

    Each nu_th gets the optimizer's coarse log(mu) grid and 32 golden-section
    steps around the grid maximum, one ``key_rate`` call per point.  The scan
    stops once the per-nu_th maximum has fallen three times in a row.  Ties
    keep the smaller nu_th and mu; a flat-zero landscape reports (0, MU_MIN, 0).
    """
    grid = mu_grid(points_per_decade)
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def g(mu: float, nu_th: int) -> float:
        return key_rate(replace(base, eta=eta, M=M, mu=mu, nu_th=nu_th)).G

    def best_mu(nu_th: int) -> tuple[float, float]:
        coarse = [g(mu, nu_th) for mu in grid]
        i = coarse.index(max(coarse))
        best = (coarse[i], grid[i])
        a = math.log10(grid[max(i - 1, 0)])
        b = math.log10(grid[min(i + 1, len(grid) - 1)])
        c, d = b - golden * (b - a), a + golden * (b - a)
        gc, gd = g(10.0**c, nu_th), g(10.0**d, nu_th)
        for _ in range(32):
            if gc >= gd:
                b, d, gd = d, c, gc
                c = b - golden * (b - a)
                gc = g(10.0**c, nu_th)
            else:
                a, c, gc = c, d, gd
                d = a + golden * (b - a)
                gd = g(10.0**d, nu_th)
            for gx, logmu in ((gc, c), (gd, d)):
                if gx > best[0]:
                    best = (gx, 10.0**logmu)
        return best

    best = (-1.0, grid[0], 0)
    prev, run = None, 0
    for nu_th in range(base.L):
        g_nu, mu = best_mu(nu_th)
        if g_nu > best[0]:
            best = (g_nu, mu, nu_th)
        run = run + 1 if prev is not None and g_nu < prev else 0
        if run >= 3:
            break
        prev = g_nu
    if best[0] <= 0.0:
        return (0.0, grid[0], 0)
    return best


# ---------------------------------------------------------------------------
# the dense Monte Carlo engine: the reference for the package's event list
#
# It draws the chunk's values as (count, M, L) arrays, every slot at every
# step, and sifts them whole.  The package takes the same draws from the same
# substream but sifts only the slots that hold an event, so ``dense_chunk``
# must return exactly what ``montecarlo._chunk`` returns.


def _dense_arrivals(p: ProtocolParams, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Photons reaching Bob per slot: Poisson(mu eta), the law of Poisson(mu)
    emissions each kept with probability eta, in one draw."""
    return rng.poisson(p.mu * p.eta, shape)


def standard_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot event arrays for ``count`` sequences of the standard chain.

    ev0/ev1 hold the number of events (valid photons + dark counts) per
    slot on each physical detector; correct_det says which detector
    encodes Alice's bit for that slot; n_bob is the pre-interferometer
    photon number per pulse (ground truth for multi-photon accounting).
    After the photon splits come the dark counts, at any d_c (at 0 all
    False), then one coin per slot that photons reach for its correct
    detector, then two per dark count: its detector, and a correct detector
    that only a slot without photons reads.
    """
    shape = (count, p.M, p.L)
    n_bob = _dense_arrivals(p, rng, shape)
    n_valid = rng.binomial(n_bob, 0.5)
    n_wrong = rng.binomial(n_valid, p.e_sys)  # draws nothing at e_sys = 0
    n_right = n_valid - n_wrong
    dark = rng.random(shape) < p.d_c
    arrived = n_bob > 0
    correct_det = np.zeros(shape, bool)  # read only at the slots that hold an event
    correct_det[arrived] = rng.integers(0, 2, arrived.sum(), dtype=bool)
    dark_det, fresh = np.zeros((2, *shape), bool)
    dark_det[dark], fresh[dark] = rng.integers(0, 2, (2, dark.sum()), dtype=bool)
    correct_det = np.where(arrived, correct_det, fresh)
    ev0 = np.where(correct_det == 0, n_right, n_wrong) + (dark & (dark_det == 0))
    ev1 = np.where(correct_det == 0, n_wrong, n_right) + (dark & (dark_det == 1))
    return {"ev0": ev0, "ev1": ev1, "correct_det": correct_det, "n_bob": n_bob}


def beamdump_events(p: ProtocolParams, rng: np.random.Generator, count: int) -> dict:
    """Per-slot click arrays for the beam-dump diagnostic.

    Each arriving photon is absorbed with probability 1/2 and otherwise
    routed to one of the two detectors with probability 1/4 each; one
    dark-count opportunity per slot and per detector, drawn last at any d_c.
    """
    shape = (count, p.M, p.L)
    n_bob = _dense_arrivals(p, rng, shape)
    to_a = rng.binomial(n_bob, 0.25)
    to_b = rng.binomial(n_bob - to_a, 1.0 / 3.0)
    return {
        "ev_a": (to_a > 0) | (rng.random(shape) < p.d_c),
        "ev_b": (to_b > 0) | (rng.random(shape) < p.d_c),
        "n_bob": n_bob,
    }


def _dense_first_block(clicked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, blocks) index of each sequence's first clicked block in a
    (count, M) mask; block 0 for a silent sequence."""
    return np.arange(len(clicked)), clicked.argmax(axis=1)


def sift_standard(p: ProtocolParams, ev: dict) -> tuple[np.ndarray, np.ndarray]:
    """The per-sequence sift masks (accepted, errored) of ``standard_events``.

    PNR keeps the first clicked block if it holds one count; threshold if
    one detector clicks in it, and reads the bit from that detector's first
    slot there.
    """
    ev0, ev1, correct_det = ev["ev0"], ev["ev1"], ev["correct_det"]

    if p.detector is Detector.PNR:
        block_counts = (ev0 + ev1).sum(axis=2)
        first = _dense_first_block(block_counts > 0)
        accepted = block_counts[first] == 1
        wrong_counts = np.where(correct_det == 0, ev1, ev0).sum(axis=2)
        errored = accepted & (wrong_counts[first] == 1)
    else:
        c0, c1 = ev0 > 0, ev1 > 0
        k0, k1 = c0.any(axis=2), c1.any(axis=2)  # the blocks each detector clicks in
        first = _dense_first_block(k0 | k1)
        in0 = k0[first]
        accepted = in0 ^ k1[first]
        slot = (c0[first] | c1[first]).argmax(axis=1)  # where accepted, the partner is silent
        errored = accepted & (correct_det[(*first, slot)] != np.where(in0, 0, 1))
    return accepted, errored


def sift_beamdump(ev: dict) -> np.ndarray:
    """The per-sequence double mask of ``beamdump_events``: both detectors
    click in the first clicked block."""
    a, b = ev["ev_a"].any(axis=2), ev["ev_b"].any(axis=2)
    first = _dense_first_block(a | b)
    return a[first] & b[first]


def dense_chunk(p: ProtocolParams, mode: McMode, *, rng: np.random.Generator, count: int) -> tuple:
    """The ``McStats`` counters of ``count`` sequences, from the dense arrays,
    then the ground-truth counts of blocks that carry two or more photons at
    Bob's input and of sequences that hold such a block."""
    accepted = errored = double = ()
    if mode is McMode.STANDARD:
        ev = standard_events(p, rng, count)
        accepted, errored = sift_standard(p, ev)
    else:
        ev = beamdump_events(p, rng, count)
        double = sift_beamdump(ev)
    multi = ev["n_bob"].sum(axis=2) >= 2
    return (
        count,
        *(int(np.count_nonzero(mask)) for mask in (accepted, errored, double)),
        int(multi.sum()),
        int(multi.any(axis=1).sum()),
    )


# ---------------------------------------------------------------------------
# pure-Python replays of the Monte Carlo sifting rules


def replay_standard(p: ProtocolParams, ev: dict, i: int) -> tuple[bool, bool]:
    """(accepted, errored) for sequence i, by scanning blocks in order."""
    ev0, ev1, cd = ev["ev0"][i], ev["ev1"][i], ev["correct_det"][i]
    if p.detector is Detector.PNR:
        for b in range(p.M):
            total = int(ev0[b].sum() + ev1[b].sum())
            if total == 0:
                continue
            if total != 1:
                return False, False
            for slot in range(p.L):
                if ev0[b][slot] == 1:
                    return True, int(cd[b][slot]) != 0
                if ev1[b][slot] == 1:
                    return True, int(cd[b][slot]) != 1
        return False, False

    first = {0: None, 1: None}
    for det, arr in ((0, ev0), (1, ev1)):
        for b in range(p.M):
            for slot in range(p.L):
                if arr[b][slot] > 0:
                    first[det] = (b, slot)
                    break
            if first[det] is not None:
                break
    if first[0] is None and first[1] is None:
        return False, False
    b0 = first[0][0] if first[0] is not None else p.M
    b1 = first[1][0] if first[1] is not None else p.M
    earliest = min(b0, b1)
    in0 = b0 == earliest
    in1 = b1 == earliest
    if in0 == in1:
        return False, False
    det = 0 if in0 else 1
    b, slot = first[det]
    return True, int(cd[b][slot]) != det


def replay_beamdump(p: ProtocolParams, ev: dict, i: int) -> bool:
    """True iff sequence i is a double count (both first clicks in one block)."""
    firsts = []
    for arr in (ev["ev_a"][i], ev["ev_b"][i]):
        found = None
        for b in range(p.M):
            for slot in range(p.L):
                if arr[b][slot]:
                    found = b
                    break
            if found is not None:
                break
        firsts.append(found)
    return firsts[0] is not None and firsts[0] == firsts[1]


# ---------------------------------------------------------------------------
# pulse-level replay of the intercept-resend attack


@dataclass(frozen=True)
class AttackOutcome:
    """One pulse-level trial, kept at full resolution for cross-checks."""

    sifted_bits_naive: int
    sifted_bits_modified: int
    undetected_success: bool
    bit_errors: int
    eve_record_matches: bool
    per_sequence_clicks: tuple[int, ...] = field(repr=False)


def run_attack_events(sc: AttackScenario, trials: int, seed: int) -> list[AttackOutcome]:
    """Pulse-level replay of the attack; slow, for validation only.

    Tracks Alice's bits, Eve's measurement record, Bob's per-pulse bases
    and outcomes.  ``eve_record_matches`` reports whether Eve's record
    agrees with Alice on every sifted bit of the measured Z sequences —
    the sequence-level engine takes this for granted.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
    nm, nf = sc.n_measured, sc.n_forwarded
    out: list[AttackOutcome] = []
    for _ in range(trials):
        alice_z = rng.random(nf) < sc.p_z
        alice_bits = rng.integers(0, 2, (nf, sc.M))
        # Eve measures the first nm sequences in Z: exact record on a Z
        # sequence, a coin flip per pulse on an X sequence.
        coin = rng.integers(0, 2, (nm, sc.M))
        eve_record = np.where(alice_z[:nm, None], alice_bits[:nm], coin)
        bob_z = rng.random((nf, sc.M)) < sc.p_z
        sifted = bob_z == alice_z[:, None]

        # Bob's outcome per pulse: a measured sequence arrives as Eve's Z
        # eigenstates (Z measurement reproduces her record, X is random);
        # a clean sequence arrives intact (matched basis reproduces
        # Alice's bit, mismatched is random — and is discarded anyway).
        flips = rng.integers(0, 2, (nf, sc.M))
        bob = np.where(bob_z, np.vstack([eve_record, alice_bits[nm:]]), flips)
        clean = np.vstack(
            [np.zeros((nm, sc.M), dtype=bool), np.ones((nf - nm, sc.M), dtype=bool)]
        )
        intact = clean & sifted
        bob = np.where(intact, alice_bits, bob)

        errors = int((sifted & (bob != alice_bits)).sum())
        naive = int(sifted.sum())
        modified = naive if sc.M == 1 else 0
        success = bool(alice_z[:nm].all() and not alice_z[nm:].any())
        measured_z = sifted[:nm] & alice_z[:nm, None] & bob_z[:nm]
        matches = bool((eve_record[measured_z] == alice_bits[:nm][measured_z]).all())
        out.append(
            AttackOutcome(
                sifted_bits_naive=naive,
                sifted_bits_modified=modified,
                undetected_success=success,
                bit_errors=errors,
                eve_record_matches=matches,
                per_sequence_clicks=tuple([sc.M] * nf),
            )
        )
    return out


# ---------------------------------------------------------------------------
# sequence-by-sequence draw of the honest channel


def honest_baseline_sequences(sc: AttackScenario, trials: int, seed: int) -> HonestStats:
    """Honest-channel sifting drawn sequence by sequence; slow, for validation only.

    Every sequence draws its basis, its Binomial(M, eta_nominal) detections
    and how many of them Bob measures in the matching basis.  Naive sifting
    keeps every matched detection, modified sifting only those of sequences
    with exactly one detection.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 1)))
    naive = modified = 0
    left = trials * sc.n_sequences
    while left:
        n = min(left, 1_000_000)
        q = np.where(rng.random(n) < sc.p_z, sc.p_z, 1.0 - sc.p_z)
        detections = rng.binomial(sc.M, sc.eta_nominal, n)
        matched = rng.binomial(detections, q)
        naive += int(matched.sum())
        modified += int(matched[detections == 1].sum())
        left -= n
    return HonestStats(trials, naive, modified)
