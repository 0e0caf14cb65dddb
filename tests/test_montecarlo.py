"""Event-level simulation: replay equivalence, exact oracles, determinism.

The analytic detection rate keeps only the leading O(lambda) term, so the
tight statistical tests here compare against the *exact* event-model
probabilities in oracles.py; agreement with the leading-order formulas is
asserted separately with the O(lambda) gap made explicit.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowqkd import (
    Detector,
    McConfig,
    McMode,
    McStats,
    ProtocolParams,
    binomial_stderr,
    compare_to_analytic,
    detection_rate_Q,
    key_rate,
    simulate,
)
from slowqkd import montecarlo
from slowqkd._env import CHUNK_ELEMENTS, chunk_schedule, seeded_chunks, substream
from slowqkd.keyrate import _clicks_fit
from slowqkd.montecarlo import _chunk

from oracles import (
    beamdump_events, dense_chunk, exact_Q_pnr, exact_ebit_pnr, exact_multi_photon, replay_beamdump,
    replay_standard, sift_beamdump, sift_standard, standard_events, z_score,
)

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
# dense sift vs pure-Python replay, and the event list vs the dense engine


# sparse parameters, L*eta*mu = 0.1 in each of M = 20 blocks: many sequences click first
# past block 0 and many never click, so the replay covers the search for the first block
SPARSE = dict(mu=0.05, nu_th=0, eta=0.25, M=20, L=8, e_sys=0.25, d_c=1e-3)
SPARSE_PNR = ProtocolParams(detector=Detector.PNR, **SPARSE)
SPARSE_THR = ProtocolParams(detector=Detector.THRESHOLD, **SPARSE)


def _check_first_clicks_spread(p, clicked):
    """A sparse input, whose (count, M) block mask is ``clicked``, holds sequences
    whose first click is past block 0 and fully silent ones."""
    if p.M == SPARSE["M"]:
        ever = clicked.any(axis=1)
        assert (ever & ~clicked[:, 0]).any() and not ever.all()


@pytest.mark.parametrize("p", [BUSY_PNR, BUSY_THR, SPARSE_PNR, SPARSE_THR],
                         ids=["pnr", "threshold", "sparse-pnr", "sparse-threshold"])
def test_sift_standard_matches_replay(p):
    rng = substream(1234, (0,))
    ev = standard_events(p, rng, 400)
    _check_first_clicks_spread(p, (ev["ev0"] + ev["ev1"]).any(axis=2))
    accepted, errored = sift_standard(p, ev)
    for i in range(400):
        want = replay_standard(p, ev, i)
        assert (bool(accepted[i]), bool(errored[i])) == want, f"sequence {i}"


def test_sift_beamdump_matches_replay():
    busy = ProtocolParams(
        mu=1.5, nu_th=0, eta=0.9, M=3, L=4, d_c=0.05, detector=Detector.THRESHOLD
    )
    for p in (busy, SPARSE_THR):
        rng = substream(99, (0,))
        ev = beamdump_events(p, rng, 400)
        _check_first_clicks_spread(p, (ev["ev_a"] | ev["ev_b"]).any(axis=2))
        double = sift_beamdump(ev)
        for i in range(400):
            assert bool(double[i]) == replay_beamdump(p, ev, i), (p.M, f"sequence {i}")


def test_multi_photon_counters_follow_ground_truth():
    """The dense engine's ground-truth counts of blocks with two or more
    photons at Bob, and of sequences holding one, agree with the exact
    probabilities 1 - e^-lambda (1 + lambda) and 1 - (e^-lambda (1 + lambda))^M
    (lambda = L eta mu = 2.88) within 3 sigma, and the event list shares the
    rest of its counters."""
    counters = dense_chunk(BUSY_PNR, McMode.STANDARD, rng=substream(5, (0,)), count=300)
    assert McStats(*_chunk(BUSY_PNR, McMode.STANDARD, rng=substream(5, (0,)), count=300)) == \
        McStats(*counters[:4])
    per_block, per_sequence = exact_multi_photon(BUSY_PNR)
    for k, n, q in ((counters[4], 300 * BUSY_PNR.M, per_block), (counters[5], 300, per_sequence)):
        assert abs(z_score(k, n, q, q * (1 - q))) <= 3.0, (k, n, q)


def _dark_edge(L):
    """The largest d_c that ProtocolParams accepts at this L (bisection on _clicks_fit)."""
    lo, hi = 0.25 / L, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _clicks_fit(L, mid) else (lo, mid)
    return lo


@st.composite
def _chunk_configs(draw):
    """(params, mode): L in [2, 16] or 128, M in [1, 30] or 1000, lambda = L eta mu
    from 1e-4 to 3, eta = 1 among others, d_c from 0 to the edge ProtocolParams allows."""
    L = draw(st.one_of(st.integers(2, 16), st.just(128)))
    eta = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    mode = draw(st.sampled_from(McMode))
    detector = Detector.THRESHOLD if mode is McMode.BEAM_DUMP else draw(st.sampled_from(Detector))
    p = ProtocolParams(
        mu=10.0 ** draw(st.floats(-4.0, math.log10(3.0))) / (L * eta), nu_th=0, eta=eta,
        M=draw(st.one_of(st.integers(1, 30), st.just(1000))), L=L,
        e_sys=draw(st.sampled_from([0.0, 0.5, 1.0])),
        d_c=draw(st.one_of(st.just(0.0), st.floats(0.0, _dark_edge(L)))), detector=detector)
    return p, mode


def _workload_point(lam, eta, M, detector, mode=McMode.STANDARD):
    """A point of the mc_sparse or mc_busy benchmark workloads (L = 128, e_sys = 0.03, d_c = 1e-9)."""
    p = ProtocolParams(mu=lam / (128 * eta), nu_th=0, eta=eta, M=M, L=128, e_sys=0.03, d_c=1e-9,
                       detector=detector)
    return p, mode


@settings(max_examples=150, deadline=None)
@given(config=_chunk_configs(), count=st.one_of(st.just(1), st.integers(1, 64)),
       seed=st.integers(0, 2**32))
@example(config=_workload_point(1e-3, 1e-2, 100, Detector.PNR), count=78, seed=1)
@example(config=_workload_point(1.2e-3, 0.1, 1000, Detector.THRESHOLD), count=7, seed=2)
@example(config=_workload_point(0.25, 0.02, 1, Detector.PNR), count=7812, seed=3)
@example(config=_workload_point(2.0, 1.0, 1, Detector.THRESHOLD), count=7812, seed=4)
@example(config=_workload_point(1.0, 0.3, 1, Detector.THRESHOLD, McMode.BEAM_DUMP), count=7812, seed=5)
@example(config=(ProtocolParams(mu=montecarlo._WALK_MU, nu_th=0, eta=0.3, M=1, L=128, e_sys=0.03,
                                d_c=1e-3, detector=Detector.THRESHOLD), McMode.STANDARD),
         count=7812, seed=6)
@example(config=(ProtocolParams(mu=0.02, nu_th=0, eta=0.3, M=3, L=7, e_sys=0.03, d_c=1e-3,
                                detector=Detector.PNR), McMode.STANDARD), count=5001, seed=7)
@example(config=(ProtocolParams(mu=0.02, nu_th=0, eta=0.3, M=3, L=7, e_sys=0.03, d_c=1e-3,
                                detector=Detector.THRESHOLD), McMode.BEAM_DUMP), count=5001, seed=8)
@example(config=(ProtocolParams(mu=5.0, nu_th=0, eta=1.0, M=1, L=2, e_sys=0.5, d_c=1e-3,
                                detector=Detector.THRESHOLD), McMode.STANDARD),
         count=500_000, seed=9)
@example(config=(ProtocolParams(mu=0.0, nu_th=0, eta=1.0, M=1, L=2, e_sys=0.5, d_c=1e-3,
                                detector=Detector.THRESHOLD), McMode.STANDARD),
         count=500_000, seed=10)
def test_event_list_chunk_equals_the_dense_engine(config, count, seed):
    """The event list takes the dense engine's draws from the same substream,
    so every counter is equal, not just alike in distribution.  The workload
    examples hold 7 to 16 of the event list's pieces of ``_PIECE`` slots,
    the last one partial; the drawn configurations hold one or a few.  At
    mu = ``_WALK_MU`` and eta = 0.3 the 16 pieces hold 7,468 arrivals, 33
    of them of two photons or more, which the walk takes in ``_emissions``
    at mu eta = 0.0075.  The last two examples pin the correct detector of a
    dark count, in 10^6-slot threshold chunks of L = 2 at d_c = 1e-3: at
    mu eta = 5, 981 of the 986 dark counts take the coin of a slot that
    photons reach (0.4 s for the event list, 0.3 s for the dense engine),
    and at mu = 0 all 991 take a fresh one (0.02 s and 0.1 s)."""
    p, mode = config
    count = min(count, max(1, 1_000_000 // (p.M * p.L)))
    assert _chunk(p, mode, rng=substream(seed, (0,)), count=count) == \
        dense_chunk(p, mode, rng=substream(seed, (0,)), count=count)[:4]


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_a_binomial_at_n_zero_draws_nothing(p):
    """The event list's premise about numpy: a binomial returns 0 at n = 0
    without a draw, so one over the nonzero n alone gives the same values and
    leaves the generator in the same state.  n = 200 puts p n above 30 at
    p = 0.25 and 0.5 (the BTPE branch); p = 1 draws by inversion at q = 0."""
    for n in ([0, 3, 0, 5, 0], [0, 200, 0, 0, 200]):
        n = np.array(n)
        full, nonzero = np.random.default_rng(17), np.random.default_rng(17)
        values = full.binomial(n, p)
        assert values[n == 0].tolist() == [0] * int((n == 0).sum())
        assert values[n > 0].tolist() == nonzero.binomial(n[n > 0], p).tolist()
        assert full.random() == nonzero.random()


@pytest.mark.parametrize("take", [
    lambda rng, a, b: rng.poisson(0.7, b - a),
    lambda rng, a, b: rng.poisson(15.0, b - a),
    lambda rng, a, b: rng.random(b - a),
    lambda rng, a, b: rng.integers(0, 2, b - a),
], ids=["poisson", "poisson-rejection", "random", "integers"])
def test_a_draw_in_consecutive_pieces_is_one_draw(take):
    """The premise of ``montecarlo._pieces``: numpy fills consecutive calls
    from the stream as it fills one call, so a draw of slots [0, 1001) split
    into uneven pieces has the one call's values and leaves the generator in
    the same state.  Odd piece sizes leave half of a 64-bit output over for
    ``integers``; mu = 15 takes the Poisson's rejection branch."""
    cuts = [0, 7, 500, 501, 1001]
    full, pieces = np.random.default_rng(17), np.random.default_rng(17)
    values = take(full, 0, 1001)
    split = [take(pieces, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(values, np.concatenate(split))
    assert full.random() == pieces.random()


def _same_emissions(draw, mu: float, size: int, seed: int) -> np.ndarray:
    """Assert that ``draw(rng, mu, size)`` gives the nonzero slots and counts
    of ``rng.poisson(mu, size)`` and leaves the generator in its state; the
    Poisson values."""
    numpy_rng, ours = np.random.default_rng(seed), np.random.default_rng(seed)
    values = numpy_rng.poisson(mu, size)
    slots, counts = draw(ours, mu, size)
    assert slots.tolist() == np.flatnonzero(values).tolist()
    assert counts.tolist() == values[values > 0].tolist()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state
    return values


@pytest.mark.parametrize("mu", [1e-6, 1e-3, montecarlo._WALK_MU, 0.03, 2.0])
def test_emissions_are_numpys_poisson(mu):
    """The premise of ``montecarlo._emissions``: on both sides of ``_WALK_MU``
    a piece and a half of slots (2^16 + 2^15) hold numpy's Poisson values,
    from the stream numpy reads.  At the bound about 2,500 slots of a piece
    hold photons and some 30 of them two or more."""
    values = _same_emissions(montecarlo._emissions, mu, 3 << 15, 5)
    if mu == montecarlo._WALK_MU:
        assert (values >= 2).sum() > 10


@pytest.mark.parametrize("mu,size,seed", [
    (1e-6, 1, 3), (0.3, 17, 4), (0.7, 1000, 5), (2.5, 500, 6), (5.0, 64, 7), (9.9, 300, 8),
    (9.9, 1, 9),
])
def test_the_walk_reads_numpys_uniforms_below_mu_10(mu, size, seed):
    """``_poisson_walk`` is exact at any mu < 10, where numpy multiplies
    uniforms; above ``_WALK_MU`` it is only slower than numpy.  From mu = 0.3
    on slots hold two photons or more, and the first draw of ``size``
    uniforms runs out inside a slot, which then reads on in the next draw
    (the uniforms each slot reads, its count plus one, sum past ``size``
    without meeting it)."""
    values = _same_emissions(montecarlo._poisson_walk, mu, size, seed)
    if mu >= 0.3:
        ends = np.cumsum(values + 1)
        assert values.max() >= 2 and size not in ends and ends[-1] > size


def test_no_emission_draws_nothing():
    """At mu = 0 numpy's Poisson reads no uniform, and neither do the emissions."""
    rng = np.random.default_rng(2)
    slots, counts = montecarlo._emissions(rng, 0.0, 1 << 16)
    assert len(slots) == len(counts) == 0
    assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state


@pytest.mark.parametrize("mu,eta,seed", [
    (0.3, 1.0, 31),  # eta = 1: mu eta = mu, above _WALK_MU
    (0.5, 0.0, 32),  # eta = 0: nothing arrives
    (0.05, 0.4, 33),  # mu eta = 0.02, below _WALK_MU: the walk
    (0.6, 0.1, 34),  # mu eta = 0.06, above it: numpy's Poisson
    (0.5, 0.02, 35),  # mu above _WALK_MU and mu eta = 0.01 below it, as in mc_busy
])
def test_arrivals_follow_the_poisson_law_of_mu_eta(mu, eta, seed):
    """The photons reaching Bob in a slot are Poisson(mu eta), the law of
    Poisson(mu) emissions each kept with probability eta: over 200,003 slots
    (three pieces and a part) the slots that hold 0, 1 and 2 or more photons
    each lie within 4 sigma of that pmf.  At mu eta = 0.01 some ten slots
    are expected to hold two or more."""
    size, lam = 200_003, mu * eta
    slots, n_bob = montecarlo._arrivals(ProtocolParams(mu=mu, nu_th=0, eta=eta, L=8),
                                        np.random.default_rng(seed), size)
    assert (np.diff(slots) > 0).all() and (n_bob > 0).all()
    p0, p1 = math.exp(-lam), lam * math.exp(-lam)
    for k, q in ((size - len(slots), p0), (np.count_nonzero(n_bob == 1), p1),
                 (np.count_nonzero(n_bob >= 2), 1.0 - p0 - p1)):
        assert abs(z_score(k, size, q, q * (1.0 - q))) <= 4.0, (k, q)


def _past_a_coin(seed: int) -> np.random.Generator:
    """A generator of ``seed`` past one coin: a buffered half sits in its
    state for the uniforms to leave alone."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2, 1)
    return rng


_EDGE = float(np.sort(_past_a_coin(5).random(3 << 15))[19])  # a drawn uniform k 2^-53; 19 lie below


@pytest.mark.parametrize("d_c", [0.0, 1e-9, 1e-3, _dark_edge(2), _EDGE, math.nextafter(_EDGE, 1.0),
                                 math.nextafter(_EDGE, 0.0)],
                         ids=["zero", "1e-9", "1e-3", "edge-L2", "on-a-uniform", "above", "below"])
def test_dark_counts_are_numpys_uniforms_below_d_c(d_c):
    """The premise of ``montecarlo._dark``: the slots where a raw output lies
    below ceil(d_c 2^53) << 11 are those where ``rng.random`` lies below d_c,
    and the generator ends in that call's state.  At d_c equal to a drawn
    uniform k 2^-53 that uniform does not fire, nor at the float below it,
    and at the float above it it does; the largest d_c that ``_clicks_fit``
    admits at L = 2 fires in 37% of slots.  Each case starts past one coin,
    with numpy's buffered half of a 64-bit output in the state, which
    ``_dark`` leaves there as ``random`` does.  No ``integers`` call comes
    before ``_dark`` in a chunk, so this pins ``_dark``'s contract at any
    state, not a state a chunk reaches."""
    p = ProtocolParams(mu=0.0, nu_th=0, eta=0.5, L=2, d_c=d_c)
    numpy_rng, ours = _past_a_coin(5), _past_a_coin(5)
    want = np.flatnonzero(numpy_rng.random(3 << 15) < d_c)
    assert montecarlo._dark(p, ours, 3 << 15).tolist() == want.tolist()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state
    if abs(d_c - _EDGE) < 1e-12:
        assert len(want) == 19 + (d_c > _EDGE)


@pytest.mark.parametrize("detector,mode", [(Detector.PNR, McMode.STANDARD),
                                           (Detector.THRESHOLD, McMode.STANDARD),
                                           (Detector.THRESHOLD, McMode.BEAM_DUMP)])
def test_one_sequence_of_1e7_slots_stays_small(detector, mode):
    """One sequence of M = 10^5 blocks at L = 128 (1.28e7 slots, a chunk of
    196 pieces) under tracemalloc (MB = 2^20 bytes; numpy 2.4.6).  Each of
    its full-size draws alone is 97.7 MB at 8 bytes per slot, and taking
    each draw in one call peaked at 122 MB (110 MB in beam dump).  Taken a
    piece at a time, with the detector coins drawn only for the slots that
    hold events, they leave 0.96-0.97 MB in threshold and beam dump, the
    (count, M) block sums, and 1.6 MB in PNR, whose float block sum of the
    counts goes before the wrong counts of the first clicked blocks are
    summed over the entries.  A second float block sum for the wrong entries, alive beside
    the first, had taken PNR to 2.3 MB.  Holding the correct detector's
    coins at one bit per slot had taken the standard modes to 2.1-2.9 MB,
    and joining those bits from their pieces to 3.1-3.8 MB.  At M = 10^6
    the peaks are 9.6 MB (8.7 MB PNR, 15.5 MB with the two block sums),
    from 16.3-16.5 MB with the bits and 30.8-31.0 MB with them joined.  The
    bound is 8 MB."""
    p = ProtocolParams(mu=1e-5, nu_th=0, eta=1.0, M=10**5, L=128, d_c=1e-6, detector=detector)
    tracemalloc.start()
    try:
        _chunk(p, mode, rng=substream(3, (0,)), count=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("detector,mode", [(Detector.PNR, McMode.STANDARD),
                                           (Detector.THRESHOLD, McMode.STANDARD),
                                           (Detector.THRESHOLD, McMode.BEAM_DUMP)])
def test_a_chunk_of_a_million_slots_stays_small(detector, mode):
    """One 10^6-slot chunk at L = 128, eta = 1 and d_c = 1e-3, under
    tracemalloc (MB = 2^20 bytes; numpy 2.4.6).  ``oracles.dense_chunk``
    peaks at 51.6 MB (33.4 MB in beam dump) at any mu, and at 63.0 MB in
    the standard modes when it held int64 detector coins at every slot.

    At lambda = 1 per block the event list peaks at 0.81 MB (0.72 MB),
    with its full-size draws taken a piece at a time (9.8-10.5 MB and 8.7 MB
    when each was one call; 0.93 MB with the correct detector's coins held
    at one bit per slot); the bound is 32 MB.  At mu = 5 per slot, where
    nearly every slot holds photons and the slot list is as long as the
    chunk, it peaks at 50.0 MB (PNR), 50.2 MB (threshold) and 32.2 MB (beam
    dump); the bound is the dense engine's peak, its int64 one in the
    standard modes.  The correct detector is one coin per slot that photons
    reach; one per distinct entry slot instead, from ``np.unique(slot,
    return_inverse=True)``, took the standard modes to 77.6 MB.  Joining the
    standard sift's three entry lists at full size before dropping the empty
    entries, and holding the emissions and both detectors' photon counts
    through the later draws, had taken it to 81.4 MB (41.3 MB)."""
    dense_peak = 33.4 if mode is McMode.BEAM_DUMP else 63.0
    for mu, bound in ((1.0 / 128, 32.0), (5.0, dense_peak)):
        p = ProtocolParams(mu=mu, nu_th=0, eta=1.0, M=1, L=128, d_c=1e-3, detector=detector)
        tracemalloc.start()
        try:
            _chunk(p, mode, rng=substream(3, (0,)), count=CHUNK_ELEMENTS // 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (mu, peak)


# ---------------------------------------------------------------------------
# chunking and determinism


def test_chunk_schedule_partitions_trials():
    cases = [(10_000_001, 4 * 8, ()), (5, 2, ()), (7, 3 * CHUNK_ELEMENTS, (1,)),
             (2_500_000, 1, (1,)), (CHUNK_ELEMENTS, 7, (4, 2))]
    for trials, width, stream in cases:
        schedule = list(chunk_schedule(trials, width, stream))
        assert sum(count for _, count in schedule) == trials
        assert all(1 <= count * width <= max(CHUNK_ELEMENTS, width) for _, count in schedule)
        assert [key for key, _ in schedule] == [(*stream, i) for i in range(len(schedule))]
        assert {count for _, count in schedule[:-1]} <= {max(1, CHUNK_ELEMENTS // width)}
    # M=4, L=8: the chunk sizes and (i,) keys every mc-validate CSV is made with
    schedule = list(chunk_schedule(10_000_001, 4 * 8))
    assert schedule[:2] == [((0,), 31_250), ((1,), 31_250)]
    assert schedule[-1] == ((320,), 1)
    assert list(chunk_schedule(5, 1 * 2)) == [((0,), 5)]


def _one_draw(*, rng, count):
    """A trivial chunk: its count and one draw."""
    return count, int(rng.integers(2**32))


def test_seeded_chunks_memory_stays_flat_in_the_chunk_count(monkeypatch):
    # one-trial chunks (width CHUNK_ELEMENTS): a driver that holds the
    # schedule, tasks or results of every chunk grows by hundreds of bytes
    # per chunk, megabytes at 2*10^4
    monkeypatch.delenv("QKD_THREADS", raising=False)
    peaks = []
    for chunks in (1_000, 20_000):
        tracemalloc.start()
        try:
            count, _ = seeded_chunks(_one_draw, (), 3, chunks, CHUNK_ELEMENTS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert count == chunks
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_seeded_chunks_in_a_pool_match_one_worker(monkeypatch, two_workers):
    # 24 one-chunk batches, more than the pool's window of two per worker:
    # the same per-chunk substreams and the same sums as one worker
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = seeded_chunks(_one_draw, (), 5, 24, CHUNK_ELEMENTS, stream=(2,))
    assert serial[1] == sum(int(substream(5, (2, i)).integers(2**32)) for i in range(24))
    with two_workers():
        assert seeded_chunks(_one_draw, (), 5, 24, CHUNK_ELEMENTS, stream=(2,)) == serial


def test_simulate_is_deterministic():
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=2, L=8, d_c=1e-4),
        trials=50_000,
        seed=42,
    )
    assert simulate(cfg) == simulate(cfg)


def test_simulate_independent_of_worker_count(monkeypatch, two_workers):
    # three chunks of at most 62,500 sequences (M*L = 16 elements each)
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=2, L=8, d_c=1e-4),
        trials=150_000,
        seed=7,
    )
    monkeypatch.delenv("QKD_THREADS", raising=False)
    serial = simulate(cfg)
    with two_workers():
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
    with pytest.raises(ValueError, match="^trials must be an integer"):
        McConfig(params=p, trials=1000.0, seed=1)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        McConfig(params=p, trials=10, seed=1.5)


# ---------------------------------------------------------------------------
# statistics against the exact event model


def test_detection_rate_exact_ztest_pnr():
    p = ProtocolParams(mu=0.01, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=11))
    q = exact_Q_pnr(p)
    assert abs(z_score(stats.detected, stats.sequences, q, q * (1 - q))) <= 3.0


def test_detection_rate_exact_ztest_multiblock():
    p = ProtocolParams(mu=0.02, nu_th=0, eta=0.05, M=4, L=8, d_c=0.0)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=12))
    q = exact_Q_pnr(p)
    assert abs(z_score(stats.detected, stats.sequences, q, q * (1 - q))) <= 3.0


def test_bit_error_rate_exact_ztest():
    p = ProtocolParams(mu=0.02, nu_th=0, eta=0.05, M=4, L=8, d_c=0.0, e_sys=0.03)
    stats = simulate(McConfig(params=p, trials=1_000_000, seed=13))
    assert stats.detected > 1000
    e = exact_ebit_pnr(p)
    assert abs(z_score(stats.bit_errors, stats.detected, e, e * (1 - e))) <= 3.0


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
    q = exact_Q_pnr(p)
    assert abs(z_score(stats.detected, stats.sequences, q, q * (1 - q))) <= 3.0
    assert detection_rate_Q(p) == pytest.approx(16 * 1e-4, rel=1e-3)
    # dark clicks land on a uniformly random detector: error rate 1/2
    assert abs(z_score(stats.bit_errors, stats.detected, 0.5, 0.25)) <= 3.0


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
    q = exact_Q_pnr(p_pnr)
    assert abs(z_score(s_thr.detected, s_thr.sequences, q, q * (1 - q))) <= 3.5


def test_compare_to_analytic_rows_and_zscores():
    p = ProtocolParams(mu=0.002, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0)
    rows = compare_to_analytic(McConfig(params=p, trials=400_000, seed=41))
    assert [r.quantity for r in rows] == ["Q", "e_bit"]
    q = rows[0]
    assert q.analytic == pytest.approx(detection_rate_Q(p), rel=1e-12)
    assert abs(q.z) <= 4.0  # leading-order analytic, lambda = 8e-4


SIFTS = [(Detector.PNR, McMode.STANDARD), (Detector.THRESHOLD, McMode.STANDARD),
          (Detector.THRESHOLD, McMode.BEAM_DUMP)]


def _bits(rows):
    return [tuple(map(repr, vars(row).values())) for row in rows]  # nan reads as nan


@settings(max_examples=150, deadline=None)
@given(sift=st.sampled_from(SIFTS), L=st.integers(2, 16), M=st.integers(1, 30),
       lam=st.one_of(st.just(0.0), st.floats(1e-4, 4.0)),
       eta=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1.0)),
       dark=st.one_of(st.just(0.0), st.floats(0.0, 0.25)), e_sys=st.floats(0.0, 1.0),
       nu=st.floats(0.0, 1.0), c_d=st.floats(0.0, 1e3), seed=st.integers(0, 2**32))
@example(sift=SIFTS[0], L=8, M=3, lam=0.0, eta=0.5, dark=0.0, e_sys=0.03, nu=0.0, c_d=0.0,
         seed=1)  # Q = 0: no photons and no dark counts, so e_bit is nan
@example(sift=SIFTS[1], L=8, M=1, lam=3.0, eta=1.0, dark=0.0, e_sys=0.03, nu=0.5, c_d=5.0,
         seed=2)  # e_mB > Q at L eta mu = 3
@example(sift=SIFTS[2], L=8, M=1, lam=3.0, eta=1.0, dark=1e-2, e_sys=0.03, nu=1.0, c_d=0.0,
         seed=3)
def test_compare_to_analytic_reads_key_rates_values(sift, L, M, lam, eta, dark, e_sys, nu, c_d,
                                                    seed):
    """The model column is key_rate's Q, e_bit and e_mB, bit for bit, though
    compare_to_analytic evaluates only the detection stage: nu_th, c_d and
    the tagged fraction enter none of them.  lam is L mu and dark is L d_c."""
    detector, mode = sift
    p = ProtocolParams(mu=lam / L, nu_th=round(nu * (L - 1)), eta=eta, M=M, L=L, e_sys=e_sys,
                       d_c=dark / L, c_d=c_d, detector=detector)
    cfg = McConfig(params=p, trials=200, seed=seed, mode=mode)
    stats, model = simulate(cfg), key_rate(p)
    if mode is McMode.STANDARD:
        rows = [("Q", model.Q, stats.detected, stats.sequences, 1.0),
                ("e_bit", model.e_bit, stats.bit_errors, stats.detected, 1.0)]
    else:
        rows = [("e_mB", model.e_mB, stats.double_counts, stats.sequences, 8.0)]
    assert _bits(compare_to_analytic(cfg)) == _bits(montecarlo._comparison(*row) for row in rows)


def test_z_of_a_zero_count_uses_the_model_stderr():
    """No double count among 2e5 sequences, where the model expects 0.05: the
    Wald stderr is 0, but the score z divides by the model's spread
    sqrt(n a(1-a)) at a = e_mB/8 and reads a small miss, not -inf.  The
    stderr column stays Wald's."""
    p = ProtocolParams(mu=0.005, nu_th=0, eta=0.05, M=1, L=8, detector=Detector.THRESHOLD)
    cfg = McConfig(params=p, trials=200_000, seed=1, mode=McMode.BEAM_DUMP)
    (row,) = compare_to_analytic(cfg)
    assert row.empirical == row.stderr == 0.0
    a = row.analytic / 8.0
    assert row.z == -cfg.trials * a / math.sqrt(cfg.trials * a * (1.0 - a))
    assert -1.0 < row.z < 0.0


@pytest.mark.parametrize("k,n,scale,analytic,z", [
    (19, 100, 1.0, 0.1, 3.0),  # (19 - 10) / sqrt(100 * 0.1 * 0.9), whatever Wald's stderr
    (0, 100, 1.0, 0.0, 0.0),  # the model expects no events either
    (100, 100, 1.0, 1.0, 0.0),
    (100, 100, 8.0, 0.0, math.inf),  # analytic 0 or 1: the model has no spread
    (0, 100, 8.0, 8.0, -math.inf),
    (12, 12, 1.0, 0.75, 2.0),  # every trial an event: (12 - 9) / sqrt(12 * 0.75 * 0.25)
    (0, 0, 1.0, 0.03, math.nan),  # e_bit without detections
])
def test_comparison_z_branches(k, n, scale, analytic, z):
    row = montecarlo._comparison("x", analytic, k, n, scale)
    assert row.z == z or math.isnan(row.z) and math.isnan(z)
    assert row.stderr == scale * binomial_stderr(k, n) or math.isnan(row.stderr) and n == 0


# ---------------------------------------------------------------------------
# beam-dump diagnostics


def test_beamdump_conditional_double_count_bound():
    """Given a block carrying >= 2 photons, both detectors fire in it
    with probability >= 1/8 (equality for exactly two photons and no
    dark counts), so 8x the double-count rate bounds the multi-photon
    rate from above.  The multi-photon counts are the exact expectations,
    n (1 - e^-lambda (1 + lambda)) for blocks and sequences alike at M = 1."""
    p = ProtocolParams(
        mu=0.25, nu_th=0, eta=0.5, M=1, L=8, d_c=0.0, detector=Detector.THRESHOLD
    )
    stats = simulate(
        McConfig(params=p, trials=300_000, seed=51, mode=McMode.BEAM_DUMP)
    )
    per_block, per_sequence = exact_multi_photon(p)
    multi_sequences = stats.sequences * per_sequence
    assert multi_sequences > 1000
    cond = stats.double_counts / multi_sequences
    se = binomial_stderr(stats.double_counts, multi_sequences)
    assert cond >= 1.0 / 8.0 - 3.0 * se
    rate_mp = p.M * per_block
    se_mp = binomial_stderr(stats.sequences * rate_mp, stats.sequences)
    assert 8.0 * stats.double_counts / stats.sequences >= rate_mp - 5.0 * se_mp


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
    assert stats.double_counts / stats.sequences == pytest.approx(expect, rel=0.1)


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


def test_stats_helper_formulas():
    cfg = McConfig(
        params=ProtocolParams(mu=0.05, nu_th=0, eta=0.2, M=1, L=8, d_c=0.0),
        trials=10_000,
        seed=63,
    )
    stats = simulate(cfg)
    assert stats.sequences == cfg.trials
    assert 0 < stats.bit_errors <= stats.detected < stats.sequences
    assert stats.double_counts == 0  # a beam-dump counter, not filled in standard mode
    q, e_bit = compare_to_analytic(cfg)
    rate = stats.detected / stats.sequences
    assert q.empirical == rate
    assert q.stderr == binomial_stderr(stats.detected, stats.sequences)
    assert q.stderr == pytest.approx(math.sqrt(rate * (1 - rate) / stats.sequences))
    assert e_bit.empirical == stats.bit_errors / stats.detected
    assert binomial_stderr(0, 100) == 0.0
    assert math.isnan(binomial_stderr(1, 0))


def test_bit_error_rate_is_nan_without_detections():
    # no sequence detected: the rate is undefined, like its standard error and z
    cfg = McConfig(params=ProtocolParams(mu=1e-9, nu_th=0, eta=1e-7, L=8, d_c=0.0),
                   trials=1000, seed=5)
    assert simulate(cfg).detected == 0
    e_bit = next(row for row in compare_to_analytic(cfg) if row.quantity == "e_bit")
    assert math.isnan(e_bit.empirical)
    assert math.isnan(e_bit.stderr)
    assert math.isnan(e_bit.z)
