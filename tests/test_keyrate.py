"""Analytic rate formulas against high-precision and frozen references."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from slowqkd import (
    Detector,
    KeyRateResult,
    ProtocolParams,
    binary_entropy,
    bit_error_rate,
    detection_rate_Q,
    e_src_slow,
    key_rate,
)
from slowqkd import keyrate
from slowqkd.keyrate import _SCALAR, _geom_sum, rate_grid
from slowqkd.optimizer import MU_MAX, MU_MIN

from oracles import (
    binary_entropy_oracle,
    detection_rate_oracle,
    e_mB_oracle,
    e_src_slow_oracle,
    poisson_upper_tail,
)


@st.composite
def _any_params(draw, detector, c_d):
    L = draw(st.integers(2, 256))
    return ProtocolParams(
        mu=draw(st.floats(1e-9, 2.0)),
        nu_th=draw(st.integers(0, L - 1)),
        eta=draw(st.floats(1e-9, 1.0)),
        M=draw(st.sampled_from([1, 2, 3, 10, 100, 10_000, 1_000_000])),
        L=L,
        e_sys=draw(st.floats(0.0, 0.5)),
        d_c=draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4])),
        c_d=draw(st.sampled_from([0.0, 1.0, 128.0, 1.28e5])) if c_d is None else c_d,
        detector=detector or draw(st.sampled_from(list(Detector))),
    )


def _log_uniform(lo, hi, steps=1000):
    """lo..hi on a log scale, in equal steps (hypothesis' floats crowd the ends)."""
    a, b = math.log10(lo), math.log10(hi)
    return st.sampled_from(range(steps + 1)).map(lambda i: 10.0 ** (a + (b - a) * i / steps))


@st.composite
def _keyed_params(draw, detector, c_d):
    """Points that can carry key: mu over the optimizer's box, eta from 1e-4,
    e_sys <= 0.1, and nu_th below keyrate._keyed_rows."""
    p = replace(
        draw(_any_params(detector, c_d)),
        mu=draw(_log_uniform(MU_MIN, MU_MAX)),
        eta=draw(_log_uniform(1e-4, 1.0)),
        e_sys=draw(st.floats(0.0, 0.1)),
    )
    return replace(p, nu_th=draw(st.sampled_from(range(keyrate._keyed_rows(p)))))


def protocol_params(detector=None, c_d=None):
    return st.one_of(_any_params(detector, c_d), _keyed_params(detector, c_d))


# ---------------------------------------------------------------------------
# binary entropy


def test_binary_entropy_half_is_one():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_endpoints_vanish():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_at_011():
    # frozen from the arbitrary-precision oracle
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-13)


@pytest.mark.parametrize("x", [1e-12, 1e-6, 0.03, 0.11, 0.25, 0.4999, 0.73])
def test_binary_entropy_matches_oracle(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy_oracle(x), rel=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@pytest.mark.parametrize(
    "e,M,needle",
    [(0.5, 2.5, "M must be an integer"), (0.5, True, "M must be an integer"),
     (0.5, 2.0, "M must be an integer"), (0.5, 0, "M must be an integer >= 1"),
     (-0.1, 2, "e_src"), (1.1, 2, "e_src"), (math.nan, 2, "e_src"),
     pytest.param(0.5, 10**400, "M must not exceed", id="M=1e400")],  # was an OverflowError
)
def test_e_src_slow_refuses_a_non_count_M_and_e_outside_0_1(e, M, needle):
    with pytest.raises(ValueError, match=needle):
        e_src_slow(e, M)


@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


# ---------------------------------------------------------------------------
# source tagging probabilities


def _e_src(L, mu, nu_th):
    """The block tagged fraction, read where it lives: e_src_slow at M = 1."""
    return key_rate(ProtocolParams(mu=mu, nu_th=nu_th, eta=1.0, M=1, L=L)).e_src_slow


def test_e_src_spec_point():
    assert _e_src(128, 0.01, 3) == pytest.approx(0.041125718315457915, rel=1e-12)


@pytest.mark.parametrize(
    "L,mu,nu_th",
    [
        (128, 0.01, 0),
        (128, 0.01, 3),
        (128, 0.0078125, 10),
        (256, 0.5, 200),  # deep upper tail, lam = 128
        (128, 0.0078125, 50),  # lam = 1, tail ~ 1e-67
        (2, 0.5, 1),
        (64, 1e-6, 0),
        (32, 0.3, 31),
    ],
)
def test_e_src_matches_tail_oracle(L, mu, nu_th):
    want = poisson_upper_tail(L * mu, nu_th)
    got = _e_src(L, mu, nu_th)
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-9)


def test_e_src_zero_intensity():
    assert _e_src(128, 0.0, 0) == 0.0


def test_e_src_slow_single_block_is_identity():
    for e in (0.0, 1e-15, 0.3, 1.0):
        assert e_src_slow(e, 1) == e


def test_e_src_slow_cancellation_regime():
    # M * e_src << 1 is where a naive 1-(1-e)^M loses all precision
    assert e_src_slow(1e-12, 10**6) == pytest.approx(9.999995000006667e-07, rel=1e-9)
    assert e_src_slow(1e-300, 10**6) == pytest.approx(1e-294, rel=1e-9)


@pytest.mark.parametrize(
    "e,M", [(0.3, 5), (1e-4, 100), (0.9999, 3), (0.5, 1), (1e-9, 10**6)]
)
def test_e_src_slow_matches_oracle(e, M):
    assert e_src_slow(e, M) == pytest.approx(e_src_slow_oracle(e, M), rel=1e-9)


@given(st.floats(0.0, 1.0), st.integers(1, 10**6))
def test_e_src_slow_is_a_probability(e, M):
    out = e_src_slow(e, M)
    assert 0.0 <= out <= 1.0
    assert out >= e or M == 1


# ---------------------------------------------------------------------------
# detection and error rates


def test_detection_rate_spec_point():
    p = ProtocolParams(mu=0.01, nu_th=0, eta=1e-3, M=10, L=128, d_c=0.0)
    for got in (detection_rate_Q(p), key_rate(p).Q):
        assert got == pytest.approx(0.006355145176008324, rel=1e-9)


@pytest.mark.parametrize("M", [1, 2, 7, 100, 10_000])
def test_detection_rate_matches_summation_oracle(M):
    p = ProtocolParams(mu=0.05, nu_th=0, eta=0.02, M=M, L=32, d_c=1e-6)
    for got in (detection_rate_Q(p), key_rate(p).Q):
        assert got == pytest.approx(detection_rate_oracle(p), rel=1e-12)


def test_detection_rate_zero_without_light_or_dark():
    p = ProtocolParams(mu=0.0, nu_th=0, eta=0.5, M=4, L=16, d_c=0.0)
    assert detection_rate_Q(p) == 0.0


def test_geom_sum_closed_form_vs_direct():
    for log_r, M in [(-0.3, 7), (-1e-9, 1000), (0.0, 17), (-25.0, 3)]:
        direct = sum(math.exp(log_r) ** m for m in range(M))
        assert _geom_sum(_SCALAR, log_r, M) == pytest.approx(direct, rel=1e-12)


def test_bit_error_rate_no_dark_is_e_sys():
    p = ProtocolParams(mu=0.1, nu_th=0, eta=0.1, M=1, L=16, e_sys=0.03, d_c=0.0)
    assert bit_error_rate(p) == 0.03
    assert key_rate(p).e_bit == 0.03


def test_bit_error_rate_dark_dominated_is_half():
    p = ProtocolParams(mu=1e-12, nu_th=0, eta=1e-6, M=1, L=16, e_sys=0.03, d_c=1e-3)
    for got in (bit_error_rate(p), key_rate(p).e_bit):
        assert got == pytest.approx(0.5, rel=1e-6)


def test_bit_error_rate_spec_point_is_e_sys_plus_dark_correction():
    p = ProtocolParams(mu=0.01, nu_th=0, eta=1e-3, M=1, L=128, e_sys=0.03, d_c=1e-9)
    for got in (bit_error_rate(p), key_rate(p).e_bit):
        assert got > 0.03  # dark counts pull the rate toward 1/2
        assert got == pytest.approx(0.030094101552621724, rel=1e-12)


def test_bit_error_rate_requires_detections():
    p = ProtocolParams(mu=0.0, nu_th=0, eta=0.5, M=1, L=16, d_c=0.0)
    with pytest.raises(ValueError):
        bit_error_rate(p)


def test_e_mB_is_zero_for_pnr():
    p = ProtocolParams(mu=0.1, nu_th=0, eta=0.5, M=10, L=16, d_c=1e-4)
    assert key_rate(p).e_mB == 0.0


def test_e_mB_matches_summation_oracle():
    p = ProtocolParams(
        mu=0.01, nu_th=0, eta=1e-3, M=1000, L=128, d_c=1e-9,
        detector=Detector.THRESHOLD,
    )
    got = key_rate(p).e_mB
    assert got == pytest.approx(0.0004624497134722845, rel=1e-12)
    assert got == pytest.approx(e_mB_oracle(p), rel=1e-12)


# ---------------------------------------------------------------------------
# phase error bounds


def _bounded_point(detector):
    """nu_th = 4, L = 128 with a bound: x ~ 6e-6, and e_mB ~ Q/4 for threshold."""
    return ProtocolParams(mu=0.001, nu_th=4, eta=0.5, M=1, L=128, d_c=1e-4, detector=detector)


def test_phase_error_pnr_spec_point():
    assert keyrate._phase_bound(0.001 / 0.01, 4, 128) == pytest.approx(
        0.1 + 0.9 * 4 / 127, rel=1e-12
    )
    res = key_rate(_bounded_point(Detector.PNR))
    assert res.reason is None and res.e_mB == 0.0
    x = res.e_src_slow / res.Q
    assert res.e_ph == pytest.approx(x + (1.0 - x) * 4 / 127, rel=1e-12)


def test_phase_error_pnr_no_detections_has_no_bound():
    for detector in Detector:
        for mu, eta in ((0.0, 0.5), (0.01, 0.0)):
            p = ProtocolParams(mu=mu, nu_th=4, eta=eta, L=128, d_c=0.0, detector=detector)
            res = key_rate(p)
            assert res.Q == 0.0 and res.reason == "no_detection"
            assert math.isnan(res.e_ph) and res.G == 0.0


def test_phase_error_pnr_tagged_exceeding_detected_has_no_bound():
    res = key_rate(ProtocolParams(mu=0.1, nu_th=0, eta=1e-3, M=10, L=128))
    assert res.Q > 0.0 and res.e_src_slow > res.Q
    assert res.reason == "no_valid_bound"
    assert math.isnan(res.e_ph) and res.G == 0.0


def test_phase_error_threshold_reduces_to_pnr_on_shifted_Q():
    pnr = key_rate(_bounded_point(Detector.PNR))
    thr = key_rate(_bounded_point(Detector.THRESHOLD))
    assert (thr.Q, thr.e_src_slow) == (pnr.Q, pnr.e_src_slow)
    assert thr.reason is None and thr.e_mB > 0.0
    assert thr.e_ph == keyrate._phase_bound(thr.e_src_slow / (thr.Q - thr.e_mB), 4, 128)
    assert thr.e_ph > pnr.e_ph == keyrate._phase_bound(pnr.e_src_slow / pnr.Q, 4, 128)


def test_phase_error_all_tagged_is_one():
    assert keyrate._phase_bound(0.01 / 0.01, 4, 128) == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(protocol_params())
def test_phase_error_bound_follows_the_fields(p):
    """Tagged detections leak fully, the rest at most nu_th/(L-1), over the
    usable detections Q - e_mB; no bound exists when there are none or the
    tagged share x exceeds 1."""
    res = key_rate(p)
    usable = res.Q - res.e_mB
    x = res.e_src_slow / usable if usable > 0.0 else math.nan
    assert (res.reason == "no_valid_bound") == (res.Q > 0.0 and (usable <= 0.0 or x > 1.0))
    if res.reason is None:
        assert res.e_ph == pytest.approx(x + (1.0 - x) * p.nu_th / (p.L - 1), rel=1e-12)


# ---------------------------------------------------------------------------
# assembled key rate


def test_key_rate_no_detection_reason():
    p = ProtocolParams(mu=0.0, nu_th=0, eta=0.5, M=1, L=16, d_c=0.0)
    res = key_rate(p)
    assert res.reason == "no_detection"
    assert res.G == 0.0 and res.G_raw == 0.0
    assert math.isnan(res.e_bit) and math.isnan(res.e_ph)


def test_key_rate_no_valid_bound_reason():
    # intense source: almost every sequence is tagged, far beyond Q
    p = ProtocolParams(mu=2.0, nu_th=0, eta=1e-4, M=100, L=128, d_c=0.0)
    res = key_rate(p)
    assert res.reason == "no_valid_bound"
    assert res.G == 0.0
    assert math.isnan(res.e_ph)


def test_key_rate_worthless_phase_bound_gives_no_key():
    # nu_th = L-1 makes the bound exactly 1; the cost must saturate, not
    # wrap around through h(1) = 0
    p = ProtocolParams(mu=0.05, nu_th=127, eta=0.1, M=1, L=128, d_c=0.0)
    res = key_rate(p)
    assert res.e_ph == pytest.approx(1.0)
    assert res.G == 0.0 and res.G_raw < 0.0


def test_key_rate_positive_at_benign_point():
    p = ProtocolParams(mu=0.03, nu_th=12, eta=0.1, M=1, L=128, d_c=1e-9)
    res = key_rate(p)
    assert res.G > 0.0
    assert res.G == res.G_raw
    assert res.reason is None


def test_key_rate_dead_time_only_rescales():
    p0 = ProtocolParams(mu=0.03, nu_th=12, eta=0.1, M=1, L=128, d_c=1e-9, c_d=0.0)
    p1 = replace(p0, c_d=128.0)
    r0, r1 = key_rate(p0), key_rate(p1)
    assert r1.G == pytest.approx(r0.G * (1 * 128) / (1 * 128 + 128.0), rel=1e-12)


@pytest.mark.parametrize("detector", list(Detector))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scalar_model_G_is_key_rate_G_bit_for_bit(detector, data):
    """The optimizer's refinement reads G from the scalar model; it must be
    the G of ``key_rate`` at the same point exactly, whatever mu and nu_th
    the base carries."""
    p = data.draw(protocol_params(detector=detector))
    base = replace(p, mu=MU_MAX, nu_th=p.L - 1)
    assert keyrate._model(_SCALAR, base, p.mu, p.nu_th)[-1] == key_rate(p).G


# The model computes every value at every point: where Q = 0, and where
# e_mB > Q makes x and e_ph negative (math.log2 would raise at h(e_ph)).
_NO_KEY_POINTS = [
    (ProtocolParams(mu=0.01, nu_th=3, eta=0.0, M=10, L=16, d_c=0.0, detector=detector),
     KeyRateResult(0.0, 0.0, 0.0, math.nan, math.nan, 0.00024031541280073674, 0.0,
                   reason="no_detection"))
    for detector in Detector
] + [
    (ProtocolParams(mu=3 / 128, nu_th=0, eta=1.0, M=1, L=128, detector=Detector.THRESHOLD),
     KeyRateResult(0.0, 0.0, 0.07468073055179592, 0.030000805562553495, math.nan,
                   0.950212931632136, 0.22404196000407808, reason="no_valid_bound")),
    (ProtocolParams(mu=3 / 128, nu_th=0, eta=1.0, M=100, L=128, detector=Detector.THRESHOLD),
     KeyRateResult(0.0, 0.0, 0.07859367838933276, 0.030000805562553495, math.nan,
                   1.0, 0.2357807913791602, reason="no_valid_bound")),
]


@pytest.mark.parametrize("p,want", _NO_KEY_POINTS,
                         ids=["Q0-pnr", "Q0-threshold", "emB-above-Q-M1", "emB-above-Q-M100"])
def test_points_without_key_run_the_whole_model(p, want):
    res = key_rate(p)
    assert res.reason == want.reason
    for name in ("G_raw", "G", "Q", "e_bit", "e_ph", "e_src_slow", "e_mB"):
        got, expected = getattr(res, name), getattr(want, name)
        assert got == expected or math.isnan(got) and math.isnan(expected), name
    Q, _, emb, _, bound, eph, _, G = keyrate._model(_SCALAR, p, p.mu, p.nu_th)
    assert not bound and G == 0.0
    assert Q == 0.0 or emb > Q and eph < 0.0
    base = replace(p, mu=MU_MAX, nu_th=p.L - 1)
    assert keyrate._model(_SCALAR, base, p.mu, p.nu_th)[-1] == key_rate(p).G == 0.0
    assert rate_grid(p, [p.mu], [p.nu_th])[0, 0] == 0.0


@settings(max_examples=300, deadline=None)
@given(protocol_params(detector=Detector.THRESHOLD, c_d=0.0))
def test_threshold_with_zero_emb_equals_pnr(p):
    """The threshold rate with the multi-detection bound forced to zero
    must coincide with the PNR rate — same detections, same penalties."""
    with patch.object(keyrate, "_multi_detection", lambda *args: 0.0):
        thr = key_rate(p)
    pnr = key_rate(replace(p, detector=Detector.PNR))
    assert thr.G_raw == pnr.G_raw
    assert thr.G == pnr.G
    assert thr.Q == pnr.Q


@settings(max_examples=300, deadline=None)
@given(protocol_params())
def test_key_rate_invariants(p):
    res = key_rate(p)
    assert res.G >= 0.0
    assert res.G <= res.Q / (p.M * p.L + p.c_d) + 1e-15
    assert 0.0 <= res.e_src_slow <= 1.0
    if res.reason is not None:
        assert res.G == 0.0


def _assert_grid_matches_key_rate(p, mus, nus):
    """rate_grid against key_rate, entry by entry.

    Where key_rate reports a reason or G_raw <= 0 the grid must hold an
    exact 0.  Elsewhere it must match G to 1e-12 relative.  G is a
    difference of O(1) entropy terms times Q/(M L + c_d), and numpy's
    vectorized exp/log may round differently from math's in the last
    place, so near G = 0 the agreement is held to 1e-12 of that scale.
    """
    grid = rate_grid(p, mus, nus)
    assert grid.shape == (len(nus), len(mus))
    for i, nu in enumerate(nus):
        for j, mu in enumerate(mus):
            res = key_rate(replace(p, mu=mu, nu_th=nu))
            if res.reason is not None or res.G_raw <= 0.0:
                assert grid[i, j] == 0.0, (mu, nu, res)
            else:
                scale = res.Q / (p.M * p.L + p.c_d)
                assert grid[i, j] == pytest.approx(res.G, rel=1e-12, abs=1e-12 * scale), (mu, nu)


@settings(max_examples=300, deadline=None)
@given(
    protocol_params(),
    st.lists(st.floats(1e-9, 2.0), min_size=1, max_size=6),
    st.data(),
)
def test_rate_grid_equals_key_rate(p, mus, data):
    nus = data.draw(st.lists(st.integers(0, p.L - 1), min_size=1, max_size=6))
    _assert_grid_matches_key_rate(p, [*mus, MU_MAX], [*nus, p.L - 1])


@pytest.mark.parametrize("detector", list(Detector))
@pytest.mark.parametrize("M", [1, 1000, 10**6])
def test_rate_grid_without_dark_counts_down_to_mu_min(detector, M):
    p = ProtocolParams(mu=0.1, nu_th=0, eta=1e-7, M=M, L=128, d_c=0.0, detector=detector)
    mus = [MU_MIN, MU_MIN * 1.0001, 1e-3, MU_MAX]
    for eta in (1e-9, 1e-4, 1.0):
        _assert_grid_matches_key_rate(replace(p, eta=eta), mus, [0, 1, 5, 127])


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(mu=-0.1), "mu"),
        (dict(nu_th=-1), "nu_th"),
        (dict(nu_th=128), "nu_th"),
        (dict(eta=1.5), "eta"),
        (dict(eta=-0.5), "eta"),
        (dict(M=0), "M"),
        (dict(L=1), "L"),
        (dict(e_sys=1.2), "e_sys"),
        (dict(d_c=-1e-9), "d_c"),
        (dict(c_d=-1.0), "c_d"),
        (dict(mu=math.inf), "mu"),
        (dict(c_d=math.inf), "c_d"),
        (dict(M=10**400), "M"),
        (dict(L=2000, d_c=1e-3), "d_c"),
        (dict(L=8, d_c=1.0), "d_c"),
        (dict(mu=1.1e152), "mu"),  # L*mu beyond sqrt(float max): lambda^2 would overflow
    ],
)
def test_protocol_params_validation(kwargs, needle):
    base = dict(mu=0.1, nu_th=3, eta=0.5, M=1, L=128)
    base.update(kwargs)
    with pytest.raises(ValueError, match=rf"\b{needle}\b"):
        ProtocolParams(**base)


@pytest.mark.parametrize(
    "field,value",
    [("nu_th", 1.5), ("M", 2.5), ("L", 128.5), ("M", 2.0), ("L", np.float64(128.0)),
     ("nu_th", True), ("M", True), ("L", "128"), ("M", None)],
)
def test_integer_fields_refuse_anything_but_integers(field, value):
    """nu_th, M and L are counts: 2.5 sequences has no meaning, so a float
    (even a whole one), a bool or a string is refused with the field named."""
    kwargs = dict(mu=0.01, nu_th=1, eta=0.1, M=2, L=128)
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        ProtocolParams(**kwargs)


def test_detector_must_be_a_Detector_not_its_value():
    with pytest.raises(ValueError, match="detector must be a Detector"):
        ProtocolParams(mu=0.01, nu_th=1, eta=0.1, detector="pnr")


def test_numpy_integer_fields_are_integers():
    p = ProtocolParams(mu=0.01, nu_th=np.int64(3), eta=0.1, M=np.int32(20), L=np.int64(128))
    assert key_rate(p) == key_rate(ProtocolParams(mu=0.01, nu_th=3, eta=0.1, M=20, L=128))


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_scalar_tail_is_the_ufunc_bit_for_bit(data):
    """One point takes P(N > nu_th) from scipy's compiled scalar
    (cython_special), the grid from the ufunc: over the domain ProtocolParams
    accepts, mu = 0, L mu near nu_th + 1 (where the algorithm switches) and
    L mu near the _LAM_MAX bound included, they agree exactly."""
    L = data.draw(st.one_of(st.integers(2, 256), st.integers(2, 10**6)))
    nu = data.draw(st.one_of(st.integers(0, min(L - 1, 64)), st.integers(0, L - 1)))
    lam = data.draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, keyrate._LAM_MAX),
        st.floats(-12.0, math.log10(keyrate._LAM_MAX)).map(lambda e: 10.0**e),
        st.floats(0.8, 1.25).map(lambda r: r * (nu + 1)),
        st.floats(0.999, 1.0).map(lambda r: r * keyrate._LAM_MAX),
    ))
    mu = lam / L
    while L * mu > keyrate._LAM_MAX:  # rounding in lam / L
        mu = math.nextafter(mu, 0.0)
    p = ProtocolParams(mu=mu, nu_th=nu, eta=0.5, L=L)
    a, x = p.nu_th + 1, p.L * p.mu
    assert _SCALAR.gammainc(a, x) == float(gammainc(a, x))


FIRST_GAMMAINC = """
import json, sys
import numpy as np
from slowqkd import keyrate
a, x = np.array([1, 3, 13, 200]), np.array([0.0, 2.5, 1e-3, 180.0])
assert "scipy.special" not in sys.modules
if sys.argv[1] == "scalar":
    first = [keyrate._SCALAR.gammainc(int(ai), float(xi)) for ai, xi in zip(a, x)]
else:
    first = keyrate._ARRAY.gammainc(a, x).tolist()
from scipy.special import cython_special, gammainc
assert keyrate._SCALAR.gammainc is cython_special.gammainc and keyrate._ARRAY.gammainc is gammainc
print(json.dumps([[v.hex() for v in first], [v.hex() for v in gammainc(a, x).tolist()]]))
"""


@pytest.mark.parametrize("namespace", ["scalar", "array"])
def test_the_loading_gammainc_call_returns_scipys_value(namespace):
    """scipy.special is imported at the first gammainc call of either
    namespace, which binds both to scipy's own functions; in a fresh process,
    that first call already returns scipy's values bit for bit."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", FIRST_GAMMAINC, namespace], env=env,
                          capture_output=True, text=True, check=True)
    first, scipys = json.loads(proc.stdout.splitlines()[-1])
    assert first == scipys


def test_largest_accepted_mu_keeps_the_rate_finite():
    for detector in Detector:
        res = key_rate(ProtocolParams(mu=1.6e153, nu_th=1, eta=1.0, L=8, detector=detector))
        assert math.isfinite(res.Q) and math.isfinite(res.e_mB)
        assert res.G == 0.0


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4096), st.floats(0.0, 1.0), st.floats(0.0, 4.0))
def test_accepted_dark_count_rates_keep_Q_a_probability(L, d_c, lam):
    """ProtocolParams takes d_c exactly when s <= 1 - r at every lambda.

    Q = s (1 - r^M)/(1 - r) then stays <= 1 for every M; a refused d_c has
    some lambda in [0, 1] with s > 1 - r (the worst lambda is 1 - 2D <= 1).
    """
    try:
        p = ProtocolParams(mu=lam / L, nu_th=0, eta=1.0, M=10**6, L=L, d_c=d_c)
    except ValueError:
        assert L * d_c > 0.25
        lams = np.linspace(0.0, 1.0, 20_001)
        D = (1.0 - d_c) ** (2 * L)
        excess = 0.5 * lams * np.exp(-lams) + L * d_c - (1.0 - np.exp(-lams) * D)
        assert excess.max() > -1e-9
        return
    assert detection_rate_Q(p) <= 1.0 + 1e-12
