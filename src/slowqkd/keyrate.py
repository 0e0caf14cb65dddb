"""Key-rate model for RRDPS QKD with a per-sequence (slow) basis choice.

A sequence is M blocks of L pulses measured with a single basis setting.
Bob sifts at most one bit per sequence, taken from the first block with a
detection.  The channel model is leading-order: blocks stay silent with
probability r = exp(-L*eta*mu) * (1-d_c)^(2L) and produce a sifted click
with probability s = (L*eta*mu/2) exp(-L*eta*mu) + L*d_c.  Multi-photon
emissions are handled by tagging: the fraction of blocks carrying more
than ``nu_th`` photons is treated as fully leaked, and the slow basis
choice inflates that fraction to whole-sequence scope (``e_src_slow``).
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

__all__ = [
    "Detector",
    "ProtocolParams",
    "KeyRateResult",
    "binary_entropy",
    "e_src",
    "e_src_slow",
    "detection_rate_Q",
    "bit_error_rate",
    "e_mB",
    "phase_error_pnr",
    "phase_error_threshold",
    "key_rate",
    "rate_grid",
]


class Detector(str, enum.Enum):
    """Detector model at Bob's interferometer outputs."""

    PNR = "pnr"  # photon-number resolving
    THRESHOLD = "threshold"  # binary click/no-click


_FLOAT_MAX = sys.float_info.max


def _clicks_fit(L: int, d_c: float) -> bool:
    """Whether s <= 1 - r holds for every lambda = L*eta*mu >= 0.

    With D = (1-d_c)^(2L), 1 - r - s = 1 - e^(-lambda) (D + lambda/2) - L d_c
    is smallest at lambda* = max(0, 1 - 2D).  L d_c <= 1/4 always passes
    (Bernoulli and Bonferroni bounds on D), so callers test that first.
    """
    D = (1.0 - d_c) ** (2 * L)
    lam = max(0.0, 1.0 - 2.0 * D)
    return 1.0 - math.exp(-lam) * (D + 0.5 * lam) - L * d_c >= 0.0


@dataclass(frozen=True)
class ProtocolParams:
    """One operating point of the protocol and channel.

    ``mu`` is the mean photon number per pulse, ``nu_th`` the per-block
    photon-number tagging threshold, ``eta`` the channel transmission,
    ``e_sys`` the intrinsic optical error rate, ``d_c`` the dark-count
    probability per detection slot, and ``c_d`` the detector dead time in
    pulse units (added to the M*L pulses a sequence occupies).
    """

    mu: float
    nu_th: int
    eta: float
    M: int = 1
    L: int = 128
    e_sys: float = 0.03
    d_c: float = 1e-9
    c_d: float = 0.0
    detector: Detector = Detector.PNR

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M}")
        if self.M * self.L > _FLOAT_MAX:
            raise ValueError(f"M*L must not exceed {_FLOAT_MAX:.4g}, got M = {self.M}")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0 <= self.nu_th <= self.L - 1:
            raise ValueError(
                f"nu_th must be within [0, L-1] = [0, {self.L - 1}], got {self.nu_th}"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be within [0, 1], got {self.eta}")
        if not 0.0 <= self.e_sys <= 1.0:
            raise ValueError(f"e_sys must be within [0, 1], got {self.e_sys}")
        if not 0.0 <= self.d_c <= 1.0:
            raise ValueError(f"d_c must be within [0, 1], got {self.d_c}")
        if self.L * self.d_c > 0.25 and not _clicks_fit(self.L, self.d_c):
            raise ValueError(
                f"d_c = {self.d_c} is too large for L = {self.L}: the per-block "
                "click rate s could exceed 1 - r, giving Q > 1"
            )
        if not 0.0 <= self.c_d < math.inf:
            raise ValueError(f"c_d must be finite and >= 0, got {self.c_d}")
        if not isinstance(self.detector, Detector):
            raise ValueError(f"detector must be a Detector, got {self.detector!r}")


@dataclass(frozen=True)
class KeyRateResult:
    """Key-rate evaluation at one operating point.

    ``G_raw`` may be negative; ``G`` is clamped at zero.  When the model
    yields no valid phase-error bound (tagged fraction exceeding the
    usable detection rate) both are set to 0.0 and ``reason`` says why.
    """

    G_raw: float
    G: float
    Q: float
    e_bit: float
    e_ph: float
    e_src_slow: float
    e_mB: float
    reason: str | None = None


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0.

    >>> binary_entropy(0.5)
    1.0
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be within [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def e_src(L: int, mu: float, nu_th: int) -> float:
    """Fraction of L-pulse blocks carrying more than ``nu_th`` photons.

    Block photon numbers are Poissonian with mean L*mu, so this is the
    upper tail P(N > nu_th) = 1 - e^{-L mu} sum_{v<=nu_th} (L mu)^v / v!.
    Evaluated through the regularized incomplete gamma function, which is
    stable for large ``nu_th`` and in both tail regimes (no factorial
    overflow, no cancellation).
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not mu >= 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if nu_th < 0:
        raise ValueError(f"nu_th must be >= 0, got {nu_th}")
    return float(gammainc(nu_th + 1, L * mu))


def e_src_slow(e_src_block: float, M: int) -> float:
    """Per-sequence tagged fraction 1 - (1 - e_src)^M over M blocks.

    A sequence is tagged as soon as any of its blocks is.  Uses
    expm1/log1p so the cancellation regime e_src * M << 1 keeps full
    relative precision.
    """
    if not 0.0 <= e_src_block <= 1.0:
        raise ValueError(f"e_src must be within [0, 1], got {e_src_block}")
    if M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M}")
    if M == 1:
        return e_src_block
    if e_src_block == 1.0:
        return 1.0
    return -math.expm1(M * math.log1p(-e_src_block))


def _silent_log_r(L: int, eta: float, mu: float, d_c: float) -> float:
    """log of the per-block no-click probability r = e^{-L eta mu} (1-d_c)^{2L}."""
    return -L * eta * mu + 2.0 * L * math.log1p(-d_c)


def _geom_sum(log_r: float, M: int) -> float:
    """sum_{m=0}^{M-1} r^m for r = exp(log_r) <= 1, exact in the r -> 1 limit.

    Closed form expm1(M log r)/expm1(log r); returns M when r == 1.  Never
    loops over M.
    """
    if log_r == 0.0:
        return float(M)
    return math.expm1(M * log_r) / math.expm1(log_r)


def detection_rate_Q(p: ProtocolParams) -> float:
    """Probability that a sequence yields a sifted detection.

    Sums over the index of the first clicking block: Q = sum_m r^m * s
    with the silent-block rate r and per-block click rate s from the
    module model.
    """
    lam = p.L * p.eta * p.mu
    s = 0.5 * lam * math.exp(-lam) + p.L * p.d_c
    return s * _geom_sum(_silent_log_r(p.L, p.eta, p.mu, p.d_c), p.M)


def bit_error_rate(p: ProtocolParams) -> float:
    """Error probability of a sifted bit.

    Signal clicks err at e_sys, dark counts at 1/2; the geometric factor
    over blocks cancels against the one in Q.  Raises when the detection
    rate is zero (no sifted bits exist).
    """
    lam = p.L * p.eta * p.mu
    signal = 0.5 * lam * math.exp(-lam)
    dark = p.L * p.d_c
    if signal + dark == 0.0:
        raise ValueError("bit error rate undefined: detection rate is zero")
    return (signal * p.e_sys + 0.5 * dark) / (signal + dark)


def e_mB(p: ProtocolParams) -> float:
    """Bound on the sifted multi-detection fraction for threshold detectors.

    Eight times the per-block rate of double-count candidates (two-photon
    arrivals, photon+dark and dark+dark coincidences over the 2L slots),
    summed over blocks like Q.  PNR detectors resolve photon number, so
    the bound is identically 0.
    """
    if p.detector is Detector.PNR:
        return 0.0
    lam = p.L * p.eta * p.mu
    two_photon = 0.0625 * lam * lam * math.exp(-lam)
    photon_dark = 0.5 * lam * math.exp(-lam) * (2 * p.L - 1) * p.d_c
    dark_dark = p.L * (2 * p.L - 1) * p.d_c * p.d_c
    per_block = two_photon + photon_dark + dark_dark
    return 8.0 * per_block * _geom_sum(_silent_log_r(p.L, p.eta, p.mu, p.d_c), p.M)


def phase_error_pnr(e_src_slow_val: float, Q: float, nu_th: int, L: int) -> float | None:
    """Phase-error bound with photon-number-resolving detectors.

    Tagged sequences (fraction e_src_slow of the detections) leak fully;
    untagged ones leak at most nu_th/(L-1).  Returns None when
    e_src_slow exceeds Q and no valid bound exists.
    """
    if Q <= 0.0:
        return None
    x = e_src_slow_val / Q
    if x > 1.0:
        return None
    return x + (1.0 - x) * (nu_th / (L - 1))


def phase_error_threshold(
    e_src_slow_val: float, Q: float, e_mB_val: float, nu_th: int, L: int
) -> float | None:
    """Phase-error bound with threshold detectors.

    Double-count candidates are discarded from the usable detections, so
    this is the PNR bound evaluated against Q - e_mB.
    """
    return phase_error_pnr(e_src_slow_val, Q - e_mB_val, nu_th, L)


def _phase_penalty(e_ph: float) -> float:
    """Privacy-amplification cost of a phase-error bound.

    h(e_ph) on [0, 1/2).  At or beyond 1/2 the bound concedes full phase
    information to the adversary and the cost saturates at one bit —
    without the saturation, h would *decrease* again and a worthless
    bound (e.g. nu_th = L - 1, where e_ph = 1 exactly) would masquerade
    as a high key rate.
    """
    return 1.0 if e_ph >= 0.5 else binary_entropy(e_ph)


def key_rate(p: ProtocolParams) -> KeyRateResult:
    """Secret-key rate per pulse slot at one operating point.

    PNR mode:        G = Q/(M L + c_d) [1 - h(e_bit) - h(e_ph)]
    Threshold mode:  G = Q/(M L + c_d) [1 - h(e_bit) - e_mB/Q - (1 - e_mB/Q) h(e_ph)]

    At e_mB = 0 the threshold formula reduces to the PNR one.  A missing
    phase-error bound is reported as G = 0 with a reason code instead of
    raising.
    """
    Q = detection_rate_Q(p)
    esl = e_src_slow(e_src(p.L, p.mu, p.nu_th), p.M)
    emb = 0.0 if p.detector is Detector.PNR else e_mB(p)

    if Q <= 0.0:
        return KeyRateResult(0.0, 0.0, Q, math.nan, math.nan, esl, emb, reason="no_detection")

    ebit = bit_error_rate(p)
    if p.detector is Detector.PNR:
        eph = phase_error_pnr(esl, Q, p.nu_th, p.L)
    else:
        eph = phase_error_threshold(esl, Q, emb, p.nu_th, p.L)
    if eph is None:
        return KeyRateResult(0.0, 0.0, Q, ebit, math.nan, esl, emb, reason="no_valid_bound")

    if p.detector is Detector.PNR:
        rate = 1.0 - binary_entropy(ebit) - _phase_penalty(eph)
    else:
        frac = emb / Q
        rate = 1.0 - binary_entropy(ebit) - frac - (1.0 - frac) * _phase_penalty(eph)
    g_raw = Q / (p.M * p.L + p.c_d) * rate
    return KeyRateResult(g_raw, max(0.0, g_raw), Q, ebit, eph, esl, emb)


def _entropy_array(x: np.ndarray) -> np.ndarray:
    """``binary_entropy`` elementwise; entries outside [0, 1] come out nan."""
    h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def rate_grid(p: ProtocolParams, mu: Sequence[float], nu_th: Sequence[int]) -> np.ndarray:
    """Clamped key rate G over a (nu_th, mu) grid at the rest of ``p``.

    ``out[i, j]`` is ``key_rate(replace(p, mu=mu[j], nu_th=nu_th[i])).G``:
    the same formulas, evaluated as numpy broadcasts, with the same zeroing
    where ``key_rate`` reports a reason and the same saturation of the
    phase penalty at e_ph >= 1/2.  numpy's vectorized exp and log may round
    differently from ``math`` in the last place, so entries agree with
    ``key_rate`` to rounding, not bit for bit.  ``p.mu`` and ``p.nu_th``
    are ignored, and ``mu`` and ``nu_th`` are not validated: they must lie
    in the domain ``ProtocolParams`` accepts for ``p``.
    """
    L, d_c, eta, M = p.L, p.d_c, p.eta, p.M
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu_th)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = L * eta * mu
        signal = 0.5 * lam * np.exp(-lam)
        dark = L * d_c
        log_r = -L * eta * mu + 2.0 * L * math.log1p(-d_c)
        geom = np.where(log_r == 0.0, float(M), np.expm1(M * log_r) / np.expm1(log_r))
        Q = (signal + dark) * geom
        ebit = (signal * p.e_sys + 0.5 * dark) / (signal + dark)

        esl = gammainc(nu + 1, L * mu)
        if M > 1:
            esl = np.where(esl == 1.0, 1.0, -np.expm1(M * np.log1p(-esl)))
        emb = 0.0  # PNR; at e_mB = 0 the threshold formulas below are the PNR ones
        if p.detector is Detector.THRESHOLD:
            two_photon = 0.0625 * lam * lam * np.exp(-lam)
            photon_dark = signal * (2 * L - 1) * d_c
            dark_dark = L * (2 * L - 1) * d_c * d_c
            emb = 8.0 * (two_photon + photon_dark + dark_dark) * geom
        usable = Q - emb
        x = esl / usable
        eph = x + (1.0 - x) * (nu / float(L - 1))
        penalty = np.where(eph >= 0.5, 1.0, _entropy_array(eph))
        frac = emb / Q
        rate = 1.0 - _entropy_array(ebit) - frac - (1.0 - frac) * penalty
        g_raw = Q / (M * L + p.c_d) * rate
    # usable > 0 implies Q > 0, since e_mB >= 0
    return np.where((usable > 0.0) & (x <= 1.0) & (g_raw > 0.0), g_raw, 0.0)
