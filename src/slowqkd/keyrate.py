"""Key-rate model for RRDPS QKD with a per-sequence (slow) basis choice.

A sequence is M blocks of L pulses measured with a single basis setting.
Bob sifts at most one bit per sequence, taken from the first block with a
detection.  The channel model is leading-order: blocks stay silent with
probability r = exp(-L*eta*mu) * (1-d_c)^(2L) and produce a sifted click
with probability s = (L*eta*mu/2) exp(-L*eta*mu) + L*d_c.  Multi-photon
emissions are handled by tagging: the fraction of blocks carrying more
than ``nu_th`` photons is treated as fully leaked, and the slow basis
choice inflates that fraction to whole-sequence scope (``e_src_slow``).

The model is written once (``_model``) over a namespace argument, in the
style of the array API standard: ``math`` for one point (``key_rate``, and the
optimizer's refinement, which reads G alone), numpy for its grid (``rate_grid``).
Only the branch points differ: quotients at a zero denominator (the
geometric sum at r = 1, e_bit and e_mB/Q at Q = 0), e_src_slow at e_src = 1,
the entropy (0 outside (0, 1) for one point, so it never raises), the
e_ph >= 1/2 saturation, gammainc (for one point scipy's compiled scalar,
``cython_special.gammainc``, its ufunc bit for bit at a tenth of the call
cost; scipy loads at the first call, so ``_detection``, the Monte Carlo and
the attack study run without it), and ``keep``, the one place that decides G.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from ._env import check_integers

__all__ = [
    "Detector",
    "ProtocolParams",
    "KeyRateResult",
    "binary_entropy",
    "e_src_slow",
    "detection_rate_Q",
    "bit_error_rate",
    "key_rate",
]


class Detector(str, enum.Enum):
    """Detector model at Bob's interferometer outputs."""

    PNR = "pnr"  # photon-number resolving
    THRESHOLD = "threshold"  # binary click/no-click


_FLOAT_MAX = sys.float_info.max
_LAM_MAX = math.sqrt(_FLOAT_MAX)  # L*mu bound: keeps lambda^2 finite, as eta <= 1


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
        check_integers(nu_th=self.nu_th, M=self.M, L=self.L)
        if self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M}")
        if self.M * self.L > _FLOAT_MAX:
            raise ValueError(f"M*L must not exceed {_FLOAT_MAX:.4g}, got M = {self.M}")
        if not 0.0 <= self.L * self.mu <= _LAM_MAX:
            raise ValueError(f"mu must be finite and >= 0, L*mu <= {_LAM_MAX:.4g}, got {self.mu}")
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


def _h(xp, x):
    """Binary entropy in bits for 0 < x < 1; the namespaces add the endpoints."""
    return -x * xp.log2(x) - (1.0 - x) * xp.log2(1.0 - x)


def _load_gammainc(xp, a, x):  # the first call of either gammainc binds both for good
    from scipy.special import cython_special, gammainc
    _SCALAR.gammainc, _ARRAY.gammainc = cython_special.gammainc, gammainc
    return xp.gammainc(a, x)


# The namespaces the model is written over.  Each carries its own branch
# points: ``quotient`` takes ``at_zero`` where its denominator vanishes,
# log1p(-1) = -inf, h(0) = h(1) = 0, and the phase penalty is one bit from
# e_ph = 1/2 on: there the bound concedes all phase information, and h would
# fall again and pass a worthless bound (e_ph = 1 at nu_th = L-1) as key.
# ``keep`` is the no-key rule: G = G_raw where a phase-error bound exists and
# G_raw > 0, else 0.
_SCALAR = SimpleNamespace(  # one operating point, with math
    exp=math.exp, expm1=math.expm1,
    log1p=lambda x: math.log1p(x) if x > -1.0 else -math.inf,
    quotient=lambda a, b, at_zero: a / b if b else at_zero,
    gammainc=lambda a, x: _load_gammainc(_SCALAR, a, x),
    entropy=lambda x: _h(math, x) if 0.0 < x < 1.0 else 0.0,
    penalty=lambda e: 1.0 if e >= 0.5 else _SCALAR.entropy(e),
    keep=lambda bound, g: g if bound and g > 0.0 else 0.0,
)
_ARRAY = SimpleNamespace(  # a (nu_th, mu) grid, with numpy under np.errstate
    exp=np.exp, expm1=np.expm1, log1p=np.log1p,
    quotient=lambda a, b, at_zero: np.where(b == 0.0, at_zero, a / b),
    gammainc=lambda a, x: _load_gammainc(_ARRAY, a, x),
    entropy=lambda x: np.where((x == 0.0) | (x == 1.0), 0.0, _h(np, x)),
    penalty=lambda e: np.where(e >= 0.5, 1.0, _ARRAY.entropy(e)),
    keep=lambda bound, g: np.where(bound & (g > 0.0), g, 0.0),
)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0.

    >>> binary_entropy(0.5)
    1.0
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be within [0, 1], got {x}")
    return _SCALAR.entropy(x)


def _e_src_slow(xp, e, M: int):
    return e if M == 1 else -xp.expm1(M * xp.log1p(-e))  # exactly 1 at e = 1


def e_src_slow(e_src_block: float, M: int) -> float:
    """Per-sequence tagged fraction 1 - (1 - e_src)^M over M blocks.

    A sequence is tagged as soon as any of its blocks is.  Uses
    expm1/log1p so the cancellation regime e_src * M << 1 keeps full
    relative precision.
    """
    check_integers(M=M)
    if not 0.0 <= e_src_block <= 1.0:
        raise ValueError(f"e_src must be within [0, 1], got {e_src_block}")
    if M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M}")
    if M > _FLOAT_MAX:
        raise ValueError(f"M must not exceed {_FLOAT_MAX:.4g}, got M = {M}")
    return _e_src_slow(_SCALAR, e_src_block, M)


def _geom_sum(xp, log_r, M: int):
    """sum_{m=0}^{M-1} r^m for r = exp(log_r) <= 1, exact in the r -> 1 limit.

    Closed form expm1(M log r)/expm1(log r); M when r == 1.  Never loops
    over M.
    """
    return xp.quotient(xp.expm1(M * log_r), xp.expm1(log_r), float(M))


def _multi_detection(lam, decay, signal, L: int, d_c: float):
    """Per-block rate of double-count candidates over the 2L slots (two
    photons, photon+dark, dark+dark); looked up by name, so tests patch it."""
    two_photon = 0.0625 * lam * lam * decay
    photon_dark = signal * (2 * L - 1) * d_c
    dark_dark = L * (2 * L - 1) * d_c * d_c
    return two_photon + photon_dark + dark_dark


def _phase_bound(x, nu_th, L: int):
    return x + (1.0 - x) * (nu_th / (L - 1))  # tagged share x leaks fully, the rest nu_th/(L-1)


def _tagged(xp, L: int, mu, nu_th):
    """The block tagged fraction P(N > nu_th) = 1 - e^{-L mu} sum_{v<=nu_th}
    (L mu)^v / v!: the regularized incomplete gamma gammainc(nu_th+1, L mu),
    stable for large nu_th and in both tails (no factorial overflow, no
    cancellation).  It depends on L, mu and nu_th alone."""
    return xp.gammainc(nu_th + 1, L * mu)


def _detection(xp, p: ProtocolParams, mu):
    """(Q, e_mB, e_bit) at ``mu`` and the rest of ``p``: the stage nu_th, c_d and gammainc skip."""
    L, M, d_c = p.L, p.M, p.d_c
    lam = L * p.eta * mu
    decay = xp.exp(-lam)
    signal = 0.5 * lam * decay  # sifted photon clicks per block
    dark = L * d_c
    geom = _geom_sum(xp, -lam + 2.0 * L * math.log1p(-d_c), M)  # r: no click in 2L slots
    Q = (signal + dark) * geom
    emb = 0.0  # PNR detectors resolve photon number
    if p.detector is Detector.THRESHOLD:
        emb = 8.0 * _multi_detection(lam, decay, signal, L, d_c) * geom
    ebit = xp.quotient(signal * p.e_sys + 0.5 * dark, signal + dark, math.nan)  # darks err at 1/2
    return Q, emb, ebit


def _model(xp, p: ProtocolParams, mu, nu_th, tagged=None):
    """The rate model at (``mu``, ``nu_th``), unvalidated, and the rest of ``p``, over ``xp``.

    Returns (Q, e_src_slow, e_mB, e_bit, bound, e_ph, G_raw, G), where
    ``bound`` says whether a phase-error bound exists and G = ``xp.keep(bound,
    G_raw)``.  Every value is computed at every point; per-point values branch
    only inside ``xp``.  e_bit is nan where Q = 0, and where no bound exists
    e_ph and G_raw mean nothing and ``keep`` gives G = 0.  Over ``_SCALAR``,
    G is ``key_rate(replace(p, mu=mu, nu_th=nu_th)).G`` bit for bit.

    ``tagged`` is ``_tagged(xp, p.L, mu, nu_th)``, computed here unless the
    caller holds it already.  e_mB is 8 times the double-count candidates,
    summed over blocks like Q (0 for PNR).  The phase bound uses x =
    e_src_slow/(Q - e_mB); none exists when Q - e_mB <= 0 or x > 1:
    ``key_rate``'s "no_valid_bound" when Q > 0 (Q <= 0 is "no_detection").
    """
    L, M, (Q, emb, ebit) = p.L, p.M, _detection(xp, p, mu)
    esl = _e_src_slow(xp, _tagged(xp, L, mu, nu_th) if tagged is None else tagged, M)
    usable = Q - emb  # double-count candidates are discarded
    x = xp.quotient(esl, usable, math.nan)
    bound = (usable > 0.0) & (x <= 1.0)  # implies Q > 0, since e_mB >= 0
    eph = _phase_bound(x, nu_th, L)
    frac = xp.quotient(emb, Q, math.nan)
    g_raw = Q / (M * L + p.c_d) * (1.0 - xp.entropy(ebit) - frac - (1.0 - frac) * xp.penalty(eph))
    return Q, esl, emb, ebit, bound, eph, g_raw, xp.keep(bound, g_raw)


def _keyed_rows(p: ProtocolParams) -> int:
    """How many nu_th rows, from 0 up, can carry key at ``p``'s L and e_sys.

    Wherever a phase-error bound exists (x <= 1, e_mB < Q), three facts
    hold.  e_ph = x + (1-x) nu_th/(L-1) >= nu_th/(L-1), and the penalty
    does not fall as e_ph grows.  e_bit is a convex mix of e_sys and 1/2,
    and h is concave with its peak at 1/2, so h(e_bit) >= h(e_sys).  With
    f = e_mB/Q in [0, 1), the rate factor is therefore
    1 - h(e_bit) - f - (1-f) penalty(e_ph) <= (1-f)(1 - h(e_sys) - penalty(nu_th/(L-1))),
    which is <= 0 once nu_th/(L-1) >= x*, where x* in [0, 1/2] solves
    h(x*) = 1 - h(e_sys).  Rows nu_th >= ceil(x* (L-1)) thus never give
    G > 0; one spare row past them absorbs rounding.  Bisection keeps the
    upper end, where h >= 1 - h(e_sys).
    """
    return min(p.L, math.ceil(_x_star(p.e_sys) * (p.L - 1)) + 2)


@lru_cache(maxsize=8)  # a sweep has one e_sys
def _x_star(e_sys: float) -> float:
    target = 1.0 - _SCALAR.entropy(e_sys)
    lo, hi = 0.0, 0.5
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _SCALAR.entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def detection_rate_Q(p: ProtocolParams) -> float:
    """Probability that a sequence yields a sifted detection.

    Sums over the index of the first clicking block: Q = sum_m r^m * s
    with the silent-block rate r and per-block click rate s from the
    module model.
    """
    return _detection(_SCALAR, p, p.mu)[0]


def bit_error_rate(p: ProtocolParams) -> float:
    """Error probability of a sifted bit.

    Signal clicks err at e_sys, dark counts at 1/2; the geometric factor
    over blocks cancels against the one in Q.  Raises when the detection
    rate is zero (no sifted bits exist).
    """
    Q, _, ebit = _detection(_SCALAR, p, p.mu)
    if Q <= 0.0:
        raise ValueError("bit error rate undefined: detection rate is zero")
    return ebit


def key_rate(p: ProtocolParams) -> KeyRateResult:
    """Secret-key rate per pulse slot at one operating point.

    PNR mode:        G = Q/(M L + c_d) [1 - h(e_bit) - h(e_ph)]
    Threshold mode:  G = Q/(M L + c_d) [1 - h(e_bit) - e_mB/Q - (1 - e_mB/Q) h(e_ph)]

    At e_mB = 0 the threshold formula reduces to the PNR one, so the model
    evaluates only the threshold one.  A missing phase-error bound is
    reported as G = 0 with a reason code instead of raising.
    """
    Q, esl, emb, ebit, bound, eph, g_raw, G = _model(_SCALAR, p, p.mu, p.nu_th)
    if bound:
        return KeyRateResult(g_raw, G, Q, ebit, eph, esl, emb)
    reason = "no_valid_bound" if Q > 0.0 else "no_detection"  # e_bit is nan where Q = 0
    return KeyRateResult(0.0, 0.0, Q, ebit, math.nan, esl, emb, reason=reason)


def rate_grid(p: ProtocolParams, mu: Sequence[float], nu_th: Sequence[int],
              tagged: np.ndarray | None = None) -> np.ndarray:
    """Clamped key rate G over a (nu_th, mu) grid at the rest of ``p``.

    ``out[i, j]`` is ``key_rate(replace(p, mu=mu[j], nu_th=nu_th[i])).G``,
    zero where ``key_rate`` reports a reason, from the same model in numpy
    broadcasts.  numpy's vectorized exp and log may round differently from
    ``math`` in the last place, so entries agree with ``key_rate`` to
    rounding, not bit for bit.  ``mu`` and ``nu_th`` replace ``p``'s and are
    not validated: they must lie in the domain ``ProtocolParams`` accepts.
    ``tagged``, if given, is the (nu_th, mu) table of ``_tagged`` at ``p.L``,
    which a sweep builds once (``optimizer``); it is used as it is.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu_th)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return _model(_ARRAY, p, mu, nu, tagged)[-1]
