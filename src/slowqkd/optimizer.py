"""Deterministic parameter optimization for the slow-basis key-rate model.

At one (eta, M) the rate is evaluated on a logarithmic mu grid times
every ``nu_th`` that can carry key, in array calls (``keyrate.rate_grid``).
Those are the rows below ceil(x* (L-1)) plus one spare, where
h(x*) = 1 - h(e_sys): from there on the untagged phase-error bound
nu_th/(L-1) alone costs every bit a sifted bit can carry, so the rows left
out hold G = 0 exactly (``keyrate._keyed_rows`` derives this).  The
``nu_th`` holding the grid maximum and its two neighbours are then refined
by golden-section search in log(mu) through the scalar model
(``keyrate._model`` over ``_SCALAR``), from the first grid pass.  ``M`` is picked
from an explicit candidate list.  No randomness is involved anywhere, so
repeated runs are bit-identical.

The grid's tagged fraction gammainc(nu_th + 1, L mu) depends on L, the mu
grid and the rows alone, so a sweep builds each chunk of that table once
and hands it to ``rate_grid``; the cache keeps two chunks (at most
2 * _GRID_CELLS floats) whatever L is, and each process builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from ._env import check_integers, fan_out
from .keyrate import (
    _ARRAY,
    _SCALAR,
    KeyRateResult,
    ProtocolParams,
    _keyed_rows,
    _model,
    _tagged,
    key_rate,
    rate_grid,
)

__all__ = [
    "M_CANDIDATES_DEFAULT",
    "Optimum",
    "CurveSpec",
    "mu_grid",
    "optimize_point",
    "optimize_with_M",
    "heuristic_M",
    "sweep_curves",
]

MU_MIN = 1e-6
MU_MAX = 1.0
POINTS_PER_DECADE = 20

# Sequence lengths {1, 2, 5} x 10^k, k = 0..6, in ascending order.
M_CANDIDATES_DEFAULT = tuple(a * 10**k for k in range(7) for a in (1, 2, 5))

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 32
_GRID_CELLS = 1 << 16  # cells per rate_grid call, so memory stays bounded for any L


@dataclass(frozen=True)
class Optimum:
    """Best operating point found for one (eta, M)."""

    eta: float
    M: int
    mu_opt: float
    nu_th_opt: int
    result: KeyRateResult


@dataclass(frozen=True)
class CurveSpec:
    """A family of key-rate curves: one per M value, swept over eta_grid."""

    base: ProtocolParams
    eta_grid: tuple[float, ...]
    M_values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.eta_grid) == 0:
            raise ValueError("eta_grid must be non-empty")
        if any(not 0.0 < e <= 1.0 for e in self.eta_grid):
            raise ValueError("eta_grid entries must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.eta_grid, self.eta_grid[1:])):
            raise ValueError("eta_grid must be strictly increasing")
        if len(self.M_values) == 0 or any(m < 1 for m in self.M_values):
            raise ValueError("M_values must be positive integers")


@lru_cache(maxsize=2, typed=True)  # typed: 1 and True, or 20 and 20.0, are not one entry
def mu_grid(points_per_decade: int = POINTS_PER_DECADE) -> tuple[float, ...]:
    """Logarithmic mu scan grid covering [MU_MIN, MU_MAX], at most
    ``_GRID_CELLS`` points so that one row fits a ``rate_grid`` call."""
    check_integers(points_per_decade=points_per_decade)
    lo = math.log10(MU_MIN)
    hi = math.log10(MU_MAX)
    most = int((_GRID_CELLS - 1) / (hi - lo))
    if not 1 <= points_per_decade <= most:
        raise ValueError(f"points_per_decade must be in [1, {most}], got {points_per_decade}")
    n = round((hi - lo) * points_per_decade)
    return tuple(10.0 ** (lo + (hi - lo) * i / n) for i in range(n + 1))


@lru_cache(maxsize=2)  # L = 4096 needs two chunks
def _tagged_chunk(L: int, points_per_decade: int, lo: int, hi: int) -> np.ndarray:
    """``keyrate._tagged`` for rows lo..hi-1 over the mu grid, read-only."""
    table = _tagged(_ARRAY, L, np.asarray(mu_grid(points_per_decade)), np.arange(lo, hi)[:, None])
    table.flags.writeable = False
    return table


def _best_mu(
    base: ProtocolParams, nu_th: int, grid: tuple[float, ...], best_i: int, best_g: float
) -> tuple[float, float]:
    """Maximize clamped G over mu at one nu_th: golden-section in log(mu) on the scalar ``_model``.

    ``best_i`` is the index of the row's first maximum on ``grid`` and
    ``best_g`` its value; the search brackets it by the two neighbouring
    grid points.  Returns (G, mu); ties keep the smaller mu.
    """

    def g(logmu: float) -> float:
        return _model(_SCALAR, base, 10.0**logmu, nu_th)[-1]

    best_mu = grid[best_i]
    a = math.log10(grid[max(best_i - 1, 0)])
    b = math.log10(grid[min(best_i + 1, len(grid) - 1)])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(_REFINE_ITERS):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        for gx, logmu in ((gc, c), (gd, d)):
            if gx > best_g:
                best_g, best_mu = gx, 10.0**logmu
    return best_g, best_mu


def optimize_point(
    base: ProtocolParams,
    eta: float,
    M: int,
    *,
    points_per_decade: int = POINTS_PER_DECADE,
) -> Optimum:
    """Maximize the clamped key rate over (mu, nu_th) at one (eta, M).

    Evaluates G on the whole mu grid x nu_th = 0..min(L-1, ceil(x* (L-1)) + 1)
    with ``rate_grid``, where h(x*) = 1 - h(e_sys): every later row has
    G = 0 at every mu, so the result is the one over all L rows.  Takes
    the nu_th holding the largest grid value (ties prefer the smaller
    nu_th, then the smaller mu).  That nu_th and its two neighbours (up to
    L-1) are refined in mu by golden-section search, and the best of the
    three wins, ties again to the smaller nu_th.  When no grid point has a
    positive rate the reported point sits at the grid boundaries
    (mu = MU_MIN, nu_th = 0) with G = 0.
    """
    base = replace(base, eta=eta, M=M)  # validates eta and M, which rate_grid does not
    grid = mu_grid(points_per_decade)
    chunk = max(1, _GRID_CELLS // len(grid))
    keyed = _keyed_rows(base)
    peak_i: list[int] = []  # per keyed row: the index of its first maximum on the grid
    peak_g: list[float] = []  # and that maximum
    for lo in range(0, keyed, chunk):
        hi = min(lo + chunk, keyed)
        rows = rate_grid(base, grid, range(lo, hi), _tagged_chunk(base.L, points_per_decade, lo, hi))
        peak_i += rows.argmax(axis=1).tolist()
        peak_g += rows.max(axis=1).tolist()
    best_nu, best_mu = int(np.argmax(peak_g)), grid[0]  # first maximum: smaller nu_th
    if peak_g[best_nu] > 0.0:
        nus = range(max(best_nu - 1, 0), min(best_nu + 2, base.L))
        # a row at or past ``keyed`` holds G = 0 at every mu
        peaks = [(peak_i[nu], peak_g[nu]) if nu < keyed else (0, 0.0) for nu in nus]
        refined = [(*_best_mu(base, nu, grid, *peak), nu) for nu, peak in zip(nus, peaks)]
        _, best_mu, best_nu = max(refined, key=lambda t: t[0])  # first maximum: smaller nu_th
    final = key_rate(replace(base, mu=best_mu, nu_th=best_nu))
    return Optimum(eta=eta, M=M, mu_opt=best_mu, nu_th_opt=best_nu, result=final)


def optimize_with_M(
    base: ProtocolParams,
    eta: float,
    M_candidates: tuple[int, ...] = M_CANDIDATES_DEFAULT,
    *,
    points_per_decade: int = POINTS_PER_DECADE,
) -> Optimum:
    """Best Optimum across candidate sequence lengths (ties keep the smaller M)."""
    if len(M_candidates) == 0:
        raise ValueError("M_candidates must be non-empty")
    optima = (optimize_point(base, eta, M, points_per_decade=points_per_decade)
              for M in sorted(M_candidates))
    return max(optima, key=lambda o: o.result.G)  # first maximum: the smaller M


def heuristic_M(L: int, c_d: float) -> int:
    """Sequence length balancing dead-time overhead against sequence cost.

    round(c_d / L) (banker's rounding), at least 1: make the M*L pulses of
    a sequence comparable to the c_d pulses lost to dead time.
    """
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if c_d < 0:
        raise ValueError(f"c_d must be >= 0, got {c_d}")
    return max(1, round(c_d / L))


def sweep_curves(
    spec: CurveSpec, *, points_per_decade: int = POINTS_PER_DECADE
) -> list[Optimum]:
    """Optimize every (M, eta) point of the spec, in (M, eta) lexicographic order.

    Points are independent.  With QKD_THREADS > 1, ``_env.fan_out`` spreads
    them over a process pool if the first point's cost says that pays for
    the workers' start-up.  The output does not depend on where a point ran.
    """
    points = [(spec.base, eta, M) for M in sorted(spec.M_values) for eta in spec.eta_grid]
    return list(fan_out(partial(optimize_point, points_per_decade=points_per_decade),
                        points, len(points)))
