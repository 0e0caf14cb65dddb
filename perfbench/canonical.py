"""Canonical-point probes: the rows of the ROADMAP baseline table, measured.

Each probe times one public call at a fixed input and is reported next to
the value the ROADMAP baseline quotes for it (single runs on 2 vCPUs,
``QKD_THREADS`` unset, taken before this benchmark existed).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import slowqkd.optimizer
from slowqkd import (
    DEFAULT_SCENARIO,
    Detector,
    McConfig,
    ProtocolParams,
    compare_to_analytic,
    key_rate,
    run_attack,
)
from slowqkd.optimizer import optimize_point, optimize_with_M

from tracing import patched

# name -> (ROADMAP value, unit)
ROADMAP = {
    "keyrate.canonical.key_rate_us": (8.5, "us"),
    "keyrate.canonical.params_us": (7.5, "us"),
    "optimizer.canonical_ms.eta1e-7_M1": (336.0, "ms"),
    "optimizer.canonical_ms.eta1e-3_M1000": (41.0, "ms"),
    "optimizer.canonical_ms.eta1_M1": (26.0, "ms"),
    "optimizer.canonical_ms.eta1e-2_M1e6": (17.0, "ms"),
    "optimizer.canonical_ms.with_M_eta1e-2": (798.0, "ms"),
    "optimizer.canonical_evals.eta1e-7_M1": (19_841, "count"),
    "optimizer.canonical_evals.eta1e-3_M1000": (2_171, "count"),
    "optimizer.canonical_evals.eta1_M1": (1_396, "count"),
    "optimizer.canonical_evals.eta1e-2_M1e6": (931, "count"),
    "optimizer.canonical_evals.with_M_eta1e-2": (34_896, "count"),
    # mc-validate, 1e7 trials at L=8, M=1 in 13.9 s
    "montecarlo.canonical.slots_per_s": (8e7 / 13.9, "1/s"),
    "attacksim.canonical.trials_per_s": (134_000.0, "1/s"),
}

_PNR = ProtocolParams(mu=0.1, nu_th=0, eta=1.0)  # the fig1 protocol: L=128, e_sys=0.03, d_c=1e-9
_THRESHOLD_DEAD = replace(_PNR, detector=Detector.THRESHOLD, c_d=128_000)  # fig3
_OPTIMIZER_POINTS = {
    "eta1e-7_M1": lambda: optimize_point(_PNR, 1e-7, 1),
    "eta1e-3_M1000": lambda: optimize_point(_PNR, 1e-3, 1000),
    "eta1_M1": lambda: optimize_point(_PNR, 1.0, 1),
    "eta1e-2_M1e6": lambda: optimize_point(_PNR, 1e-2, 1_000_000),
    "with_M_eta1e-2": lambda: optimize_with_M(_THRESHOLD_DEAD, 1e-2),
}
REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_us(fn, calls: int = 20_000) -> float:
    def batch():
        for _ in range(calls):
            fn()

    return _median_time(batch, 5) / calls * 1e6


def run() -> dict[str, float]:
    p = ProtocolParams(mu=0.01, nu_th=4, eta=1e-3, M=1000)
    out = {
        "keyrate.canonical.key_rate_us": _per_call_us(lambda: key_rate(p)),
        "keyrate.canonical.params_us": _per_call_us(lambda: replace(p, mu=0.0101)),
    }
    for name, fn in _OPTIMIZER_POINTS.items():
        out[f"optimizer.canonical_ms.{name}"] = _median_time(fn) * 1e3
    opt = slowqkd.optimizer
    for name, fn in _OPTIMIZER_POINTS.items():
        calls = [0]

        def counted(params, *args, **kwargs):
            calls[0] += 1
            return key_rate(params, *args, **kwargs)

        with patched([(opt, "key_rate", counted)]):
            fn()
        out[f"optimizer.canonical_evals.{name}"] = calls[0]

    mc = McConfig(params=ProtocolParams(mu=0.01, nu_th=0, eta=0.05, M=1, L=8, d_c=0.0), trials=400_000, seed=101)
    out["montecarlo.canonical.slots_per_s"] = mc.trials * 8 / _median_time(lambda: compare_to_analytic(mc))
    trials = 50_000
    out["attacksim.canonical.trials_per_s"] = trials / _median_time(lambda: run_attack(DEFAULT_SCENARIO, trials, 42))
    return out
