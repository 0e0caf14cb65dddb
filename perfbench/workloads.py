"""The five benchmark workloads: seeded inputs, one round of work, checks.

A workload is built from the benchmark seed (its inputs), then runs rounds
of identical composition until the requested time has passed.  Every round
calls only public entry points: ``slowqkd.cli.main(argv)`` with ``--out``
into a scratch directory, or the library where the CLI has no command.
Outputs are kept and checked after the timed section.

With a ``Tracer`` the same round runs with spans around each call into a
module (``patches`` installs the wrappers), and ``layer_metrics`` turns the
spans into per-layer numbers.
"""

from __future__ import annotations

import csv
import json
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import slowqkd.cli
import slowqkd.optimizer
from slowqkd import DEFAULT_SCENARIO, Detector, ProtocolParams, honest_baseline, key_rate
from slowqkd.optimizer import M_CANDIDATES_DEFAULT

import checks
from tracing import Tracer, duration_s, children_s, self_seconds, span

REFS = Path(__file__).resolve().parent / "refs"
CONFIGS = Path("configs")
ROUNDS_DRAWN = 64  # rounds with distinct seeded inputs; later rounds repeat them


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_ref_csv(name: str) -> list[dict[str, str]]:
    with open(REFS / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


class Pass:
    """State of one timed or traced pass: scratch directory, tracer, outputs."""

    def __init__(self, tmp: Path, tracer: Tracer | None) -> None:
        self.tmp = tmp
        self.tracer = tracer
        self.units: list[dict] = []
        self.rounds = 0
        self.first_round_units = 0

    def out_path(self) -> str:
        return str(self.tmp / f"unit{len(self.units)}.csv")

    def cli(self, argv: list[str], job: str, **attrs) -> int:
        with span(self.tracer, "cli.main", job=job, **attrs):
            return slowqkd.cli.main(argv)

    def read_outputs(self) -> None:
        for u in self.units:
            path = Path(u.pop("path", ""))
            u["csv"] = path.read_text(encoding="utf-8") if u["rc"] == 0 and path.is_file() else ""


def ms(spans) -> list[float]:
    return [duration_s(s) * 1e3 for s in spans]


def cli_stats(tracer: Tracer, ps: Pass) -> dict:
    """Per CLI job: summed self time, call count, and CSV bytes of one round."""
    covered = children_s(tracer.spans)
    out: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s["name"] == "cli.main":
            acc = out.setdefault(s["attrs"]["job"], [0.0, 0, 0])
            acc[0] += duration_s(s) - covered.get(s["id"], 0.0)
            acc[1] += 1
    for u in ps.units[: ps.first_round_units]:
        out[u["job"]][2] += len(u["csv"].encode("utf-8"))
    return out


# ---------------------------------------------------------------------------


class Curves:
    """Optimized key-rate sweeps: ``curve`` on fig1/fig2, ``optimize`` on fig3.

    Each sweep keeps its 1e-7 ... 1 span: both endpoints of the figure's
    eta grid (1e-7 stands in for the zero-rate tail) plus one seeded eta
    from each interior stratum, given in decades above 1e-7.  One CLI call
    per eta.  An item is one optimized (eta, M) pair; each M candidate of
    ``optimize`` counts.
    """

    name = "curves"
    SWEEPS = (
        ("fig1", "curve", ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))),
        ("fig2", "curve", ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))),
        ("fig3", "optimize", ((1, 4), (4, 7))),
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.refs: dict[str, dict] = {}
        self.units: list[dict] = []
        for fig, job, strata in self.SWEEPS:
            rows = read_ref_csv(f"{fig}.csv")
            config = json.loads((CONFIGS / f"{fig}.json").read_text(encoding="utf-8"))
            grid = sorted({r["eta"] for r in rows}, key=float)
            per_decade = (len(grid) - 1) // 7
            picks = [0, *(int(rng.integers(a * per_decade, b * per_decade)) for a, b in strata), len(grid) - 1]
            if job == "curve":
                self.refs[fig] = {(r["eta"], r["M"]): r for r in rows}
                n_rows = items = len(config["M-list"])
            else:
                self.refs[fig] = {r["eta"]: r for r in rows}
                n_rows, items = 1, len(M_CANDIDATES_DEFAULT)
            for i in picks:
                self.units.append(dict(job=job, fig=fig, eta=grid[i], expected_rows=n_rows, items=items,
                                       e_sys=config["e-sys"], d_c=config["d-c"]))

    def run_round(self, r: int, ps: Pass) -> int:
        items = 0
        for u in self.units:
            path = ps.out_path()
            argv = [u["job"], "--config", str(CONFIGS / f"{u['fig']}.json"), "--eta-max", u["eta"],
                    "--eta-points", "1", "--out", path]
            rc = ps.cli(argv, u["job"])
            ps.units.append(dict(u, rc=rc, path=path))
            items += u["items"]
        return items

    def patches(self, tr: Tracer) -> list:
        opt = slowqkd.optimizer

        def zero_rate(attrs, args, result):
            attrs.update(eta=args[1], M=args[2], zero=result.result.G == 0.0)

        return [
            (slowqkd.cli, "sweep_curves", tr.wrap("optimizer.sweep_curves", slowqkd.cli.sweep_curves)),
            (slowqkd.cli, "optimize_with_M", tr.wrap("optimizer.optimize_with_M", slowqkd.cli.optimize_with_M)),
            (opt, "optimize_point", tr.wrap("optimizer.optimize_point", opt.optimize_point, zero_rate)),
            (opt, "key_rate", tr.leaf("keyrate.key_rate", opt.key_rate)),
            (opt, "replace", tr.leaf("keyrate.params", opt.replace)),
        ]

    def check(self, ps: Pass) -> list[checks.Check]:
        return checks.check_rate_units(ps.units, self.refs)

    def layer_metrics(self, tr: Tracer, ps: Pass) -> dict:
        by_id = {s["id"]: s for s in tr.spans}
        points = [s for s in tr.spans if s["name"] == "optimizer.optimize_point"]
        swept = [s for s in points if by_id[s["parent"]]["name"] == "optimizer.sweep_curves"]
        zero = [s for s in points if s["attrs"]["zero"]]
        first = ps.units[: ps.first_round_units]
        selfs = self_seconds(tr.spans)
        return {
            "optimizer.point_ms.zero_p50": statistics.median(ms(s for s in swept if s["attrs"]["zero"])),
            "optimizer.point_ms.pos_p50": statistics.median(ms(s for s in swept if not s["attrs"]["zero"])),
            "optimizer.point_ms.p95": float(np.percentile(ms(swept), 95)),
            "optimizer.with_M_ms.p50": statistics.median(
                ms(s for s in tr.spans if s["name"] == "optimizer.optimize_with_M")),
            "optimizer.zero_time_share": sum(ms(zero)) / sum(ms(points)),
            "optimizer.zero_rows": sum(
                float(row["G"]) == 0.0 for u in first for row in checks.read_csv(u["csv"])),
            "optimizer.self_share": selfs["optimizer"] / (selfs["optimizer"] + selfs["keyrate"]),
        }


class Points:
    """Scalar ``ProtocolParams(...)`` plus ``key_rate(p)`` over a seeded sample
    of the reference pool (points near the fig1/fig2 optima, both detectors,
    M = 1 ... 1e6).  An item is one construct-and-evaluate.

    A round (the whole sample once) takes about 15 ms and hundreds run in a
    pass.  On a shared machine the interpreter runs these rounds up to 1.7x
    slower while other tenants load the core, in stretches of seconds, so
    the mean over a pass moves by 20% between runs while the fastest round
    moves by a few percent.  The rate is therefore that of the fastest
    round.
    """

    name = "points"
    SAMPLE = 1024
    BEST_ROUND = True

    def __init__(self, seed: int) -> None:
        self.pool = read_ref_csv("points.csv")
        rng = np.random.default_rng([seed, 2])
        self.indices = [int(i) for i in rng.choice(len(self.pool), self.SAMPLE, replace=False)]
        self.inputs = []
        for i in self.indices:
            r = self.pool[i]
            det = Detector(r["detector"])
            kw = dict(mu=float(r["mu"]), nu_th=int(r["nu_th"]), eta=float(r["eta"]), M=int(r["M"]),
                      L=int(r["L"]), e_sys=float(r["e_sys"]), d_c=float(r["d_c"]), c_d=int(r["c_d"]),
                      detector=det)
            self.inputs.append((kw, int(det is Detector.THRESHOLD)))
        self.results: list = [None] * self.SAMPLE

    def run_round(self, r: int, ps: Pass) -> int:
        tr = ps.tracer
        if tr is None:
            make, rates = ProtocolParams, (key_rate, key_rate)
        else:
            make = tr.leaf("keyrate.params", ProtocolParams)
            rates = (tr.leaf("keyrate.key_rate.pnr", key_rate), tr.leaf("keyrate.key_rate.threshold", key_rate))
        results = self.results
        with span(tr, "bench.points_round"):
            for i, (kw, d) in enumerate(self.inputs):
                results[i] = rates[d](make(**kw))
        return self.SAMPLE

    def patches(self, tr: Tracer) -> list:
        return []

    def check(self, ps: Pass) -> list[checks.Check]:
        return checks.check_points(self.results, self.pool, self.indices)

    def layer_metrics(self, tr: Tracer, ps: Pass) -> dict:
        totals: dict[str, list[int]] = {}
        for s in tr.spans:
            for name, (n, t) in s["leaves"].items():
                acc = totals.setdefault(name, [0, 0])
                acc[0] += n
                acc[1] += t
        us = {name: t / n / 1e3 for name, (n, t) in totals.items()}
        reasons = [checks.reason_class(res.G_raw, res.reason) for res in self.results]
        return {
            "keyrate.params_us": us["keyrate.params"],
            "keyrate.key_rate_us.pnr": us["keyrate.key_rate.pnr"],
            "keyrate.key_rate_us.threshold": us["keyrate.key_rate.threshold"],
            **{f"keyrate.reason.{k}": reasons.count(k) for k in ("no_valid_bound", "no_detection", "negative")},
        }


class MonteCarlo:
    """``mc-validate`` at L = 128 over a fixed set of cases per round.

    Each case is (name, detector, mode, M, trials, L*eta*mu range); L*eta*mu
    and eta are drawn log-uniformly, and mu follows from them.  An item is
    one simulated sequence.
    """

    L = 128
    E_SYS = 0.03
    D_C = 1e-9

    def __init__(self, name: str, seed: int, stream: int, cases: tuple, eta_range: tuple[float, float]) -> None:
        self.name = name
        rng = np.random.default_rng([seed, stream])
        self.cases = cases
        self.draws = []
        for _ in range(ROUNDS_DRAWN):
            rnd = []
            for case, det, mode, M, trials, lam_range in cases:
                lam = _loguniform(rng, *lam_range)
                eta = _loguniform(rng, *eta_range)
                params = dict(mu=lam / (self.L * eta), eta=eta, L=self.L, M=M, e_sys=self.E_SYS,
                              d_c=self.D_C, detector=det)
                rnd.append((case, mode, params, trials, int(rng.integers(0, 2**31))))
            self.draws.append(rnd)

    def run_round(self, r: int, ps: Pass) -> int:
        items = 0
        for case, mode, p, trials, mc_seed in self.draws[r % ROUNDS_DRAWN]:
            path = ps.out_path()
            argv = ["mc-validate", "--mu", repr(p["mu"]), "--eta", repr(p["eta"]), "--L", str(p["L"]),
                    "--M", str(p["M"]), "--e-sys", repr(p["e_sys"]), "--d-c", repr(p["d_c"]),
                    "--detector", p["detector"], "--mode", mode, "--trials", str(trials),
                    "--seed", str(mc_seed), "--out", path]
            rc = ps.cli(argv, "mc_validate", case=case)
            ps.units.append(dict(job="mc_validate", case=case, mode=mode, params=p, trials=trials, rc=rc,
                                 path=path, index=len(ps.units)))
            items += trials
        return items

    def patches(self, tr: Tracer) -> list:
        return [(slowqkd.cli, "compare_to_analytic",
                 tr.wrap("montecarlo.compare_to_analytic", slowqkd.cli.compare_to_analytic))]

    def check(self, ps: Pass) -> list[checks.Check]:
        return checks.check_mc_units(ps.units)

    def layer_metrics(self, tr: Tracer, ps: Pass) -> dict:
        by_id = {s["id"]: s for s in tr.spans}
        busy: dict[str, float] = {}
        for s in tr.spans:
            if s["name"] == "montecarlo.compare_to_analytic":
                case = by_id[s["parent"]]["attrs"]["case"]
                busy[case] = busy.get(case, 0.0) + duration_s(s)
        out = {}
        for case, _, mode, M, _, _ in self.cases:
            units = [u for u in ps.units if u["case"] == case]
            trials = sum(u["trials"] for u in units)
            out[f"montecarlo.trials_per_s.{case}"] = trials / busy[case]
            out[f"montecarlo.slots_per_s.{case}"] = trials * M * self.L / busy[case]
            out[f"montecarlo.events_per_slot.{case}"] = statistics.fmean(
                checks.events_per_slot(u["params"]["mu"], u["params"]["eta"], u["params"]["d_c"], mode)
                for u in units)
        return out


def mc_sparse(seed: int) -> MonteCarlo:
    """Slow-basis regime: L*eta*mu ~ 1e-3, so more than 99.9% of slots are
    empty and the dense engine pays for every one of them."""
    lam = (0.8e-3, 1.25e-3)
    return MonteCarlo("mc_sparse", seed, 3, (
        ("sparse_pnr_M100", "pnr", "standard", 100, 300, lam),
        ("sparse_threshold_M100", "threshold", "standard", 100, 300, lam),
        ("sparse_pnr_M1000", "pnr", "standard", 1000, 30, lam),
        ("sparse_threshold_M1000", "threshold", "standard", 1000, 30, lam),
    ), eta_range=(1e-3, 1e-1))


def mc_busy(seed: int) -> MonteCarlo:
    """High-eta regime, L*eta*mu from 0.25 to 2: most blocks carry photons."""
    lam = (0.25, 2.0)
    return MonteCarlo("mc_busy", seed, 4, (
        ("busy_pnr", "pnr", "standard", 1, 40_000, lam),
        ("busy_threshold", "threshold", "standard", 1, 40_000, lam),
        ("busy_beamdump", "threshold", "beamdump", 1, 40_000, lam),
    ), eta_range=(0.02, 1.0))


class Attack:
    """``attack`` on the default scenario, then ``honest_baseline`` on the
    same scenario (the two halves of scripts/attack_demo.py).  An item is
    one protocol run."""

    name = "attack"
    TRIALS = 200_000
    HONEST_TRIALS = 1_000

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 5])
        self.seeds = [tuple(int(x) for x in rng.integers(0, 2**31, 2)) for _ in range(ROUNDS_DRAWN)]

    def run_round(self, r: int, ps: Pass) -> int:
        attack_seed, honest_seed = self.seeds[r % ROUNDS_DRAWN]
        path = ps.out_path()
        argv = ["attack", "--trials", str(self.TRIALS), "--seed", str(attack_seed), "--out", path]
        rc = ps.cli(argv, "attack")
        with span(ps.tracer, "attacksim.honest_baseline") as rec:
            h = honest_baseline(DEFAULT_SCENARIO, self.HONEST_TRIALS, honest_seed)
        if rec is not None:
            rec["attrs"]["rss_mb"] = peak_rss_mb()
        ps.units.append(dict(job="attack", trials=self.TRIALS, rc=rc, path=path,
                             honest=(h.trials, h.sifted_naive_total, h.sifted_modified_total)))
        return self.TRIALS + self.HONEST_TRIALS

    def patches(self, tr: Tracer) -> list:
        def rss(attrs, args, result):
            attrs.update(trials=result.trials, rss_mb=peak_rss_mb())

        return [
            (slowqkd.cli, "run_attack", tr.wrap("attacksim.run_attack", slowqkd.cli.run_attack, rss)),
            (slowqkd.cli, "analytic_success", tr.leaf("attacksim.analytic_success", slowqkd.cli.analytic_success)),
        ]

    def check(self, ps: Pass) -> list[checks.Check]:
        return checks.check_attack_units(ps.units, DEFAULT_SCENARIO.eta_nominal)

    def layer_metrics(self, tr: Tracer, ps: Pass) -> dict:
        runs = [s for s in tr.spans if s["name"] == "attacksim.run_attack"]
        honest = [s for s in tr.spans if s["name"] == "attacksim.honest_baseline"]
        return {
            "attacksim.run_attack.trials_per_s": sum(s["attrs"]["trials"] for s in runs)
            / sum(map(duration_s, runs)),
            "attacksim.honest_baseline.trials_per_s": self.HONEST_TRIALS * len(honest)
            / sum(map(duration_s, honest)),
            "attacksim.rss_after_run_attack_mb": runs[0]["attrs"]["rss_mb"],
            "attacksim.rss_after_honest_mb": honest[0]["attrs"]["rss_mb"],
        }


WORKLOADS = {"curves": Curves, "points": Points, "mc_sparse": mc_sparse, "mc_busy": mc_busy, "attack": Attack}


def run_pass(wl, seconds: float, ps: Pass) -> tuple[int, float, float]:
    """Whole rounds until ``seconds`` have passed (at least one).

    Returns (items, elapsed, items_per_s).  The rate is items over elapsed
    time, except for workloads with ``BEST_ROUND`` set: their rounds are
    milliseconds long and identical, and the fastest one is the rate (see
    ``Points``).
    """
    items = 0
    best = math.inf
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        n = wl.run_round(ps.rounds, ps)
        t_end = time.perf_counter()
        items += n
        best = min(best, (t_end - t_round) / n)
        ps.rounds += 1
        if ps.rounds == 1:
            ps.first_round_units = len(ps.units)
        elapsed = t_end - t0
        if elapsed >= seconds:
            return items, elapsed, 1.0 / best if getattr(wl, "BEST_ROUND", False) else items / elapsed
