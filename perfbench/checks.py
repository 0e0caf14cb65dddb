"""Correctness checks on the benchmark's outputs.

Each check compares a program output with something the program did not
compute in this run: committed reference rows (see ``refs/PROVENANCE.json``)
or the exact probabilities of the random process the simulators sample.
An exact implementation passes every check; a wrong one fails some.  The
checks never use the leading-order analytic model, which is off by far
more than the sampling error at the workloads' parameters.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from slowqkd import Detector, ProtocolParams, key_rate

# Optimizer result vs reference: the acceptance suite's brute-force tolerance.
G_REL_TOL = 5e-3
# Re-evaluating key_rate at a row's own (mu_opt, nu_th_opt), and the points
# workload against its reference pool: same formulas, so only rounding.
RATE_REL_TOL = 1e-9
MC_Z_MAX = 5.0
ATTACK_Z_MAX = 4.0
HONEST_Z_MAX = 5.0

RATE_FIELDS = ("Q", "e_bit", "e_ph", "e_src_slow", "e_mB", "G_raw", "G")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def fail_frac(checks: list[Check]) -> float:
    """Share of failed checks; a run that checked nothing counts as failed."""
    if not checks:
        return 1.0
    return sum(not c.ok for c in checks) / len(checks)


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _z(observed: float, mean: float, var: float) -> float:
    if var <= 0.0:
        return 0.0 if observed == mean else math.inf
    return (observed - mean) / math.sqrt(var)


def reason_class(G_raw: float, reason: str | None) -> str:
    """The reason code, with unflagged results split by the sign of G_raw."""
    if reason is not None:
        return reason
    return "positive" if G_raw > 0.0 else "negative"


# ---------------------------------------------------------------------------
# curves: optimized rate rows


def _reevaluate(row: dict[str, str], e_sys: float, d_c: float) -> dict[str, float]:
    res = key_rate(
        ProtocolParams(
            mu=float(row["mu_opt"]),
            nu_th=int(row["nu_th_opt"]),
            eta=float(row["eta"]),
            M=int(row["M"]),
            L=int(row["L"]),
            e_sys=e_sys,
            d_c=d_c,
            c_d=float(row["c_d"]),
            detector=Detector(row["detector"]),
        )
    )
    return {f: getattr(res, f) for f in RATE_FIELDS}


def _check_rate_row(name: str, row: dict[str, str], ref: dict[str, str] | None, unit: dict) -> Check:
    if ref is None:
        return Check(name, False, "no reference row for this (eta, M)")
    g, g_ref = float(row["G"]), float(ref["G"])
    if g_ref == 0.0 and g != 0.0:
        return Check(name, False, f"G={g!r}, reference row has G=0")
    if g_ref > 0.0 and not abs(g - g_ref) <= G_REL_TOL * g_ref:
        return Check(name, False, f"G={g!r} vs reference {g_ref!r} ({(g - g_ref) / g_ref:+.3%})")
    again = _reevaluate(row, unit["e_sys"], unit["d_c"])
    for f in RATE_FIELDS:
        if not _close(float(row[f]), again[f], RATE_REL_TOL):
            return Check(name, False, f"{f}={row[f]} but key_rate at the row's point gives {again[f]!r}")
    return Check(name, True)


def check_rate_units(units: list[dict], refs: dict[str, dict]) -> list[Check]:
    """Rows of ``curve`` / ``optimize`` runs against the reference sweeps.

    ``units`` hold ``fig``, ``eta`` (the string passed to the CLI), the
    sweep's ``e_sys`` and ``d_c`` (the rows do not carry them),
    ``expected_rows``, ``rc`` and ``csv``; ``refs[fig]`` maps (eta, M) for
    curve sweeps, or eta alone for the M-choosing sweep, to reference rows.
    """
    checks = []
    for u in units:
        base = f"{u['fig']} eta={u['eta']}"
        rows = read_csv(u["csv"]) if u["rc"] == 0 else []
        if len(rows) != u["expected_rows"] or any(r["eta"] != u["eta"] for r in rows):
            checks.append(Check(base, False, f"exit {u['rc']}, {len(rows)} rows, expected {u['expected_rows']}"))
            continue
        ref = refs[u["fig"]]
        for row in rows:
            key = row["eta"] if u["fig"] == "fig3" else (row["eta"], row["M"])
            checks.append(_check_rate_row(f"{base} M={row['M']}", row, ref.get(key), u))
    return checks


# ---------------------------------------------------------------------------
# points: scalar key_rate against the reference pool


def check_points(results: list, pool: list[dict[str, str]], indices: list[int]) -> list[Check]:
    checks = []
    for res, i in zip(results, indices, strict=True):
        ref = pool[i]
        name = f"point {i}"
        want = reason_class(float(ref["G_raw"]), ref["reason"] or None)
        got = reason_class(res.G_raw, res.reason)
        if got != want:
            checks.append(Check(name, False, f"reason {got}, reference {want}"))
            continue
        bad = [f for f in RATE_FIELDS if not _close(getattr(res, f), float(ref[f]), RATE_REL_TOL)]
        checks.append(Check(name, not bad, f"differs in {', '.join(bad)}" if bad else ""))
    return checks


# ---------------------------------------------------------------------------
# Monte Carlo: exact probabilities of the simulated process
#
# Per pulse slot the simulator sends Poisson(mu*eta) photons to Bob; half
# reach a valid slot, where each lands on the wrong detector with
# probability e_sys, and one dark count fires with probability d_c on a
# random detector (beam dump: half the photons are absorbed, a quarter go
# to each detector, and each detector has its own dark count).  Blocks are
# independent, so every rate below is a closed form.


def mc_exact_standard(
    mu: float, eta: float, L: int, M: int, e_sys: float, d_c: float, detector: str
) -> tuple[float, float]:
    """(P(sequence accepted), P(bit error | accepted)) in standard mode."""
    a = mu * eta / 2.0  # valid photons per slot
    silent_slot = math.exp(-a) * (1.0 - d_c)
    q0 = silent_slot**L  # no event anywhere in a block
    if detector == Detector.PNR.value:
        # accepted block: exactly one event, a photon or a dark count
        photon = L * a * math.exp(-a) * (1.0 - d_c) * silent_slot ** (L - 1)
        dark = L * math.exp(-a) * d_c * silent_slot ** (L - 1)
        q1 = photon + dark
        e_bit = (photon * e_sys + 0.5 * dark) / q1 if q1 > 0.0 else math.nan
    else:
        # accepted block: one detector clicks (any number of times), the other
        # stays silent; the error is decided at that detector's first click,
        # which sees the same per-slot odds wherever it falls
        right, wrong = a * (1.0 - e_sys), a * e_sys
        one_silent = 0.5 * (math.exp(-right) + math.exp(-wrong)) * (1.0 - d_c / 2.0)
        q1 = 2.0 * (one_silent**L - q0)
        p_ok = 0.5 * math.exp(-wrong) * ((1.0 - d_c) * -math.expm1(-right) + d_c / 2.0)
        p_err = 0.5 * math.exp(-right) * ((1.0 - d_c) * -math.expm1(-wrong) + d_c / 2.0)
        e_bit = p_err / (p_ok + p_err) if p_ok + p_err > 0.0 else math.nan
    return q1 * _geom(q0, M), e_bit


def mc_exact_double(mu: float, eta: float, L: int, M: int, d_c: float) -> float:
    """P(both detectors first click in the same block) in beam-dump mode."""
    w = (math.exp(-mu * eta / 4.0) * (1.0 - d_c)) ** L  # one detector silent for a block
    return (1.0 - w) ** 2 * _geom(w * w, M)


def _geom(r: float, M: int) -> float:
    """sum_{m<M} r^m for 0 <= r <= 1."""
    if r == 1.0:
        return float(M)
    if r == 0.0:
        return 1.0
    return math.expm1(M * math.log(r)) / math.expm1(math.log(r))


def events_per_slot(mu: float, eta: float, d_c: float, mode: str) -> float:
    """Expected detector events per pulse slot, from the inputs alone."""
    return mu * eta / 2.0 + (2.0 * d_c if mode == "beamdump" else d_c)


def _count(value: float, n: int) -> int | None:
    """The integer k with k/n == value, or None when there is none."""
    k = round(value * n)
    return k if abs(k - value * n) <= 1e-6 * max(1.0, value * n) else None


def check_mc_units(units: list[dict]) -> list[Check]:
    """``mc-validate`` outputs, pooled per case, against the exact process.

    ``units`` hold ``case``, ``mode``, ``params`` (mu, eta, L, M, e_sys, d_c,
    detector), ``trials``, ``rc`` and ``csv``.  The counts are recovered from
    the empirical rates; each case gets one z-test per reported quantity.
    """
    checks = []
    pooled: dict[tuple[str, str], list[float]] = {}

    def add(case: str, qty: str, k: int, mean: float, var: float) -> None:
        acc = pooled.setdefault((case, qty), [0.0, 0.0, 0.0])
        acc[0] += k
        acc[1] += mean
        acc[2] += var

    for u in units:
        name = f"{u['case']} unit {u['index']}"
        rows = {r["quantity"]: r for r in read_csv(u["csv"])} if u["rc"] == 0 else {}
        p, n = u["params"], u["trials"]
        if u["mode"] == "beamdump":
            k = _count(float(rows["e_mB"]["empirical"]) / 8.0, n) if set(rows) == {"e_mB"} else None
            checks.append(Check(name, k is not None, "" if k is not None else "bad e_mB row"))
            if k is not None:
                pd = mc_exact_double(p["mu"], p["eta"], p["L"], p["M"], p["d_c"])
                add(u["case"], "double", k, n * pd, n * pd * (1.0 - pd))
            continue
        ok = set(rows) == {"Q", "e_bit"}
        det = _count(float(rows["Q"]["empirical"]), n) if ok else None
        err = None
        if det == 0:
            err = 0
        elif det is not None:
            err = _count(float(rows["e_bit"]["empirical"]), det)
        good = det is not None and err is not None
        checks.append(Check(name, good, "" if good else "bad Q/e_bit rows"))
        if good:
            q, e = mc_exact_standard(**p)
            add(u["case"], "Q", det, n * q, n * q * (1.0 - q))
            if det:
                add(u["case"], "e_bit", err, det * e, det * e * (1.0 - e))
    for (case, qty), (k, mean, var) in sorted(pooled.items()):
        z = _z(k, mean, var)
        checks.append(Check(f"{case} {qty}", abs(z) <= MC_Z_MAX, f"count {k:.0f}, exact mean {mean:.1f}, z={z:+.2f}"))
    return checks


# ---------------------------------------------------------------------------
# attack: intercept-resend runs and the honest baseline


def _basis_moments(p_z: float) -> tuple[float, float]:
    """E[q] and E[q^2] for the basis-match probability q of one sequence."""
    return p_z**2 + (1.0 - p_z) ** 2, p_z**3 + (1.0 - p_z) ** 3


def check_attack_units(units: list[dict], eta_nominal: float) -> list[Check]:
    """``attack`` CSV rows plus ``honest_baseline`` totals.

    ``units`` hold ``trials``, ``rc``, ``csv`` and ``honest`` (trials,
    naive_total, modified_total).  Per unit: the analytic column, zero
    bits under modified sifting, and honest modified <= naive.  Pooled:
    the success frequency within 4 sigma of the analytic probability, and
    the honest and attacked yields against their exact means.
    """
    checks = []
    succ = [0, 0.0, 0.0]
    naive = [0, 0.0, 0.0]
    h_naive = [0, 0.0, 0.0]
    h_mod = [0, 0.0, 0.0]
    for i, u in enumerate(units):
        rows = read_csv(u["csv"]) if u["rc"] == 0 else []
        if len(rows) != 1:
            checks.append(Check(f"attack unit {i}", False, f"exit {u['rc']}, {len(rows)} rows"))
            continue
        r = rows[0]
        p_z, M, n_seq = float(r["p_z"]), int(r["M"]), int(r["n_sequences"])
        nm, nc, n = int(r["n_measured"]), int(r["n_clean"]), int(r["trials"])
        p = p_z**nm * (1.0 - p_z) ** nc
        checks.append(
            Check(f"attack unit {i} analytic", n == u["trials"] and _close(float(r["analytic_success"]), p, 1e-12),
                  f"analytic {r['analytic_success']} vs {p!r}, trials {n}")
        )
        checks.append(
            Check(f"attack unit {i} modified sifting", float(r["sifted_modified_mean"]) == 0.0,
                  f"sifted_modified_mean={r['sifted_modified_mean']}")
        )
        k = _count(float(r["empirical_success"]), n)
        bits = _count(float(r["sifted_naive_mean"]), n)
        checks.append(Check(f"attack unit {i} counts", k is not None and bits is not None, "non-integer totals"))
        pi, kappa = _basis_moments(p_z)
        nf = nm + nc
        if k is not None:
            succ[0] += k
            succ[1] += n * p
            succ[2] += n * p * (1.0 - p)
        if bits is not None:
            naive[0] += bits
            naive[1] += n * nf * M * pi
            naive[2] += n * nf * (M * p_z * (1.0 - p_z) + M * M * (kappa - pi * pi))

        h_n, h_naive_tot, h_mod_tot = u["honest"]
        checks.append(
            Check(f"honest unit {i}", 0 <= h_mod_tot <= h_naive_tot, f"modified {h_mod_tot} > naive {h_naive_tot}")
        )
        eta = eta_nominal
        h_naive[0] += h_naive_tot
        h_naive[1] += h_n * n_seq * M * eta * pi
        h_naive[2] += h_n * n_seq * (M * eta * pi - M * eta * eta * kappa + M * M * eta * eta * (kappa - pi * pi))
        single = M * eta * (1.0 - eta) ** (M - 1) * pi
        h_mod[0] += h_mod_tot
        h_mod[1] += h_n * n_seq * single
        h_mod[2] += h_n * n_seq * single * (1.0 - single)
    for name, (k, mean, var), zmax in (
        ("attack success", succ, ATTACK_Z_MAX),
        ("attack naive yield", naive, HONEST_Z_MAX),
        ("honest naive yield", h_naive, HONEST_Z_MAX),
        ("honest modified yield", h_mod, HONEST_Z_MAX),
    ):
        z = _z(k, mean, var)
        checks.append(Check(name, abs(z) <= zmax, f"total {k}, exact mean {mean:.1f}, z={z:+.2f}"))
    return checks
