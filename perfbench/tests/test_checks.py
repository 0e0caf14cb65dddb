"""The benchmark's checker against doctored outputs.

Nothing here runs the program's sweeps or simulators: each test builds the
CSV text a correct run would write, confirms the checker accepts it, then
doctors one value and confirms that fail_frac rises.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import checks
from slowqkd import DEFAULT_SCENARIO, Detector, ProtocolParams, bit_error_rate, detection_rate_Q, key_rate
from slowqkd.cli import ATTACK_HEADER, MC_HEADER, RATE_HEADER
from workloads import REFS


def _ref_rows(fig: str) -> list[dict[str, str]]:
    with open(REFS / f"{fig}.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rate_unit(fig: str, rows: list[dict[str, str]]) -> dict:
    text = "\n".join([RATE_HEADER, *(",".join(r[k] for k in RATE_HEADER.split(",")) for r in rows)]) + "\n"
    return dict(fig=fig, eta=rows[0]["eta"], e_sys=0.03, d_c=1e-9, expected_rows=len(rows), rc=0, csv=text)


def _rate_refs() -> dict:
    return {
        "fig1": {(r["eta"], r["M"]): r for r in _ref_rows("fig1")},
        "fig3": {r["eta"]: r for r in _ref_rows("fig3")},
    }


def _fig1_unit(eta_index: int) -> list[dict[str, str]]:
    rows = _ref_rows("fig1")
    eta = sorted({r["eta"] for r in rows}, key=float)[eta_index]
    return [dict(r) for r in rows if r["eta"] == eta]


def test_reference_curve_rows_pass():
    refs = _rate_refs()
    units = [_rate_unit("fig1", _fig1_unit(0)), _rate_unit("fig1", _fig1_unit(30))]
    fig3 = [r for r in _ref_rows("fig3") if float(r["G"]) > 0.0][:1]
    units.append(_rate_unit("fig3", fig3))
    assert checks.fail_frac(checks.check_rate_units(units, refs)) == 0.0


def test_curve_row_with_G_off_by_one_percent_fails():
    rows = _fig1_unit(30)
    rows[3]["G"] = repr(float(rows[3]["G"]) * 1.01)
    result = checks.check_rate_units([_rate_unit("fig1", rows)], _rate_refs())
    assert [c.ok for c in result].count(False) == 1
    assert checks.fail_frac(result) > 0.0


def test_curve_row_within_tolerance_but_inconsistent_fails():
    # G within 0.5% of the reference, but not what key_rate gives at the
    # row's own (mu_opt, nu_th_opt)
    rows = _fig1_unit(30)
    rows[2]["G"] = repr(float(rows[2]["G"]) * 1.001)
    assert checks.fail_frac(checks.check_rate_units([_rate_unit("fig1", rows)], _rate_refs())) > 0.0


def test_zero_rate_row_that_turns_positive_fails():
    rows = _fig1_unit(0)
    assert float(rows[0]["G"]) == 0.0
    rows[0]["G"] = "1e-12"
    assert checks.fail_frac(checks.check_rate_units([_rate_unit("fig1", rows)], _rate_refs())) > 0.0


def test_missing_rows_fail():
    unit = _rate_unit("fig1", _fig1_unit(30)[:-1])
    unit["expected_rows"] = 7
    assert checks.fail_frac(checks.check_rate_units([unit], _rate_refs())) == 1.0


def test_points_reason_or_value_mismatch_fails():
    with open(REFS / "points.csv", encoding="utf-8", newline="") as fh:
        pool = list(csv.DictReader(fh))
    indices = list(range(64))
    results = [
        key_rate(ProtocolParams(mu=float(r["mu"]), nu_th=int(r["nu_th"]), eta=float(r["eta"]), M=int(r["M"]),
                                d_c=float(r["d_c"]), detector=Detector(r["detector"])))
        for r in pool[:64]
    ]
    assert checks.fail_frac(checks.check_points(results, pool, indices)) == 0.0
    doctored = list(results)
    doctored[5] = replace(results[5], Q=results[5].Q * (1 + 1e-6))
    assert checks.fail_frac(checks.check_points(doctored, pool, indices)) > 0.0


# ---------------------------------------------------------------------------
# Monte Carlo


def _mc_unit(case: str, mode: str, params: dict, trials: int, probs: tuple, seed: int) -> dict:
    """An mc-validate CSV whose counts are drawn from ``probs``."""
    rng = np.random.default_rng(seed)
    if mode == "beamdump":
        k = int(rng.binomial(trials, probs[0]))
        rows = [f"e_mB,0.0,{8.0 * k / trials!r},0.0,0.0"]
    else:
        det = int(rng.binomial(trials, probs[0]))
        err = int(rng.binomial(det, probs[1]))
        rows = [f"Q,0.0,{det / trials!r},0.0,0.0", f"e_bit,0.0,{err / det!r},0.0,0.0"]
    return dict(case=case, mode=mode, params=params, trials=trials, rc=0, index=seed,
                csv="\n".join([MC_HEADER, *rows]) + "\n")


BUSY = dict(mu=0.256 / 128 / 0.2, eta=0.2, L=128, M=1, e_sys=0.03, d_c=1e-9)


@pytest.mark.parametrize("detector", ["pnr", "threshold"])
def test_mc_counts_from_the_exact_process_pass(detector):
    p = {**BUSY, "detector": detector}
    units = [_mc_unit("busy", "standard", p, 40_000, checks.mc_exact_standard(**p), s) for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(units)) == 0.0


@pytest.mark.parametrize("detector", ["pnr", "threshold"])
def test_mc_counts_from_the_leading_order_model_fail(detector):
    p = {**BUSY, "detector": detector}
    model = ProtocolParams(nu_th=0, detector=Detector(detector), **BUSY)
    probs = (detection_rate_Q(model), bit_error_rate(model))
    units = [_mc_unit("busy", "standard", p, 40_000, probs, s) for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(units)) > 0.0


def test_mc_sparse_counts_with_wrong_block_count_fail():
    # M = 100 simulated, but counts drawn as if M = 300
    p = dict(mu=1e-3 / 128 / 0.01, eta=0.01, L=128, M=100, e_sys=0.03, d_c=1e-9, detector="pnr")
    wrong = checks.mc_exact_standard(**{**p, "M": 300})
    units = [_mc_unit("sparse", "standard", p, 600, wrong, s) for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(units)) > 0.0
    right = checks.mc_exact_standard(**p)
    units = [_mc_unit("sparse", "standard", p, 600, right, s) for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(units)) == 0.0


def test_beamdump_doubles_from_the_wrong_process_fail():
    p = dict(mu=1.0 / 128 / 0.3, eta=0.3, L=128, M=1, d_c=1e-9)
    exact = checks.mc_exact_double(**p)
    ok = [_mc_unit("dump", "beamdump", {**p, "e_sys": 0.03, "detector": "threshold"}, 40_000, (exact,), s)
          for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(ok)) == 0.0
    # photons split 1/2 per detector instead of 1/4: the dump arm left open
    wrong = checks.mc_exact_double(**{**p, "mu": 2.0 * p["mu"]})
    bad = [_mc_unit("dump", "beamdump", {**p, "e_sys": 0.03, "detector": "threshold"}, 40_000, (wrong,), s)
           for s in range(4)]
    assert checks.fail_frac(checks.check_mc_units(bad)) > 0.0


def test_exact_threshold_rates_reduce_to_pnr_without_coincidences():
    # with a single event per block at most, threshold and PNR sift alike
    p = dict(mu=1e-9, eta=1e-3, L=8, M=3, e_sys=0.03, d_c=0.0)
    q_pnr, e_pnr = checks.mc_exact_standard(**p, detector="pnr")
    q_thr, e_thr = checks.mc_exact_standard(**p, detector="threshold")
    assert q_thr == pytest.approx(q_pnr, rel=1e-6)
    assert e_thr == pytest.approx(e_pnr, rel=1e-6)


# ---------------------------------------------------------------------------
# attack


def _attack_unit(seed: int, modified_mean: float = 0.0, trials: int = 200_000) -> dict:
    """An attack row plus honest totals drawn from the exact distributions."""
    sc = DEFAULT_SCENARIO
    rng = np.random.default_rng(seed)
    p = sc.p_z**sc.n_measured * (1.0 - sc.p_z) ** sc.n_clean
    k = int(rng.binomial(trials, p))
    nf = sc.n_measured + sc.n_clean
    z = rng.random((trials, nf)) < sc.p_z
    bits = int(rng.binomial(sc.M, np.where(z, sc.p_z, 1.0 - sc.p_z)).sum())
    row = [repr(sc.p_z), str(sc.M), str(sc.n_sequences), str(sc.n_measured), str(sc.n_clean), str(trials),
           repr(p), repr(k / trials), "0.0", repr(bits / trials), repr(modified_mean)]
    h_trials = 200
    det = rng.binomial(sc.M, sc.eta_nominal, (h_trials, sc.n_sequences))
    alice_z = rng.random((h_trials, sc.n_sequences)) < sc.p_z
    matched = rng.binomial(det, np.where(alice_z, sc.p_z, 1.0 - sc.p_z))
    honest = (h_trials, int(matched.sum()), int(matched[det == 1].sum()))
    return dict(trials=trials, rc=0, csv=f"{ATTACK_HEADER}\n{','.join(row)}\n", honest=honest)


def test_attack_output_from_the_exact_process_passes():
    units = [_attack_unit(s) for s in range(3)]
    assert checks.fail_frac(checks.check_attack_units(units, DEFAULT_SCENARIO.eta_nominal)) == 0.0


def test_attack_with_nonzero_modified_sifting_fails():
    units = [_attack_unit(0), _attack_unit(1, modified_mean=0.5), _attack_unit(2)]
    result = checks.check_attack_units(units, DEFAULT_SCENARIO.eta_nominal)
    assert [c.name for c in result if not c.ok] == ["attack unit 1 modified sifting"]


def test_honest_modified_above_naive_fails():
    unit = _attack_unit(0)
    trials, naive, _ = unit["honest"]
    unit["honest"] = (trials, naive, naive + 1)
    assert checks.fail_frac(checks.check_attack_units([unit], DEFAULT_SCENARIO.eta_nominal)) > 0.0


def test_attack_success_off_by_many_sigma_fails():
    unit = _attack_unit(0)
    row = checks.read_csv(unit["csv"])[0]
    p = float(row["analytic_success"])
    shifted = round((p + 6.0 * math.sqrt(p * (1.0 - p) / unit["trials"])) * unit["trials"]) / unit["trials"]
    unit["csv"] = unit["csv"].replace(row["empirical_success"], repr(shifted))
    assert checks.fail_frac(checks.check_attack_units([unit], DEFAULT_SCENARIO.eta_nominal)) > 0.0
