#!/usr/bin/env python3
"""Split every miss of the blanket acceptance bands into its causes.

Acceptance items 3a and 4 (``tests/test_acceptance.py``) once asserted two
blanket bands on the optimized PNR and threshold curves:

* 3a: G flat to 2% across eta wherever M*eta >= 1e3;
* 4:  threshold G within 5% of PNR G at every grid point.

The rate model does not meet either band, and the tests now assert the
properties the model does guarantee.  This script re-optimizes the same
grid and explains each miss from the formulas of ``slowqkd.keyrate``:

* 3a: the nu_th_opt sequence along each plateau, and the rise of
  G*M*L = Q*[1 - h(e_bit) - h(e_ph)] from the first plateau point to the
  last, split exactly into a Q term, an h(e_bit) term (dark counts diluting
  e_bit) and a phase-penalty term, the last split again into nu_th steps
  and tagging.
* 4:  L*eta*mu at both optima, e_mB/Q at the threshold optimum, and the
  relative shortfall of threshold G split exactly into three terms.  With
  f = e_mB/Q and P(e) = h(e) saturated at 1, threshold detectors pay
  f + (1 - f) P(e_ph') where PNR detectors pay P(e_ph), at the same
  (mu, nu_th).  The difference is f (1 - P(e_ph')), the -e_mB/Q term net
  of the phase penalty that fraction no longer pays, plus
  P(e_ph') - P(e_ph), the rise of the phase-error bound when the tagged
  share is taken of Q - e_mB.  The third term is the gain the PNR
  optimizer makes by choosing a different (mu, nu_th).

Run from the repository root:

    PYTHONPATH=src python scripts/diagnose_acceptance.py

The two sweeps take under 2 s on one worker (2 shared vCPUs), too short for
a process pool to pay, so QKD_THREADS leaves them in process.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import BASE, ETA_GRID, M_VALUES, MODEL_LAMBDA_MAX  # noqa: E402

from slowqkd import CurveSpec, Detector, Optimum, binary_entropy, key_rate  # noqa: E402
from slowqkd.optimizer import sweep_curves  # noqa: E402

PLATEAU_BAND = 0.02
TRACKING_BAND = 0.05


def _sweep(detector: Detector) -> dict[tuple[int, float], Optimum]:
    spec = CurveSpec(
        base=replace(BASE, detector=detector), eta_grid=ETA_GRID, M_values=M_VALUES
    )
    return {(o.M, o.eta): o for o in sweep_curves(spec)}


def _penalty(x: float, nu_th: int) -> float:
    """h(e_ph) saturated at 1, for tagged share x and untagged term nu_th/(L-1)."""
    e_ph = x + (1.0 - x) * nu_th / (BASE.L - 1)
    return 1.0 if e_ph >= 0.5 else binary_entropy(e_ph)


def diagnose_plateaus(pnr: dict[tuple[int, float], Optimum]) -> None:
    print(f"== 3a: plateau spread >= {PLATEAU_BAND:.0%} where M*eta >= 1e3 ==")
    for M in M_VALUES:
        plateau = [pnr[(M, eta)] for eta in ETA_GRID if M * eta >= 1e3]
        if len(plateau) < 2:
            continue
        gs = [o.result.G for o in plateau]
        spread = (max(gs) - min(gs)) / max(gs)
        if spread < PLATEAU_BAND:
            continue
        print(f"M={M}: {len(plateau)} plateau points, spread {spread:.2%}")
        print("       eta  nu_th        mu_opt   G*M*L   e_bit  e_src_slow/Q")
        for o in plateau:
            r = o.result
            print(f"  {o.eta:.3e}  {o.nu_th_opt:5d}  {o.mu_opt:.4e}  "
                  f"{r.G * M * BASE.L:.4f}  {r.e_bit:.4f}  {r.e_src_slow / r.Q:.3e}")

        # Q1 R1 - Q0 R0 = dQ (R0 + R1)/2 + (Q0 + Q1)/2 dR, with
        # R = 1 - h(e_bit) - P(x, nu_th); P is split at (x0, nu_th1).
        a, b = plateau[0], plateau[-1]
        q0, q1 = a.result.Q, b.result.Q
        x0, x1 = a.result.e_src_slow / q0, b.result.e_src_slow / q1
        h0, h1 = binary_entropy(a.result.e_bit), binary_entropy(b.result.e_bit)
        p0, p1 = _penalty(x0, a.nu_th_opt), _penalty(x1, b.nu_th_opt)
        p_mid = _penalty(x0, b.nu_th_opt)
        r0, r1 = 1.0 - h0 - p0, 1.0 - h1 - p1
        q_mean = 0.5 * (q0 + q1)
        terms = {
            "Q": (q1 - q0) * 0.5 * (r0 + r1),
            "h(e_bit), dark-count dilution": -q_mean * (h1 - h0),
            "phase penalty, nu_th steps": -q_mean * (p_mid - p0),
            "phase penalty, tagging": -q_mean * (p1 - p_mid),
        }
        rise = q1 * r1 - q0 * r0
        print(f"  G*M*L {q0 * r0:.4f} -> {q1 * r1:.4f} "
              f"(eta {a.eta:.3e} -> {b.eta:.3e}), rise {rise:+.4f}:")
        for name, value in terms.items():
            print(f"    {name:31s} {value:+.4f}")
        print(f"    {'sum of the terms':31s} {sum(terms.values()):+.4f}")


def diagnose_tracking(
    pnr: dict[tuple[int, float], Optimum], thr: dict[tuple[int, float], Optimum]
) -> None:
    print(f"\n== 4: threshold G more than {TRACKING_BAND:.0%} off PNR G ==")
    print("Shortfall (G_pnr - G_thr)/G_pnr = e_mB/Q term + phase-bound rise "
          "+ PNR re-optimization;")
    print("the first two are evaluated at the threshold optimum (mu_t, nu_t).")
    print("    M        eta  L*eta*mu_pnr  L*eta*mu_thr  e_mB/Q    "
          "gap  e_mB/Q term  bound rise  re-opt  in domain")
    misses = 0
    for M in M_VALUES:
        for eta in ETA_GRID:
            p, t = pnr[(M, eta)], thr[(M, eta)]
            gp, gt = p.result.G, t.result.G
            if gp == 0.0 and gt == 0.0:
                continue
            if gp > 0.0 and abs(gt - gp) / gp <= TRACKING_BAND:
                continue
            misses += 1
            if gt <= 0.0 or gp <= 0.0:
                print(f"  {M:>7d}  {eta:.3e}  one detector gives no key: "
                      f"G_pnr={gp:.4e}, G_thr={gt:.4e}")
                continue
            # G_pnr - G_thr = [G_pnr - G_pnr(mu_t, nu_t)]
            #   + Q/(M L + c_d) [f (1 - P(e_ph')) + P(e_ph') - P(e_ph)] at (mu_t, nu_t)
            r = t.result
            f = r.e_mB / r.Q
            scale = r.Q / (M * BASE.L + BASE.c_d) / gp
            p_pnr = _penalty(r.e_src_slow / r.Q, t.nu_th_opt)
            p_thr = _penalty(r.e_src_slow / (r.Q - r.e_mB), t.nu_th_opt)
            at_thr_opt = replace(BASE, eta=eta, M=M, mu=t.mu_opt, nu_th=t.nu_th_opt)
            reopt = (gp - key_rate(at_thr_opt).G) / gp
            lam_p = BASE.L * eta * p.mu_opt
            lam_t = BASE.L * eta * t.mu_opt
            print(f"  {M:>7d}  {eta:.3e}  {lam_p:12.3e}  {lam_t:12.3e}  {f:.4f}  "
                  f"{(gp - gt) / gp:6.1%}  {f * (1.0 - p_thr) * scale:11.1%}  "
                  f"{(p_thr - p_pnr) * scale:10.1%}  {reopt:6.1%}  "
                  f"{'yes' if lam_p <= MODEL_LAMBDA_MAX else 'no'}")
    print(f"{misses} of {len(M_VALUES) * len(ETA_GRID)} grid points miss the band")


def main() -> None:
    pnr = _sweep(Detector.PNR)
    thr = _sweep(Detector.THRESHOLD)
    diagnose_plateaus(pnr)
    diagnose_tracking(pnr, thr)


if __name__ == "__main__":
    main()
