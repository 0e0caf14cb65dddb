#!/usr/bin/env python3
"""Regenerate every key-rate curve table in one go.

Writes five CSVs into --outdir (default: results/):

    fig1.csv           PNR detectors, M = 1 ... 1e6, eta swept over 7 decades
    fig2.csv           same sweep with threshold detectors
    fig3_opt_m.csv     dead time c_d = 1.28e5, M re-optimized at every eta
    fig3_fixed_m.csv   dead time c_d = 1.28e5, M fixed at heuristic_M = 1000
    fig3_ideal.csv     no dead time, M = 1000 (upper reference curve)

Plot G against eta on log-log axes to view the curves.  The full run takes
about 3-4 s on one worker (2 shared vCPUs); pass --quick for a coarse grid
while iterating.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from slowqkd.cli import main as slowqkd_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(step: str, argv: list[str]) -> None:
    t0 = time.perf_counter()
    rc = slowqkd_main(argv)
    if rc != 0:
        sys.exit(f"{step}: slowqkd exited with status {rc}")
    print(f"{step}: done in {time.perf_counter() - t0:.1f}s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--quick", action="store_true",
                    help="29-point eta grid and a thinner mu grid")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    quick = ["--eta-points", "29", "--points-per-decade", "10"] if args.quick else []

    out = args.outdir / "fig1.csv"
    run("fig1", ["curve", "--config", str(CONFIGS / "fig1.json"),
                 *quick, "--out", str(out)])

    out = args.outdir / "fig2.csv"
    run("fig2", ["curve", "--config", str(CONFIGS / "fig2.json"),
                 *quick, "--out", str(out)])

    # dead-time study: optimal M vs the c_d/L heuristic vs the ideal detector
    out = args.outdir / "fig3_opt_m.csv"
    run("fig3 (optimal M)", ["optimize", "--config", str(CONFIGS / "fig3.json"),
                             *quick, "--out", str(out)])

    fixed = ["curve", "--M-list", "1000", "--L", "128", "--detector", "threshold",
             "--eta-min", "1e-7", "--eta-max", "1.0", "--eta-points", "29", *quick]
    out = args.outdir / "fig3_fixed_m.csv"
    run("fig3 (M = 1000)", [*fixed, "--c-d", "128000.0", "--out", str(out)])

    out = args.outdir / "fig3_ideal.csv"
    run("fig3 (no dead time)", [*fixed, "--c-d", "0.0", "--out", str(out)])

    print(f"all tables written to {args.outdir}/")


if __name__ == "__main__":
    main()
