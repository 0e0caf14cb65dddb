"""Regenerate the benchmark's committed reference outputs in perfbench/refs/.

Run from the repository root::

    python3 perfbench/regen_refs.py

It runs the CLI over the three full figure sweeps (configs/fig{1,2,3}.json),
draws the ``points`` pool around the fig1/fig2 optima and evaluates it, and
writes refs/PROVENANCE.json with the commit, the source hash and the exact
argv of every file.  Only a change that defines or corrects the benchmark
regenerates the references; a change to the program is checked against
them as they are.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import slowqkd.cli  # noqa: E402
from slowqkd import Detector, ProtocolParams, key_rate  # noqa: E402

REFS = Path(__file__).resolve().parent / "refs"
POOL_SIZE = 2048
POOL_SEED = 20160414
POOL_FIELDS = ("mu", "nu_th", "eta", "M", "L", "e_sys", "d_c", "c_d", "detector",
               "G_raw", "G", "Q", "e_bit", "e_ph", "e_src_slow", "e_mB", "reason")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/slowqkd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _points_pool() -> list[dict]:
    """Perturbations of positive fig1/fig2 optima: mu within a decade either
    side, nu_th within a few steps, eta within half a decade; one point in 64
    is dark (mu = 0, d_c = 0) and has no detections at all."""
    rows = []
    for fig in ("fig1", "fig2"):
        with open(REFS / f"{fig}.csv", encoding="utf-8", newline="") as fh:
            rows += [r for r in csv.DictReader(fh) if float(r["G"]) > 0.0]
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        r = rows[int(rng.integers(len(rows)))]
        L = int(r["L"])
        kw = dict(
            mu=float(min(1.0, float(r["mu_opt"]) * 10.0 ** rng.uniform(-1.0, 1.0))),
            nu_th=int(np.clip(int(r["nu_th_opt"]) + rng.integers(-3, 4), 0, L - 1)),
            eta=float(min(1.0, float(r["eta"]) * 10.0 ** rng.uniform(-0.5, 0.5))),
            M=int(r["M"]), L=L, e_sys=0.03, d_c=1e-9, c_d=0, detector=Detector(r["detector"]),
        )
        if i % 64 == 63:
            kw.update(mu=0.0, d_c=0.0)
        res = key_rate(ProtocolParams(**kw))
        pool.append({**kw, "detector": kw["detector"].value, "G_raw": res.G_raw, "G": res.G, "Q": res.Q,
                     "e_bit": res.e_bit, "e_ph": res.e_ph, "e_src_slow": res.e_src_slow,
                     "e_mB": res.e_mB, "reason": res.reason or ""})
    return pool


def main() -> int:
    files = {}
    for fig, job in (("fig1", "curve"), ("fig2", "curve"), ("fig3", "optimize")):
        argv = [job, "--config", f"configs/{fig}.json", "--out", str(REFS / f"{fig}.csv")]
        if slowqkd.cli.main(argv) != 0:
            return 1
        files[f"{fig}.csv"] = {"argv": ["slowqkd", *argv[:-1], f"perfbench/refs/{fig}.csv"]}
        print(f"wrote {fig}.csv", flush=True)

    pool = _points_pool()
    with open(REFS / "points.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, POOL_FIELDS, lineterminator="\n")
        w.writeheader()
        for row in pool:
            w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    files["points.csv"] = {
        "generator": "perfbench/regen_refs.py (_points_pool, then key_rate per row)",
        "pool_seed": POOL_SEED,
        "pool_size": POOL_SIZE,
    }

    provenance = {
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": files,
    }
    (REFS / "PROVENANCE.json").write_text(json.dumps(provenance, indent=2) + "\n", encoding="utf-8")
    print("wrote points.csv and PROVENANCE.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
