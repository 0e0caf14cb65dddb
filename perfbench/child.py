"""One benchmark process, started by run.py from the repository root.

Modes:
  setup      import slowqkd and build the workload's inputs, nothing else
  timed      the workload's rounds for --seconds, untraced, then the checks
  traced     the same with spans around every call into a slowqkd module
  canonical  the fixed-input probes of canonical.py

The process is fresh (so setup and peak RSS are its own) and runs with
QKD_THREADS unset.  Its last line of output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SCRATCH = Path(".bench_build") / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "timed", "traced", "canonical"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    t0 = time.perf_counter()
    import slowqkd  # noqa: F401  (numpy and scipy come with it)

    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    t2 = time.perf_counter()
    result: dict = {"setup": {"import_s": t1 - t0, "inputs_s": t2 - t1, "total_s": t2 - _T0}}

    if args.mode == "canonical":
        import canonical

        result["layer"] = canonical.run()
        result["roadmap"] = canonical.ROADMAP
    elif args.mode != "setup":
        result.update(_run(wl, args))
    print(json.dumps(result))
    return 0


def _run(wl, args) -> dict:
    import numpy
    import scipy

    import checks
    import workloads
    from slowqkd._env import worker_count
    from tracing import Tracer, patched, self_seconds

    tracer = Tracer(f"{wl.name}-seed{args.seed}-pid{os.getpid()}") if args.mode == "traced" else None
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH))
    try:
        ps = workloads.Pass(tmp, tracer)
        with patched(wl.patches(tracer) if tracer else []):
            items, elapsed, rate = workloads.run_pass(wl, args.seconds, ps)
        rss = workloads.peak_rss_mb()
        ps.read_outputs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = wl.check(ps)
    out = {
        "items": items,
        "elapsed_s": elapsed,
        "items_per_s": rate,
        "rounds": ps.rounds,
        "peak_rss_mb": rss,
        "attempted": len(results),
        "failed": sum(not c.ok for c in results),
        "fail_frac": checks.fail_frac(results),
        "failures": [f"{c.name}: {c.detail}" for c in results if not c.ok][:10],
        "facts": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "workers": worker_count(),
            "QKD_THREADS": os.environ.get("QKD_THREADS", "unset"),
        },
    }
    if tracer is not None:
        out["layer"] = wl.layer_metrics(tracer, ps)
        out["cli"] = workloads.cli_stats(tracer, ps)
        out["self_s"] = self_seconds(tracer.spans)
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
