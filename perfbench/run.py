"""slowqkd benchmark: five workloads through the CLI and the public API.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists): curves, points,
mc_sparse, mc_busy, attack.  Every measurement runs in a fresh child
process (perfbench/child.py) with QKD_THREADS unset, one at a time.

--trace 0  end-to-end metrics: the workload's timed pass, the median set-up
           time of five fresh processes, the child's peak RSS, and the
           share of checked outputs that passed.
--trace 1  per-layer metrics: an untraced and a traced pass of the workload
           (their difference is the tracing overhead), one traced round of
           every other workload, and the canonical-point probes.  Spans go
           to .bench_build/perfbench/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Any failed process exits non-zero without
printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("curves", "points", "mc_sparse", "mc_busy", "attack")
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is the median
BUDGET_S = 170.0  # one run, all children included, ends within three minutes
HERE = Path(__file__).resolve().parent
SCRATCH = Path(".bench_build") / "perfbench"


class ChildFailed(Exception):
    pass


def child(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QKD_THREADS"}
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} {workload} ran past the time budget") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(seed: int, workload: str, child_facts: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu, **child_facts}


def setup_seconds(samples: list[dict], key: str) -> float:
    return statistics.median(s["setup"][key] for s in samples)


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    probes = [child("setup", args.workload, args.seed, 0.0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    timed = child("timed", args.workload, args.seed, args.seconds, deadline)
    metrics = {
        "items_per_s": timed["items_per_s"],
        "setup_s": setup_seconds([*probes, timed], "total_s"),
        "peak_rss_mb": timed["peak_rss_mb"],
        "pass_frac": 1.0 - timed["fail_frac"],
    }
    print(f"timed pass: {timed['items']} items in {timed['elapsed_s']:.3f} s over {timed['rounds']} round(s); "
          f"fail_frac {timed['fail_frac']:.4g} ({timed['failed']} of {timed['attempted']} checks)")
    return metrics, [timed]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    probes = [child("setup", args.workload, args.seed, 0.0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    untraced = child("timed", args.workload, args.seed, args.seconds, deadline)
    traced = {w: child("traced", w, args.seed, args.seconds if w == args.workload else 0.0, deadline)
              for w in WORKLOADS}
    canon = child("canonical", args.workload, args.seed, 0.0, deadline)

    metrics = {
        "setup.import_s": setup_seconds([*probes, untraced], "import_s"),
        "setup.inputs_s": setup_seconds([*probes, untraced], "inputs_s"),
    }
    for res in traced.values():
        metrics.update(res["layer"])
    metrics.update(canon["layer"])
    jobs: dict[str, list[float]] = {}
    for res in traced.values():
        for job, (self_s, calls, csv_bytes) in res["cli"].items():
            acc = jobs.setdefault(job, [0.0, 0, 0])
            acc[0] += self_s
            acc[1] += calls
            acc[2] += csv_bytes
    for job, (self_s, calls, csv_bytes) in jobs.items():
        metrics[f"cli.self_ms.{job}"] = self_s / calls * 1e3
        metrics[f"cli.csv_bytes.{job}"] = csv_bytes
    mine = traced[args.workload]
    rate_untraced = untraced["items_per_s"]
    rate_traced = mine["items_per_s"]
    metrics["trace.overhead_frac"] = 1.0 - rate_traced / rate_untraced

    print(f"{args.workload}: untraced {rate_untraced:.6g} items/s, traced {rate_traced:.6g} items/s")
    total = sum(mine["self_s"].values())
    for layer, sec in sorted(mine["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self time {layer:<10} {sec:9.3f} s  {sec / total:6.1%}")
    roadmap = canon["roadmap"]
    for name, (ref, unit) in roadmap.items():
        print(f"  canonical {name} = {metrics[name]:.6g} {unit} (ROADMAP {ref:.6g}, ratio {metrics[name] / ref:.2f})")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_items_per_s": rate_untraced,
        "traced_items_per_s": rate_traced,
        "self_s": {w: r["self_s"] for w, r in traced.items()},
        "canonical_vs_roadmap": {k: {"measured": metrics[k], "roadmap": v, "unit": u}
                                 for k, (v, u) in roadmap.items()},
        "spans": [s for r in traced.values() for s in r["spans"]],
    }) + "\n", encoding="utf-8")
    print(f"spans written to {trace_file}")
    return metrics, [untraced, *traced.values()]


def main() -> int:
    ap = argparse.ArgumentParser(description="slowqkd benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # as an exception, SIGTERM makes subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = Path("BENCHMARK.json")
    if not (spec_path.is_file() and Path("src/slowqkd/__init__.py").is_file() and Path("configs").is_dir()):
        print("perfbench: run from the root of a slowqkd checkout (BENCHMARK.json, src/slowqkd, configs)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            metrics, runs = per_layer(args, deadline)
            declared = spec["per_layer"]
        else:
            metrics, runs = end_to_end(args, deadline)
            declared = spec["end_to_end"]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}",
              file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("facts: " + json.dumps(machine_facts(args.seed, args.workload, runs[0]["facts"])))
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for r in runs:
        for failure in r["failures"]:
            print(f"check failed: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
