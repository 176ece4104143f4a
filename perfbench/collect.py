"""Repeat benchmark runs and summarise each metric's median and quartiles.

    python3 perfbench/collect.py --workloads counts,grid,plan-cold,plan-warm \
        --seeds 1-10 [--trace-runs 1] [--out perfbench/BENCH_seed.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles from statistics.quantiles(n=4), the sample count
and the spread (q3 - q1) / median next to the metric's bound.  Traced
runs, when asked for, use the first seeds and give per-layer medians and
quartiles.  --out writes the summary, labelled with the commit measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import cpu_model

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit status {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="counts,grid,plan-cold,plan-warm")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {"commit": _commit(), "run_seconds": seconds,
              "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                              "cpu": cpu_model(),
                              "load_average_at_start": os.getloadavg()[:2]},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "run_elapsed_s": summarise([r["elapsed_s"] for r in runs]),
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of "
              f"{entry['attempted']} checks failed, run time median "
              f"{entry['run_elapsed_s']['median']:.1f} s")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] <= bound / 3 \
                else "within bound" if s["spread"] <= bound else "TOO WIDE"
            print(f"  {name:<12} median {s['median']:.6g} {units[name]}  quartiles "
                  f"{s['q1']:.6g} .. {s['q3']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {bound})  {flag}")
        print(f"  {'error_rate':<12} {entry['failed'] / entry['attempted']:.6g} ratio")
        if args.trace_runs:
            traced = [_run(workload, seed, seconds, 1)
                      for seed in _seeds(args.seeds)[:args.trace_runs]]
            entry["per_layer"] = {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in traced])
                for m in spec["per_layer"]}
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
