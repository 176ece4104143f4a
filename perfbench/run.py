"""wmvlab benchmark launcher.

    python3 perfbench/run.py --workload <counts|grid|plan-cold|plan-warm> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh interpreters that
import wmvlab from the checkout's src/ (the package need not be installed),
with BLAS/OpenMP pinned to one thread.  Every process times its own set-up:
interpreter start, imports, inputs and, for plan-warm, the cold run that
fills the cache.  Set-up-only processes run before and after the measuring
process, and setup_s is the median of all set-up samples.  The measuring
process runs timed passes for at least --seconds and at least three passes,
checking every answer.

Prints a readable report, then as its last line one JSON object:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics (from spans recorded around the public functions of each
module) plus the tracing overhead.  Exits 2 without a result when the
checkout has no src/wmvlab, 1 when a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("counts", "grid", "plan-cold", "plan-warm")
# set-up samples per run, the measuring process's own included: start-ups of
# a second or less get five, plan-warm's (a whole cold plan run) gets two, so
# that the run's time goes to the timed passes
SETUP_SAMPLES = {"counts": 5, "grid": 5, "plan-cold": 5, "plan-warm": 2}
DEADLINE_S = 170.0  # the whole run, every process included


class BenchError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _spawn(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.makedirs(workdir)
    try:
        spawned_at = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--spawned-at", repr(spawned_at)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a process")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with status {proc.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wmvlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "wmvlab", "__init__.py")):
        sys.stderr.write(f"error: no src/wmvlab under {ROOT}; run from a wmvlab checkout\n")
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    load1, load5, _ = os.getloadavg()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"cpu {cpu_model()}  load average at start {load1:.2f} {load5:.2f}")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{os.getpid()}-{time.time_ns()}"
    extra = SETUP_SAMPLES[args.workload] - 1
    try:
        # half the set-up samples before the measuring process and half
        # after, so one slow spell of the machine does not take them all
        setups = [_spawn(args, os.path.join(out_dir, f"work-{tag}-{i}"), True, deadline)
                  for i in range(extra // 2)]
        run = _spawn(args, os.path.join(out_dir, f"work-{tag}-main"), False, deadline)
        setups += [_spawn(args, os.path.join(out_dir, f"work-{tag}-{i}"), True, deadline)
                   for i in range(extra // 2, extra)]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    setup_values = [s["setup_s"] for s in setups] + [run["setup_s"]]
    attempted = run["attempted"] + sum(s["attempted"] for s in setups)
    failed = run["failed"] + sum(s["failed"] for s in setups)
    messages = run["messages"] + [m for s in setups for m in s["messages"]]
    walls = [p["wall"] for p in run["passes"]]
    cpus = [p["cpu"] for p in run["passes"]]
    print(f"numpy {run['numpy']}  wmvlab {run['wmvlab']}")

    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_rate": 1.0 - failed / attempted,
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_values}
    print("end-to-end" + (" (passes traced, so wall_s and cpu_s include the tracing)"
                          if args.trace else "") + ":")
    for m in spec["end_to_end"]:
        name = m["name"]
        line = f"  {name:<12} {end_to_end[name]:.6g} {m['unit']}"
        if name in samples:
            lo, hi = _quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; quartiles {lo:.6g} .. {hi:.6g})"
        print(line)
    print(f"  {'error_rate':<12} {failed / attempted:.6g} ratio  ({failed} of {attempted} checks failed)")
    for msg in messages[:10]:
        print(f"  FAILED: {msg}")

    if args.trace:
        layers = run["layers"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"per-layer ({len(run['passes'])} traced passes, {run['spans']} spans, "
              f"{run['span_cost_s'] * 1e6:.3g} us per span):")
        for name, v in metrics.items():
            print(f"  {name:<40} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
