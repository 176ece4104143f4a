"""One benchmark process: set up a workload, run timed passes, print JSON.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  With --setup-only it stops after set-up (start-up,
imports, inputs and, for plan-warm, the cache fill), which is how run.py
takes several set-up samples per run.  With --trace 1 every pass is traced.
The last stdout line is a JSON object for run.py; nothing else is printed
to stdout.

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 10 \
        --trace 0 --workdir .bench_out/w --spawned-at <time.monotonic()>
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy
import wmvlab

import tracing
import workloads

# Fewest timed passes per run, so a median always has three samples.
MIN_PASSES = 3


def _cpu() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _timed_pass(wl, inp, index: int, tracer=None) -> dict:
    ck = workloads.Checks()
    gc.collect()
    if tracer is not None:
        tracer.pass_id = index
        tracer.install()
    c0, t0 = _cpu(), time.perf_counter()
    try:
        extra = wl.run_pass(inp, ck, index)
    finally:
        t1, c1 = time.perf_counter(), _cpu()
        if tracer is not None:
            tracer.uninstall()
    if wl.cleanup is not None:
        wl.cleanup(inp, index)
    return {"wall": t1 - t0, "cpu": c1 - c0, "attempted": ck.attempted,
            "failed": ck.failed, "messages": ck.messages, "extra": extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    setup_ck = workloads.Checks()
    inp = wl.setup(args.seed, args.workdir, setup_ck)
    if wl.fill is not None:
        wl.fill(inp, setup_ck)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "attempted": setup_ck.attempted, "failed": setup_ck.failed,
              "messages": setup_ck.messages}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    # the inputs and references live for the whole run; keep them out of the
    # collector's traversals so that the passes pay only for their own objects
    gc.collect()
    gc.freeze()

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_timed_pass(wl, inp, len(passes), tracer))
        if time.perf_counter() - start >= args.seconds and len(passes) >= MIN_PASSES:
            break

    result["passes"] = passes
    result["attempted"] += sum(p["attempted"] for p in passes)
    result["failed"] += sum(p["failed"] for p in passes)
    result["messages"] += [m for p in passes for m in p["messages"]][:10]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    result["wmvlab"] = wmvlab.__version__
    if tracer is not None:
        stats = [dict(tracer.layer_stats(index), **p["extra"])
                 for index, p in enumerate(passes)]
        layers = {k: statistics.median(s.get(k, 0) for s in stats) for k in stats[0]}
        layers.setdefault("runcache.cache_bytes", 0)
        # overhead per pass = wrapper cost per call x spans in the pass; a
        # traced-minus-untraced difference of whole passes is lost in noise
        span_cost = tracing.span_cost()
        layers["trace.overhead_s"] = span_cost * len(tracer.spans) / len(passes)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        result["span_cost_s"] = span_cost
        out_dir = os.path.dirname(os.path.abspath(args.workdir))
        tracer.write_jsonl(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
