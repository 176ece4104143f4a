"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

1. An off-by-one `moment_count` makes the counts pass fail checks, so
   error_rate is nonzero and the run would report correct=false.
2. A `bound_values` whose measured |f_6| is off by one part in 10^6 makes
   the plan-cold pass fail checks (the benchmark's own direct evaluation
   catches it; the plan itself would not).
3. run.py on a copy of the checkout whose `moment_count(300, 6)` is off by
   one reports correct=false and a pass_rate worse than its bound in
   BENCHMARK.json, so one wrong answer in a run is a regression.
4. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   nonzero without printing a result.

Exits 0 when all four hold.  Takes about a minute.  Its copies live under
.bench_out/selftest and are removed at the end.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OFF_BY_ONE = """

_exact_moment_count = moment_count


def moment_count(X, s, workers=1):
    return _exact_moment_count(X, s, workers) + (X == 300 and s == 6)
"""
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import wmvlab.bounds  # noqa: E402
import wmvlab.counting  # noqa: E402

import workloads  # noqa: E402


def _error_rate(name: str, workdir: str) -> float:
    wl = workloads.WORKLOADS[name]
    ck = workloads.Checks()
    inp = wl.setup(1, workdir, ck)
    wl.run_pass(inp, ck, 0)
    print(f"  {name}: {ck.failed} of {ck.attempted} checks failed; first: {ck.messages[:1]}")
    return ck.failed / ck.attempted


def _copy_bench(dest: str) -> None:
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))


def _run_bench(cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def main() -> int:
    failures = []
    out = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        original = wmvlab.counting.moment_count
        wmvlab.counting.moment_count = lambda X, s, workers=1: original(X, s, workers) + 1
        try:
            if _error_rate("counts", out) == 0:
                failures.append("off-by-one moment_count left error_rate at 0")
        finally:
            wmvlab.counting.moment_count = original

        original_bv = wmvlab.bounds.bound_values

        def skewed(*args, **kwargs):
            cmp_ = original_bv(*args, **kwargs)
            return dataclasses.replace(cmp_, actual=cmp_.actual * (1 + 1e-6))

        wmvlab.bounds.bound_values = skewed
        try:
            if _error_rate("plan-cold", out) == 0:
                failures.append("skewed bound_values left error_rate at 0")
        finally:
            wmvlab.bounds.bound_values = original_bv

        mutant = os.path.join(out, "mutant")
        _copy_bench(mutant)
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(mutant, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(mutant, "src", "wmvlab", "counting.py"), "a") as fh:
            fh.write(OFF_BY_ONE)
        proc = _run_bench(mutant)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bound = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}["pass_rate"]
        rate = result.get("metrics", {}).get("pass_rate", {}).get("value")
        print(f"  off-by-one copy: correct={result.get('correct')}, pass_rate={rate}, "
              f"bound allows >= {1 - bound}")
        if result.get("correct") is not False or rate is None or rate >= 1 - bound:
            failures.append("an off-by-one count did not breach the pass_rate bound")

        bare = os.path.join(out, "bare")
        _copy_bench(bare)
        proc = _run_bench(bare)
        print(f"  bare directory: exit status {proc.returncode}, stderr {proc.stderr.strip()!r}")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append("run.py produced a result without src/wmvlab")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for f in failures:
        print(f"SELFTEST FAILED: {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
