"""The four benchmark workloads: inputs, one timed pass, and its checks.

Every pass holds the program's answers against a second route (closed
forms, pinned values, brute force, an independent numpy convolution of the
key spectra, direct evaluation, or the plan's own cold output), so a wrong
answer is counted as a failed check and never as a speed.  Calls go through
module attributes (`counting.moment_count`, not an imported name) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from wmvlab import arcs, bounds, cli, counting, fitting, phase, torusgrid
from wmvlab.phase import SCALE, FixedPhase

MASK = SCALE - 1

# Pinned sixth moments I_6(X); the same values the acceptance suite pins.
I6_SERIES = {50: 757_724, 100: 6_159_610, 150: 20_849_190,
             200: 49_464_200, 300: 166_796_922}
KAPPA6 = math.factorial(6) * 2 ** 3 // 6  # kappa(6) = 6! 2^(6-3) / 6

GRID_EVEN_X = (4, 8, 12, 16)
GRID_HIGH_X = (8, 12, 16)
MASK_X, MASK_QS = 12, (2, 4, 8, 12)
AMP_X = (8, 12, 16)

PLAN_I6_X = (20, 40, 60, 80, 100)
PLAN_GRID_X = (4, 8, 12)
PLAN_RESTRICTED = (8, 12, (2, 4, 8))  # X, s, Q list
PLAN_BOUNDS = (6, 2048, 400)  # k, X, trials
PLAN_IDENTITY = (40, 40)  # X, trials
PLAN_RECORDS = (len(PLAN_I6_X) + len(PLAN_GRID_X) + len(PLAN_RESTRICTED[2])
                + PLAN_BOUNDS[2] + 1 + PLAN_IDENTITY[1])


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def __call__(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(label)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# -- independent exact route: numpy convolution of key spectra --------------

def _convolve(a, b):
    """Key spectra (sum, cube-sum, count) of t- and u-tuples -> (t+u)-tuples."""
    n = np.add.outer(a[0], b[0]).ravel()
    m = np.add.outer(a[1], b[1]).ravel()
    c = np.multiply.outer(a[2], b[2]).ravel()
    width = int(m.max()) + 1
    keys, inv = np.unique(n * width + m, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inv.ravel(), c)
    return keys // width, keys % width, counts


def exact_moments(X: int, s_max: int) -> Dict[int, int]:
    """I_s(X) for even s <= s_max as sum over keys of (t-tuple count)^2,
    building the t-tuple spectrum by repeated convolution with singles.
    Pure numpy: shares no code with wmvlab.counting."""
    x = np.arange(1, X + 1, dtype=np.int64)
    single = (x, x ** 3, np.ones(X, dtype=np.int64))
    spec = single
    out = {}
    for t in range(1, s_max // 2 + 1):
        if t > 1:
            spec = _convolve(spec, single)
        out[2 * t] = int(np.dot(spec[2], spec[2]))
    return out


# -- independent direct evaluation ------------------------------------------

def _unit_sum(phases: List[int]) -> complex:
    t = np.array([p / SCALE for p in phases])
    t = np.where(t > 0.5, t - 1.0, t)
    return complex(np.exp(2j * np.pi * t).sum())


def f_abs(alpha_hex: str, k: int, X: int) -> float:
    """|sum_{x<=X} e(alpha x^k)| with exact 128-bit phases, numpy sum."""
    a = int(alpha_hex, 16)
    return abs(_unit_sum([(x ** k * a) & MASK for x in range(1, X + 1)]))


def beta_fourth(alpha_hex: str, X: int) -> float:
    """Integral over beta of |g|^4 = sum_n |sum_{x1+x2=n} e(alpha(x1^3+x2^3))|^2."""
    a = int(alpha_hex, 16)
    t = np.array([((x ** 3 * a) & MASK) / SCALE for x in range(1, X + 1)])
    w = np.exp(2j * np.pi * np.where(t > 0.5, t - 1.0, t))
    pair = np.multiply.outer(w, w).ravel()
    idx = np.add.outer(np.arange(X), np.arange(X)).ravel()
    re = np.bincount(idx, weights=pair.real)
    im = np.bincount(idx, weights=pair.imag)
    return float(np.dot(re, re) + np.dot(im, im))


def _seeded_alphas(seed: int, n: int) -> List[str]:
    rng = random.Random(seed)
    return [format(rng.getrandbits(128), "#034x") for _ in range(n)]


# -- counts ------------------------------------------------------------------

@dataclass
class CountsInput:
    alphas: List[FixedPhase]


def counts_setup(seed: int, workdir: str, ck: Checks) -> CountsInput:
    rng = random.Random(f"counts:{seed}")
    return CountsInput([FixedPhase(rng.getrandbits(128)) for _ in range(4, 9)])


def counts_pass(inp: CountsInput, ck: Checks, index: int) -> Dict[str, float]:
    i6 = {}
    for X, want in I6_SERIES.items():
        i6[X] = counting.moment_count(X, 6)
        ck(i6[X] == want, f"moment_count({X},6) != pinned {want}")
    for X in (20, 40, 80, 160):
        want = 6 * X ** 3 - 9 * X ** 2 + 4 * X
        ck(counting.vinogradov_count(X, 6) == want, f"vinogradov_count({X},6) != {want}")
    for X in range(1, 101):
        ck(counting.moment_count(X, 4) == 2 * X * X - X, f"moment_count({X},4) != 2X^2-X")
    for X in range(1, 20001):
        ck(counting.moment_count(X, 2) == X, f"moment_count({X},2) != X")
    for X in range(1, 9):
        for s in (2, 4, 6):
            ck(counting.brute_force_moment(X, s) == counting.moment_count(X, s),
               f"brute force != moment_count at X={X}, s={s}")
    for X, alpha in zip(range(4, 9), inp.alphas):
        hc = bounds.k_counts(alpha, 6, X)
        ms = [c.m for c in hc]
        ok = (sum(c.K for c in hc) == KAPPA6 * X ** 3 and ms == sorted(set(ms))
              and 0 <= ms[0] and ms[-1] < X ** 3 and all(c.K > 0 for c in hc))
        ck(ok, f"k_counts mass/buckets wrong at X={X}")
    a, b, resid = fitting.fit_segre([(float(X), float(v)) for X, v in i6.items()])
    ck(4.5 <= a <= 7.5 and b > 0 and resid < 0.05,
       f"fit_segre verdict a={a:.4f} b={b:.4f} resid={resid:.4f}")
    return {}


# -- grid --------------------------------------------------------------------

@dataclass
class GridInput:
    exact: Dict[int, Dict[int, int]]
    mask_spec: torusgrid.GridSpec
    mask_points: Dict[int, List[int]]
    amp_points: List[Tuple[int, torusgrid.GridSpec, int, List[int]]]


def grid_setup(seed: int, workdir: str, ck: Checks) -> GridInput:
    rng = random.Random(f"grid:{seed}")
    exact = {X: exact_moments(X, 12) for X in GRID_EVEN_X}
    spec = torusgrid.auto_spec_start(MASK_X, 12)
    M, x3 = spec.Malpha, MASK_X ** 3
    points = {}
    for Q in MASK_QS:
        pts = [rng.randrange(M) for _ in range(40)]
        # cells at arc edges, where an off-by-one in the mask would show
        for _ in range(20):
            q = rng.randint(1, Q)
            a = rng.choice([a for a in range(q + 1) if math.gcd(a, q) == 1])
            edge = (a + rng.choice((-1, 1)) * Q / x3) / q * M
            pts += [(int(edge) + d) % M for d in (-1, 0, 1)]
        points[Q] = pts
    amp = []
    for X in AMP_X:
        sp = torusgrid.auto_spec_start(X, 9)
        for _ in range(4):
            amp.append((X, sp, rng.randrange(sp.Mbeta),
                        [rng.randrange(sp.Malpha) for _ in range(10)]))
    return GridInput(exact, spec, points, amp)


def grid_pass(inp: GridInput, ck: Checks, index: int) -> Dict[str, float]:
    for X in GRID_EVEN_X:
        for s in (2, 4, 6):
            est = torusgrid.even_moment_exact(X, s)
            want = counting.moment_count(X, s)
            ck(est.exact and _rel(est.value, want) <= 1e-9,
               f"even_moment_exact({X},{s})={est.value!r} vs count {want}")
    for X in GRID_HIGH_X:
        est = torusgrid.even_moment_exact(X, 12)
        want = inp.exact[X][12]
        ck(est.exact and _rel(est.value, want) <= 1e-9,
           f"even_moment_exact({X},12)={est.value!r} vs exact {want}")
    for X in GRID_HIGH_X:
        est = torusgrid.moment_estimate(X, 9, 1e-3)
        ck(est.converged and est.err_est <= 1e-3, f"moment_estimate({X},9) not converged")
        # log-convexity of s -> I_s with I_0 = 1: I_8^(9/8) <= I_9 <= sqrt(I_8 I_10)
        i8, i10 = inp.exact[X][8], inp.exact[X][10]
        lo, hi = i8 ** (9 / 8), math.sqrt(i8 * i10)
        ck(lo * (1 - 1e-3) <= est.value <= hi * (1 + 1e-3),
           f"moment_estimate({X},9)={est.value!r} outside [{lo:.6g}, {hi:.6g}]")
    qs = [2, 4, 8, 12]
    prof = torusgrid.restricted_profile(12, 12, qs, 1e-3)
    full = inp.exact[12][12]
    for Q, est in zip(qs, prof):
        ck(est.converged and est.err_est <= 1e-3, f"restricted_profile Q={Q} not converged")
        ck(0 < est.value <= full * (1 + 1e-9), f"restricted Q={Q} exceeds I_12(12)")
    for i in range(1, len(prof)):
        ck(prof[i].value <= prof[i - 1].value, f"restricted profile rises at Q={qs[i]}")
    spec = inp.mask_spec
    for Q, pts in inp.mask_points.items():
        mask = torusgrid.arc_mask(spec, Q, MASK_X)
        for i in pts:
            label = arcs.classify(FixedPhase.from_rational(i, spec.Malpha), Q, MASK_X)
            ck(bool(mask[i]) == (not label.major), f"arc_mask vs classify at i={i}, Q={Q}")
    for X, sp, j, cols in inp.amp_points:
        row = torusgrid.amplitude_row(X, sp, j)
        beta = FixedPhase.from_rational(j, sp.Mbeta)
        for i in cols:
            want = abs(phase.eval_g(FixedPhase.from_rational(i, sp.Malpha), beta, X))
            ck(abs(row[i] - want) <= 1e-9 * X, f"amplitude_row X={X} j={j} i={i}")
    return {}


# -- plan-cold / plan-warm ---------------------------------------------------

PLAN_TEMPLATE = """\
[i6-sweep]
x = 20..100
step = 20

[grid-sweep]
x = 4,8,12
s = 6

[restricted-sweep]
x = 8
s = 12
q = 2,4,8

[bounds-compare]
k = 6
x = 2048
trials = 400
seed = {bounds_seed}

[lemma22-identity]
x = 40
trials = 40
seed = {identity_seed}
"""


@dataclass
class PlanInput:
    workdir: str
    plan: str
    i6: Dict[int, int]
    i12_restricted: int
    f6: Dict[str, float]
    fourth: Dict[str, float]
    cache: Optional[str] = None
    cold_body: Optional[List[List[str]]] = None
    cache_listing: Optional[dict] = None


def _run_cli(plan: str, out: str, cache: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "--config", plan, "--out", out, "--cache-dir", cache])


def _listing(root: str) -> dict:
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(root)}


def _cache_bytes(root: str) -> int:
    return sum(size for size, _ in _listing(root).values())


def _comparable(body: List[List[str]]) -> List[List[str]]:
    """CSV rows without run_id (column 0) and wall_seconds (last column)."""
    return [row[1:-1] for row in body]


def check_plan_output(rc: int, path: str, inp: PlanInput, ck: Checks) -> List[List[str]]:
    ck(rc == 0, f"wmvlab run exit status {rc}")
    if not os.path.exists(path):
        ck(False, "wmvlab run wrote no CSV")
        return []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    body = rows[1:]
    ck(header[:1] == ["run_id"] and header[-1:] == ["wall_seconds"], "CSV header changed")
    ck(len(body) == PLAN_RECORDS, f"{len(body)} records, want {PLAN_RECORDS}")
    col = {name: i for i, name in enumerate(header)}
    by_op: Dict[str, List[List[str]]] = {}
    for row in body:
        by_op.setdefault(row[col["op"]], []).append(row)

    def val(row, name):
        return row[col[name]]

    got = {int(val(r, "X")): int(val(r, "value")) for r in by_op.get("moment_count", [])}
    ck(sorted(got) == list(PLAN_I6_X), "i6-sweep X values")
    for X in PLAN_I6_X:
        ck(got.get(X) == inp.i6[X], f"i6-sweep I6({X})={got.get(X)} vs {inp.i6[X]}")
    grid = {int(val(r, "X")): r for r in by_op.get("moment_estimate", [])}
    ck(sorted(grid) == list(PLAN_GRID_X), "grid-sweep X values")
    for X, r in grid.items():
        ck(val(r, "exact") == "true" and _rel(float(val(r, "value")), inp.i6[X]) <= 1e-9,
           f"grid-sweep X={X} value {val(r, 'value')} vs {inp.i6[X]}")
    restricted = sorted((int(val(r, "Q")), float(val(r, "value")), float(val(r, "err_est")))
                        for r in by_op.get("restricted_moment", []))
    ck([q for q, _, _ in restricted] == list(PLAN_RESTRICTED[2]), "restricted-sweep Q values")
    for q, v, err in restricted:
        ck(err <= 1e-3 and 0 < v <= inp.i12_restricted * (1 + 1e-9),
           f"restricted Q={q} value {v} err {err}")
    for (_, v0, _), (q, v1, _) in zip(restricted, restricted[1:]):
        ck(v1 <= v0, f"restricted-sweep rises at Q={q}")
    k, X, trials = PLAN_BOUNDS
    bound_rows = by_op.get("bound_values", [])
    ck(len({val(r, "alpha") for r in bound_rows}) == trials, "bounds-compare trial count")
    for r in bound_rows:
        a = val(r, "alpha")
        want = inp.f6[a] if a in inp.f6 else f_abs(a, k, X)
        ck(abs(float(val(r, "value")) - want) <= 1e-9, f"|f_6({a})| {val(r, 'value')} vs {want}")
    calib = by_op.get("bound_calibration", [])
    ck(len(calib) == 1 and 0 < float(val(calib[0], "value")) < 1,
       "bound calibration missing or bound not dominating")
    ident = by_op.get("lemma22_check", [])
    ck(len(ident) == PLAN_IDENTITY[1], "lemma22-identity trial count")
    for r in ident:
        a = val(r, "alpha")
        want = inp.fourth[a] if a in inp.fourth else beta_fourth(a, PLAN_IDENTITY[0])
        ck(float(val(r, "err_est")) <= 1e-8, f"identity deviation {val(r, 'err_est')} at {a}")
        ck(_rel(float(val(r, "value")), want) <= 1e-9, f"fourth moment {val(r, 'value')} vs {want}")
    return body


def plan_setup(seed: int, workdir: str, ck: Checks) -> PlanInput:
    plan = os.path.join(workdir, "plan.ini")
    bounds_seed, identity_seed = seed, seed + 1
    with open(plan, "w") as fh:
        fh.write(PLAN_TEMPLATE.format(bounds_seed=bounds_seed, identity_seed=identity_seed))
    k, X, trials = PLAN_BOUNDS
    xi, ti = PLAN_IDENTITY
    i6 = {}
    for x in sorted(set(PLAN_I6_X) | set(PLAN_GRID_X)):
        i6[x] = exact_moments(x, 6)[6]
    return PlanInput(
        workdir=workdir, plan=plan, i6=i6,
        i12_restricted=exact_moments(PLAN_RESTRICTED[0], PLAN_RESTRICTED[1])[PLAN_RESTRICTED[1]],
        f6={a: f_abs(a, k, X) for a in _seeded_alphas(bounds_seed, trials)},
        fourth={a: beta_fourth(a, xi) for a in _seeded_alphas(identity_seed, ti)})


def cold_pass(inp: PlanInput, ck: Checks, index: int) -> Dict[str, float]:
    d = os.path.join(inp.workdir, f"cold-{index}")
    out, cache = os.path.join(d, "out.csv"), os.path.join(d, "cache")
    os.makedirs(d)
    check_plan_output(_run_cli(inp.plan, out, cache), out, inp, ck)
    return {"runcache.cache_bytes": _cache_bytes(cache)}


def cold_cleanup(inp: PlanInput, index: int) -> None:
    shutil.rmtree(os.path.join(inp.workdir, f"cold-{index}"))


def warm_fill(inp: PlanInput, ck: Checks) -> None:
    """Fill the cache with one cold run; its checked CSV body is the
    reference every warm pass must reproduce."""
    inp.cache = os.path.join(inp.workdir, "cache")
    out = os.path.join(inp.workdir, "fill.csv")
    body = check_plan_output(_run_cli(inp.plan, out, inp.cache), out, inp, ck)
    inp.cold_body = _comparable(body)
    inp.cache_listing = _listing(inp.cache)


def warm_pass(inp: PlanInput, ck: Checks, index: int) -> Dict[str, float]:
    out = os.path.join(inp.workdir, f"warm-{index}.csv")
    body = check_plan_output(_run_cli(inp.plan, out, inp.cache), out, inp, ck)
    ck(_comparable(body) == inp.cold_body, "warm CSV body differs from the cold one")
    # a miss stores a record, so an unchanged cache means every lookup hit
    ck(_listing(inp.cache) == inp.cache_listing, "warm run wrote to the cache")
    return {"runcache.cache_bytes": _cache_bytes(inp.cache)}


def warm_cleanup(inp: PlanInput, index: int) -> None:
    os.remove(os.path.join(inp.workdir, f"warm-{index}.csv"))


@dataclass(frozen=True)
class Workload:
    setup: Callable   # (seed, workdir, checks) -> inputs; repeated per set-up sample
    run_pass: Callable  # (inputs, checks, pass index) -> extra per-layer counts
    cleanup: Optional[Callable] = None  # (inputs, pass index), after timing
    fill: Optional[Callable] = None  # (inputs, checks), the end of every set-up


WORKLOADS = {
    "counts": Workload(counts_setup, counts_pass),
    "grid": Workload(grid_setup, grid_pass),
    "plan-cold": Workload(plan_setup, cold_pass, cold_cleanup),
    "plan-warm": Workload(plan_setup, warm_pass, warm_cleanup, warm_fill),
}
