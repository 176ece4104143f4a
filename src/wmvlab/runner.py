"""Experiment plans: parse a config file, run the items, emit records.

Config format is flat INI: each [section] is one plan item, its name (or an
explicit kind= override, letting two items share a kind) selects the
experiment, and key=value lines supply parameters.  Example:

    [i6-sweep]
    X = 50..400
    step = 50

    [lemma22-identity]
    X = 40
    trials = 50
    seed = 7

Plans are idempotent through the result cache: a warm rerun replays stored
values, so CSV bodies repeat byte-for-byte apart from run_id and timing.
Identity-check failures set exit status 2; execution errors raise and the
CLI maps them to status 1.
"""

from __future__ import annotations

import configparser
import random
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import bounds, counting, torusgrid
from .phase import FixedPhase
from .runcache import ResultCache, RunRecord, append_records, new_run_id

IDENTITY_REL_TOL = 1e-8


class PlanError(ValueError):
    """Malformed config or unknown experiment name."""


def load_plan(path: str) -> List[Tuple[str, Dict[str, str]]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise PlanError(f"config file not found: {path}")
    plan = []
    for section in parser.sections():
        options = dict(parser[section])
        kind = options.pop("kind", section).strip().lower()
        plan.append((kind, options))
    return plan


def _parse_int_list(text: str, step: Optional[str] = None) -> List[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        inc = int(step) if step else 1
        return list(range(int(lo), int(hi) + 1, inc))
    return [int(p) for p in text.split(",") if p.strip()]


class _Session:
    """One run of a plan: shared cache handle and failure counter."""

    def __init__(self, cache: Optional[ResultCache]):
        self.cache = cache
        self.failures = 0

    def cached(self, op: str, params: Dict[str, object],
               compute: Callable[[], Tuple[str, Optional[float], Optional[bool]]]) -> RunRecord:
        if self.cache is not None:
            hit = self.cache.lookup(op, params)
            if hit is not None:
                return replace(hit, run_id=new_run_id())
        t0 = time.perf_counter()
        value, err_est, exact = compute()
        wall = time.perf_counter() - t0
        rec = RunRecord(new_run_id(), op, params, value, err_est, wall, exact)
        if self.cache is not None:
            self.cache.store(rec)
        return rec


def _count_sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    xs = _parse_int_list(opt["x"], opt.get("step"))
    s = int(opt.get("s", 6))
    out = []
    for x in xs:
        params = {"X": x, "s": s}
        out.append(session.cached(
            "moment_count", params,
            lambda x=x: (str(counting.moment_count(x, s)), None, True)))
    return out


def _vinogradov_sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    xs = _parse_int_list(opt["x"], opt.get("step"))
    s = int(opt.get("s", 6))
    out = []
    for x in xs:
        params = {"X": x, "s": s}
        out.append(session.cached(
            "vinogradov_count", params,
            lambda x=x: (str(counting.vinogradov_count(x, s)), None, True)))
    return out


def _grid_sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    xs = _parse_int_list(opt["x"], opt.get("step"))
    s = int(opt.get("s", 6))
    tol = float(opt.get("tol", "1e-6"))
    out = []
    for x in xs:
        params = {"X": x, "s": s, "tol": tol}

        def compute(x=x):
            est = torusgrid.moment_estimate(x, s, tol)
            return repr(est.value), est.err_est, est.exact

        out.append(session.cached("moment_estimate", params, compute))
    return out


def _restricted_sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    x = int(opt["x"])
    s = int(opt.get("s", 12))
    tol = float(opt.get("tol", "1e-3"))
    qs = _parse_int_list(opt["q"], opt.get("step"))
    params_for = {q: {"X": x, "s": s, "Q": q, "tol": tol} for q in qs}
    hits: Dict[int, RunRecord] = {}
    missing: List[int] = []
    for q in qs:
        rec = session.cache.lookup("restricted_moment", params_for[q]) if session.cache else None
        if rec is None:
            missing.append(q)
        else:
            hits[q] = replace(rec, run_id=new_run_id())
    if missing:
        t0 = time.perf_counter()
        ests = torusgrid.restricted_profile(x, s, missing, tol)
        wall = (time.perf_counter() - t0) / len(missing)
        for q, est in zip(missing, ests):
            rec = RunRecord(new_run_id(), "restricted_moment", params_for[q],
                            repr(est.value), est.err_est, wall, est.exact)
            if session.cache is not None:
                session.cache.store(rec)
            hits[q] = rec
    return [hits[q] for q in qs]


def _bounds_compare(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    k = int(opt.get("k", 6))
    x = int(opt["x"])
    eps = float(opt.get("eps", "0.05"))
    trials = int(opt.get("trials", 20))
    seed = int(opt.get("seed", 0))
    rng = random.Random(seed)
    out = []
    ratios: Dict[int, float] = {}  # actual/thm13 of the trials computed here
    for i in range(trials):
        alpha_hex = format(rng.getrandbits(128), "#034x")
        params = {"k": k, "X": x, "eps": eps, "alpha": alpha_hex}

        def compute(i=i, alpha_hex=alpha_hex):
            cmp_ = bounds.bound_values(FixedPhase(int(alpha_hex, 16)), x, k, eps)
            ratios[i] = cmp_.actual / cmp_.thm13
            return repr(cmp_.actual), None, None

        out.append(session.cached("bound_values", params, compute))

    def calibrate():
        # only trials replayed from the cache need their ratio recomputed
        worst = max([0.0] + [ratios[i] if i in ratios else _bound_ratio(rec, x, k, eps)
                             for i, rec in enumerate(out)])
        return repr(worst), None, None

    out.append(session.cached(
        "bound_calibration", {"k": k, "X": x, "eps": eps, "trials": trials, "seed": seed},
        calibrate))
    return out


def _bound_ratio(rec: RunRecord, x: int, k: int, eps: float) -> float:
    alpha = FixedPhase(int(rec.params["alpha"], 16))
    cmp_ = bounds.bound_values(alpha, x, k, eps)
    return cmp_.actual / cmp_.thm13


def _lemma22_identity(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    x = int(opt.get("x", 40))
    trials = int(opt.get("trials", 50))
    seed = int(opt.get("seed", 0))
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        alpha_hex = format(rng.getrandbits(128), "#034x")
        params = {"X": x, "trial": i, "seed": seed, "alpha": alpha_hex}

        def compute(alpha_hex=alpha_hex):
            alpha = FixedPhase(int(alpha_hex, 16))
            lhs = counting.beta_fourth_moment(alpha, x)
            rhs = counting.u_identity_rhs(alpha, x)
            rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            return repr(lhs), rel, None

        rec = session.cached("lemma22_check", params, compute)
        if rec.err_est is None or rec.err_est > IDENTITY_REL_TOL:
            session.failures += 1
        out.append(rec)
    return out


_HANDLERS: Dict[str, Callable[[_Session, Dict[str, str]], List[RunRecord]]] = {
    "i6-sweep": _count_sweep,
    "count-sweep": _count_sweep,
    "vinogradov-sweep": _vinogradov_sweep,
    "grid-sweep": _grid_sweep,
    "restricted-sweep": _restricted_sweep,
    "bounds-compare": _bounds_compare,
    "lemma22-identity": _lemma22_identity,
}


def run_plan(config_path: str, out: Optional[str] = None,
             cache_dir: Optional[str] = None) -> Tuple[int, List[RunRecord]]:
    """Execute every plan item in file order; returns (exit_status, records).

    Status 0: everything ran and all checks passed.  Status 2: at least one
    identity check failed.  Malformed plans raise PlanError (the CLI turns
    any exception into status 1).  Records are appended to the CSV at `out`
    through a single writer, in plan order.
    """
    plan = load_plan(config_path)
    for kind, _ in plan:
        if kind not in _HANDLERS:
            raise PlanError(f"unknown experiment name: {kind}")
    session = _Session(ResultCache(cache_dir) if cache_dir else None)
    records: List[RunRecord] = []
    for kind, opt in plan:
        records.extend(_HANDLERS[kind](session, opt))
    if out:
        append_records(out, records)
    return (2 if session.failures else 0), records
