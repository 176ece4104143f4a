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
from .runcache import Key, ResultCache, RunRecord, append_records, new_run_id

IDENTITY_REL_TOL = 1e-8
LIST_CAP = 10 ** 6  # values in a list from outside input, sized before it is built

Item = Tuple[str, Dict[str, str]]  # (kind, options) of one plan section
Result = Tuple[str, Optional[float], Optional[bool]]  # (value, err_est, exact)


class PlanError(ValueError):
    """Malformed config or unknown experiment name."""


def load_plan(path: str) -> List[Item]:
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
        values = range(int(lo), int(hi) + 1, int(step) if step else 1)
    else:
        values = [int(p) for p in text.split(",") if p.strip()]
    if len(values) > LIST_CAP:
        raise ValueError(f"a list of {len(values):,} values exceeds the {LIST_CAP:,} cap")
    return list(values)


class _Session:
    """One run of plan items: shared cache handle and failure counter."""

    def __init__(self, cache: Optional[ResultCache]):
        self.cache = cache
        self.failures = 0

    def cached(self, keys: Sequence[Key],
               compute: Callable[[], Sequence[Result]]) -> List[RunRecord]:
        """Records for a group of (op, params) keys computed together.

        The group is the cache's unit: one lookup replays it whole, with
        fresh run ids, or misses.  On a miss compute() runs once, returns
        one (value, err_est, exact) per key, and its wall time is split
        evenly over the records, which one store writes as one file.
        """
        if not keys:  # an item with an empty list, such as `q =`
            return []
        if self.cache is not None:
            hits = self.cache.lookup(keys)
            if hits is not None:
                return [replace(hit, run_id=new_run_id()) for hit in hits]
        t0 = time.perf_counter()
        results = compute()
        wall = (time.perf_counter() - t0) / len(keys)
        records = [RunRecord(new_run_id(), op, params, value, err_est, wall, exact)
                   for (op, params), (value, err_est, exact) in zip(keys, results)]
        if self.cache is not None:
            self.cache.store(records)
        return records


Handler = Callable[[_Session, Dict[str, str]], List[RunRecord]]


def _x_sweep(op: str, evaluate: Callable[..., Result], tol: bool = False) -> Handler:
    """A handler that makes one `op` record per X of the item's x list, from
    evaluate(X, s) (or evaluate(X, s, tol) when `tol`)."""

    def sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
        args: Dict[str, object] = {"s": int(opt.get("s", 6))}
        if tol:
            args["tol"] = float(opt.get("tol", "1e-6"))
        out = []
        for x in _parse_int_list(opt["x"], opt.get("step")):
            params = {"X": x, **args}
            out += session.cached([(op, params)], lambda: [evaluate(**params)])
        return out

    return sweep


def _result(est: torusgrid.MomentEstimate) -> Result:
    return repr(est.value), est.err_est, est.exact


def _restricted_sweep(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    x = int(opt["x"])
    s = int(opt.get("s", 12))
    tol = float(opt.get("tol", "1e-3"))
    qs = _parse_int_list(opt["q"], opt.get("step"))
    keys = [("restricted_moment", {"X": x, "s": s, "Q": q, "tol": tol}) for q in qs]
    return session.cached(keys, lambda: [
        _result(est) for est in torusgrid.restricted_profile(x, s, qs, tol)])


def _bounds_compare(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    k = int(opt.get("k", 6))
    x = int(opt["x"])
    eps = float(opt.get("eps", "0.05"))
    trials = int(opt.get("trials", 20))
    seed = int(opt.get("seed", 0))
    rng = random.Random(seed)
    alphas = [format(rng.getrandbits(128), "#034x") for _ in range(trials)]
    keys = [("bound_values", {"k": k, "X": x, "eps": eps, "alpha": a}) for a in alphas]
    keys.append(("bound_calibration",
                 {"k": k, "X": x, "eps": eps, "trials": trials, "seed": seed}))

    def compute() -> List[Result]:
        cmps = [bounds.bound_values(FixedPhase(int(a, 16)), x, k, eps) for a in alphas]
        worst = max([0.0] + [c.actual / c.thm13 for c in cmps])
        return [(repr(c.actual), None, None) for c in cmps] + [(repr(worst), None, None)]

    return session.cached(keys, compute)


def _lemma22_identity(session: _Session, opt: Dict[str, str]) -> List[RunRecord]:
    x = int(opt.get("x", 40))
    trials = int(opt.get("trials", 50))
    seed = int(opt.get("seed", 0))
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        alpha_hex = format(rng.getrandbits(128), "#034x")

        def compute() -> List[Result]:
            alpha = FixedPhase(int(alpha_hex, 16))
            lhs = counting.beta_fourth_moment(alpha, x)
            rhs = counting.u_identity_rhs(alpha, x)
            return [(repr(lhs), abs(lhs - rhs) / max(abs(lhs), 1e-300), None)]

        params = {"X": x, "trial": i, "seed": seed, "alpha": alpha_hex}
        out += session.cached([("lemma22_check", params)], compute)
    session.failures += sum(rec.err_est is None or rec.err_est > IDENTITY_REL_TOL
                            for rec in out)
    return out


_moment_counts = _x_sweep("moment_count", lambda X, s: (
    str(counting.moment_count(X, s)), None, True))
_HANDLERS: Dict[str, Handler] = {
    "i6-sweep": _moment_counts,
    "count-sweep": _moment_counts,
    "vinogradov-sweep": _x_sweep("vinogradov_count", lambda X, s: (
        str(counting.vinogradov_count(X, s)), None, True)),
    "brute-sweep": _x_sweep("brute_force_moment", lambda X, s: (
        str(counting.brute_force_moment(X, s)), None, True)),
    "grid-sweep": _x_sweep("moment_estimate", lambda X, s, tol: _result(
        torusgrid.moment_estimate(X, s, tol)), tol=True),
    "restricted-sweep": _restricted_sweep,
    "bounds-compare": _bounds_compare,
    "lemma22-identity": _lemma22_identity,
}


def run_items(items: Sequence[Item], cache_dir: Optional[str] = None,
              out: Optional[str] = None) -> Tuple[int, List[RunRecord]]:
    """Run plan items in order, through the result cache in `cache_dir` if
    given; returns (failed identity checks, records).  Once every item has
    run, the records are appended to the CSV at `out` in item order.

    Every kind is checked before anything runs: an unknown one raises
    PlanError.  Each item's records are one cache group, and one cache
    file, per X for the sweeps, per trial for lemma22-identity, and one
    for a whole restricted-sweep or bounds-compare item.
    """
    for kind, _ in items:
        if kind not in _HANDLERS:
            raise PlanError(f"unknown experiment name: {kind}")
    session = _Session(ResultCache(cache_dir) if cache_dir else None)
    records: List[RunRecord] = []
    for kind, opt in items:
        records.extend(_HANDLERS[kind](session, opt))
    if out:
        append_records(out, records)
    return session.failures, records


def run_plan(config_path: str, out: Optional[str] = None,
             cache_dir: Optional[str] = None) -> Tuple[int, List[RunRecord]]:
    """Execute every plan item in file order; returns (exit_status, records).

    Status 0: everything ran and all checks passed.  Status 2: at least one
    identity check failed.  Malformed plans raise PlanError (the CLI turns
    any exception into status 1).  Records are appended to the CSV at `out`
    by run_items, in plan order.
    """
    failures, records = run_items(load_plan(config_path), cache_dir, out)
    return (2 if failures else 0), records
