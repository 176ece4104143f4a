"""Experiment plans: parse a config file, read every item, run them, emit records.

Config format is flat INI: each [section] is one plan item, its name (or an
explicit kind= override, letting two items share a kind) selects the
experiment, and key=value lines supply its options.  Example:

    [i6-sweep]
    X = 50..400
    step = 50

    [lemma22-identity]
    X = 40
    trials = 50
    seed = 7

The whole plan is read before any of it runs: each kind's reader takes its
options, with their one set of defaults, and returns the item's cache groups.
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
Group = Tuple[List[Key], Callable[[], Sequence[Result]]]  # (cache keys, compute)
Reader = Callable[[Dict[str, str]], List[Group]]  # pops the options it reads


class PlanError(ValueError):
    """A plan that cannot be read: no file, an unknown kind, or a bad option."""


def load_plan(path: str) -> List[Item]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise PlanError(f"config file not found: {path}")
    plan = []
    for section in parser.sections():
        options = dict(parser[section])
        kind = options.pop("kind", section).strip().lower()
        plan.append((kind, options))
    return plan


def _parse_int_list(text: str, step: Optional[str] = None) -> List[int]:
    text, by = text.strip(), int(step or 1)
    if by < 1:
        raise ValueError(f"step = {by} is below 1")
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = range(int(lo), int(hi) + 1, by)
    elif by > 1:
        raise ValueError(f"step = {by} needs a lo..hi range")
    else:
        values = [int(p) for p in text.split(",") if p.strip()]
    if len(values) > LIST_CAP:
        raise ValueError(f"a list of {len(values):,} values exceeds the {LIST_CAP:,} cap")
    return list(values)


def _take(opt: Dict[str, str], key: str, default: object = int):
    """Pop option `key` and parse it: a callable `default` parses a required
    option, any other is the default value and its type parses the text."""
    parse = default if callable(default) else type(default)
    try:
        return parse(opt.pop(key) if callable(default) else opt.pop(key, default))
    except ValueError as exc:
        raise ValueError(f"option '{key}': {exc}") from None


def _alphas(seed: int, trials: int) -> List[str]:
    """The seeded angles of a sampling item, as 128-bit hex phases."""
    if not 0 <= trials <= LIST_CAP:
        raise ValueError(f"option 'trials': {trials:,} lies outside 0..{LIST_CAP:,}")
    rng = random.Random(seed)
    return [format(rng.getrandbits(128), "#034x") for _ in range(trials)]


def _cached(cache: Optional[ResultCache], keys: Sequence[Key],
            compute: Callable[[], Sequence[Result]]) -> List[RunRecord]:
    """Records for a group of (op, params) keys computed together.

    The group is the cache's unit: one lookup replays it whole, with fresh
    run ids, or misses.  On a miss compute() runs once, returns one
    (value, err_est, exact) per key, and its wall time is split evenly
    over the records, which one store writes as one file.
    """
    if cache is not None:
        hits = cache.lookup(keys)
        if hits is not None:
            return [replace(hit, run_id=new_run_id()) for hit in hits]
    t0 = time.perf_counter()
    results = compute()
    wall = (time.perf_counter() - t0) / len(keys)
    records = [RunRecord(new_run_id(), op, params, value, err_est, wall, exact)
               for (op, params), (value, err_est, exact) in zip(keys, results)]
    if cache is not None:
        cache.store(records)
    return records


def _x_sweep(op: str, evaluate: Callable[..., Result], **defaults: float) -> Reader:
    """A reader of one `op` group per X of the x list, by evaluate(X, s=6, **defaults)."""

    def read(opt: Dict[str, str]) -> List[Group]:
        xs = _take(opt, "x", lambda text: _parse_int_list(text, opt.pop("step", None)))
        args = {key: _take(opt, key, value) for key, value in {"s": 6, **defaults}.items()}
        return [([(op, params)], lambda params=params: [evaluate(**params)])
                for params in ({"X": x, **args} for x in xs)]

    return read


def _result(est: torusgrid.MomentEstimate) -> Result:
    return repr(est.value), est.err_est, est.exact


def _restricted_sweep(opt: Dict[str, str]) -> List[Group]:
    x, s, tol = _take(opt, "x"), _take(opt, "s", 12), _take(opt, "tol", 1e-3)
    qs = _take(opt, "q", lambda text: _parse_int_list(text, opt.pop("step", None)))
    if not qs:  # an empty list, such as `q =`, makes no group
        return []
    keys = [("restricted_moment", {"X": x, "s": s, "Q": q, "tol": tol}) for q in qs]
    return [(keys, lambda: [
        _result(est) for est in torusgrid.restricted_profile(x, s, qs, tol)])]


def _bounds_compare(opt: Dict[str, str]) -> List[Group]:
    k, x, eps = _take(opt, "k", 6), _take(opt, "x"), _take(opt, "eps", 0.05)
    trials, seed = _take(opt, "trials", 20), _take(opt, "seed", 0)
    alphas = _alphas(seed, trials)
    keys = [("bound_values", {"k": k, "X": x, "eps": eps, "alpha": a}) for a in alphas]
    keys.append(("bound_calibration",
                 {"k": k, "X": x, "eps": eps, "trials": trials, "seed": seed}))

    def compute() -> List[Result]:
        cmps = [bounds.bound_values(FixedPhase(int(a, 16)), x, k, eps) for a in alphas]
        worst = max([0.0] + [c.actual / c.thm13 for c in cmps])
        return [(repr(c.actual), None, None) for c in cmps] + [(repr(worst), None, None)]

    return [(keys, compute)]


def _lemma22_identity(opt: Dict[str, str]) -> List[Group]:
    x, trials, seed = _take(opt, "x", 40), _take(opt, "trials", 50), _take(opt, "seed", 0)

    def check(alpha_hex: str) -> List[Result]:
        alpha = FixedPhase(int(alpha_hex, 16))
        lhs = counting.beta_fourth_moment(alpha, x)
        rhs = counting.u_identity_rhs(alpha, x)
        return [(repr(lhs), abs(lhs - rhs) / max(abs(lhs), 1e-300), None)]

    return [([("lemma22_check", {"X": x, "trial": i, "seed": seed, "alpha": a})],
             lambda a=a: check(a)) for i, a in enumerate(_alphas(seed, trials))]


_moment_counts = _x_sweep("moment_count", lambda X, s: (
    str(counting.moment_count(X, s)), None, True))
_READERS: Dict[str, Reader] = {
    "i6-sweep": _moment_counts,
    "count-sweep": _moment_counts,
    "vinogradov-sweep": _x_sweep("vinogradov_count", lambda X, s: (
        str(counting.vinogradov_count(X, s)), None, True)),
    "brute-sweep": _x_sweep("brute_force_moment", lambda X, s: (
        str(counting.brute_force_moment(X, s)), None, True)),
    "grid-sweep": _x_sweep("moment_estimate", lambda X, s, tol: _result(
        torusgrid.moment_estimate(X, s, tol)), tol=1e-6),
    "restricted-sweep": _restricted_sweep,
    "bounds-compare": _bounds_compare,
    "lemma22-identity": _lemma22_identity,
}


def run_items(items: Sequence[Item], cache_dir: Optional[str] = None,
              out: Optional[str] = None) -> Tuple[int, List[RunRecord]]:
    """Read every plan item, then run its cache groups, through the result
    cache in `cache_dir` if given, and append the records to the CSV at `out`
    in item order; returns (failed identity checks, records).

    Every kind is checked before anything runs: an unknown kind, an option
    the kind does not take, a missing one or a malformed value raises
    PlanError, and nothing is computed, cached or written.  The sweeps make
    one group per X, lemma22-identity one per trial, the other kinds one per
    item.  A lemma22_check fails when its relative deviation is missing or
    above IDENTITY_REL_TOL.
    """
    groups: List[Group] = []
    for kind, options in items:
        if kind not in _READERS:
            raise PlanError(f"unknown experiment name: {kind}")
        opt = dict(options)
        try:
            groups += _READERS[kind](opt)
        except KeyError as exc:
            raise PlanError(f"{kind} needs option {exc}") from None
        except ValueError as exc:
            raise PlanError(f"{kind} {exc}") from None
        if opt:
            raise PlanError(f"{kind} takes no option '{next(iter(opt))}'")
    cache = ResultCache(cache_dir) if cache_dir else None
    records = [rec for keys, compute in groups for rec in _cached(cache, keys, compute)]
    if out:
        append_records(out, records)
    return sum(rec.op == "lemma22_check" and (
        rec.err_est is None or rec.err_est > IDENTITY_REL_TOL) for rec in records), records


def run_plan(config_path: str, out: Optional[str] = None,
             cache_dir: Optional[str] = None) -> Tuple[int, List[RunRecord]]:
    """Run the plan in `config_path` through run_items; returns (exit_status,
    records): 0 when every check passed, 2 when an identity check failed."""
    failures, records = run_items(load_plan(config_path), cache_dir, out)
    return (2 if failures else 0), records
