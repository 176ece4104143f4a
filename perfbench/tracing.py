"""Spans around calls into wmvlab's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every name a caller
looks it up by: the defining module, every wmvlab module that imported it
by name (so `bounds.eval_f`, `cli.run_plan` and the package namespace are
covered), and the class attribute for `ResultCache` methods.  Nothing in
`src/` is edited.  `uninstall()` puts the originals back after each traced
pass, so set-up and untraced runs use the program exactly as shipped.

Deliberately not wrapped: `phase.unit` and `phase.kahan_add` (millions of
calls per pass; their cost shows as self time of `eval_f`,
`beta_fourth_moment` and `u_identity_rhs`), the private helpers between the
public functions, and `fitting` (microseconds per pass).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute path); the span name is <module>.<function>.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("counting.moment_count", "wmvlab.counting", "moment_count"),
    ("counting.vinogradov_count", "wmvlab.counting", "vinogradov_count"),
    ("counting.brute_force_moment", "wmvlab.counting", "brute_force_moment"),
    ("counting.beta_fourth_moment", "wmvlab.counting", "beta_fourth_moment"),
    ("counting.u_identity_rhs", "wmvlab.counting", "u_identity_rhs"),
    ("torusgrid.amplitude_row", "wmvlab.torusgrid", "amplitude_row"),
    ("torusgrid.moment_estimate", "wmvlab.torusgrid", "moment_estimate"),
    ("torusgrid.restricted_profile", "wmvlab.torusgrid", "restricted_profile"),
    ("torusgrid.even_moment_exact", "wmvlab.torusgrid", "even_moment_exact"),
    ("torusgrid.arc_mask", "wmvlab.torusgrid", "arc_mask"),
    ("arcs.classify", "wmvlab.arcs", "classify"),
    ("arcs.dirichlet_approx", "wmvlab.arcs", "dirichlet_approx"),
    ("phase.eval_f", "wmvlab.phase", "eval_f"),
    ("bounds.bound_values", "wmvlab.bounds", "bound_values"),
    ("bounds.k_counts", "wmvlab.bounds", "k_counts"),
    ("runcache.lookup", "wmvlab.runcache", "ResultCache.lookup"),
    ("runcache.store", "wmvlab.runcache", "ResultCache.store"),
    ("runcache.append_records", "wmvlab.runcache", "append_records"),
    ("runner.run_plan", "wmvlab.runner", "run_plan"),
    ("cli.main", "wmvlab.cli", "main"),
)

# Refinement drivers whose amplitude-row children define grid levels.
_GRID_DRIVERS = ("torusgrid.moment_estimate", "torusgrid.restricted_profile",
                 "torusgrid.even_moment_exact")


def _span_extra(name: str, args: tuple, result) -> object:
    """A per-call count taken where the work happens."""
    if name == "torusgrid.amplitude_row":
        return args[1].Malpha  # alpha points computed by this row
    if name == "runcache.lookup":
        return result is not None  # cache hit
    return None


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one span adds to a call: a wrapped no-op timed against the
    bare no-op, median of `repeats` rounds of `calls` calls each."""

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Tracer:
    """In-memory span store.  A span is (id, name, start, end, parent, pass)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.extras: Dict[int, object] = {}
        self.pass_id = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        extras = self.extras
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.pass_id))
                extra = _span_extra(name, args, result)
                if extra is not None:
                    extras[sid] = extra

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wmvlab" or n.startswith("wmvlab."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pass_id in self.spans:
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "pass": pass_id}
                if sid in self.extras:
                    row["extra"] = self.extras[sid]
                fh.write(json.dumps(row) + "\n")

    def layer_stats(self, pass_id: int) -> Dict[str, float]:
        """Per-layer counts and times for one pass, computed from its spans.

        self_s is a span's duration minus the time its child spans cover;
        total_s sums whole durations (no traced function recurses)."""
        spans = [s for s in self.spans if s[5] == pass_id]
        child_time: Dict[int, float] = {}
        for sid, _name, start, end, parent, _p in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        for sid, name, start, end, _parent, _p in spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)

        out: Dict[str, float] = {}
        for name, _m, _a in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.total_s"] = total_s.get(name, 0.0)

        drivers = {s[0] for s in spans if s[1] in _GRID_DRIVERS}
        levels: Dict[int, set] = {}
        points = hits = lookups = 0
        for sid, name, _s, _e, parent, _p in spans:
            if name == "torusgrid.amplitude_row":
                points += self.extras[sid]
                if parent in drivers:
                    levels.setdefault(parent, set()).add(self.extras[sid])
            elif name == "runcache.lookup":
                lookups += 1
                hits += bool(self.extras.get(sid))
        out["torusgrid.amplitude_row.points"] = points
        out["torusgrid.levels"] = sum(len(v) for v in levels.values())
        out["runcache.hits"] = hits
        out["runcache.misses"] = lookups - hits
        out["runcache.hit_ratio"] = hits / lookups if lookups else 0.0
        return out
