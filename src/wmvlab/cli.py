"""Command-line front end.

Subcommands: count, grid, restricted, arcs, bounds, identity, fit, run.
count, grid, restricted, `bounds compare`, identity and run take --out (CSV
target) and --cache-dir; `bounds compare --alpha` prints one angle's bound
table and refuses both, as well as --trials and --seed; `bounds curves`
takes --out alone.  `bounds compare` and `identity` also take --seed for
their sampled angles.
Exit status: 0 all good, 2 a check failed, 1 execution error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional, Tuple

from . import bounds as bounds_mod
from . import fitting
from .arcs import classify
from .phase import SCALE, FixedPhase
from .runcache import RunRecord
from .runner import LIST_CAP, run_items, run_plan


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for failed checks here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def parse_alpha(text: str) -> FixedPhase:
    """Accept '0x…' (raw 128-bit phase), 'a/q', or a decimal string."""
    text = text.strip()
    if text.lower().startswith("0x"):
        value = int(text, 16)
        if not 0 <= value < SCALE:
            raise ValueError("hex phase out of [0, 2^128)")
        return FixedPhase(value)
    return FixedPhase.from_real(text)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="append results to this CSV file")
    sub.add_argument("--cache-dir", help="result cache directory")


def _run_item(args, kind: str, **opt) -> Tuple[int, List[RunRecord]]:
    """Run one plan item from the flags given (None: the plan's default),
    appending its records to --out; returns (failed identity checks, records)."""
    return run_items([(kind, {k: str(v) for k, v in opt.items() if v is not None})],
                     args.cache_dir, args.out)


def _cmd_count(args) -> int:
    kind = {"moment": "count"}.get(args.op, args.op) + "-sweep"
    for rec in _run_item(args, kind, x=args.X, s=args.s)[1]:
        print(f"{rec.op}(X={rec.params['X']}, s={rec.params['s']}) = {rec.value}")
    return 0


def _cmd_grid(args) -> int:
    for rec in _run_item(args, "grid-sweep", x=args.X, s=args.s, tol=args.tol)[1]:
        err = "" if rec.err_est is None else f" err_est={rec.err_est:.3g}"
        print(f"moment_estimate(X={rec.params['X']}, s={rec.params['s']}) = "
              f"{rec.value}{err} exact={rec.exact}")
    return 0


def _cmd_restricted(args) -> int:
    for rec in _run_item(args, "restricted-sweep", x=args.X, s=args.s, q=args.Q,
                         tol=args.tol)[1]:
        print(f"restricted_moment(X={rec.params['X']}, s={rec.params['s']}, "
              f"Q={rec.params['Q']}) = {rec.value} err_est={rec.err_est:.3g}")
    return 0


def _cmd_arcs(args) -> int:
    alpha = parse_alpha(args.alpha)
    label = classify(alpha, args.Q, args.X)
    print(str(label))
    return 0


def _cmd_bounds(args) -> int:
    if args.bounds_cmd == "compare":
        if args.alpha is not None:
            if args.out is not None or args.cache_dir is not None:
                raise ValueError("--alpha prints one angle's bound table, which the CSV "
                                 "schema cannot hold: it takes neither --out nor --cache-dir")
            for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
                if value is not None:
                    raise ValueError(f"--alpha prints the bound table of the one angle given "
                                     f"and samples none: it takes no {flag}")
            cmp_ = bounds_mod.bound_values(parse_alpha(args.alpha), args.X,
                                           args.k, args.eps)
            print(f"thm13     = {cmp_.thm13:.6g}")
            print(f"hb15      = {cmp_.hb15:.6g}")
            print(f"classical = {cmp_.classical:.6g}")
            print(f"actual    = {cmp_.actual:.6g}  at a/q = {cmp_.a}/{cmp_.q}")
            return 0
        records = _run_item(args, "bounds-compare", k=args.k, x=args.X, eps=args.eps,
                            trials=args.trials, seed=args.seed)[1]
        for rec in records:
            print(f"{rec.op} {rec.params.get('alpha', '')} value={rec.value}")
        return 0
    # curves
    grid = _theta_grid(args.theta)
    profiles = bounds_mod.exponent_curves(args.k, grid)
    rows = [["theta", "exp_classical", "exp_hb", "exp_thm13"]]
    rows += [[repr(p.theta), repr(p.exp_classical), repr(p.exp_hb), repr(p.exp_thm13)]
             for p in profiles]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


def _theta_grid(spec: str) -> List[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("theta grid must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("step must be positive")
    if lo > hi:
        raise ValueError(f"theta grid lo = {lo} exceeds hi = {hi}")
    n = int(round((hi - lo) / step))
    if n + 1 > LIST_CAP:
        raise ValueError(f"a theta grid of {n + 1:,} values exceeds the {LIST_CAP:,} cap")
    grid = [lo + i * step for i in range(n + 1)]
    # a point past hi by rounding alone (0.1 + 29 * 0.1 > 3) is hi itself
    return [min(t, hi) for t in grid if t <= hi + 1e-12]


def _cmd_identity(args) -> int:
    failures, records = _run_item(args, "lemma22-identity", x=args.X,
                                  trials=args.trials, seed=args.seed)
    worst = max((r.err_est or 0.0 for r in records), default=0.0)
    print(f"{len(records)} identity checks, {failures} failures, "
          f"worst relative deviation {worst:.3g}")
    return 2 if failures else 0


def _read_points(path: str) -> List[Tuple[float, float]]:
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "X" not in reader.fieldnames \
                or "value" not in reader.fieldnames:
            raise ValueError("input CSV needs X and value columns")
        for row in reader:
            if row["X"] and row["value"]:
                points.append((float(row["X"]), float(row["value"])))
    return points


def _cmd_fit(args) -> int:
    points = _read_points(args.infile)
    if args.fit_cmd == "powerlaw":
        res = fitting.fit_powerlaw(points)
        print(f"slope = {res.slope:.6f}")
        print(f"intercept = {res.intercept:.6f}")
        print(f"r_squared = {res.r_squared:.6f}  (n = {res.n_points})")
    else:
        a, b, residual = fitting.fit_segre(points)
        print(f"a = {a:.6f}")
        print(f"b = {b:.6f}")
        print(f"max relative residual = {residual:.3g}")
    return 0


def _cmd_run(args) -> int:
    status, records = run_plan(args.config, out=args.out, cache_dir=args.cache_dir)
    print(f"{len(records)} records, exit status {status}")
    return status


def build_parser() -> _Parser:
    parser = _Parser(prog="wmvlab",
                     description="cubic Weyl sum laboratory")
    subs = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = subs.add_parser("count", help="exact moment / system counts")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--op", choices=["moment", "vinogradov", "brute"],
                   default="moment")
    _common(p)
    p.set_defaults(fn=_cmd_count)

    p = subs.add_parser("grid", help="torus-grid moment quadrature")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--tol", type=float)
    _common(p)
    p.set_defaults(fn=_cmd_grid)

    p = subs.add_parser("restricted", help="minor-arc restricted moments")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--Q", required=True, help="cutoff(s): '8' or '2,4,8'")
    p.add_argument("--tol", type=float)
    _common(p)
    p.set_defaults(fn=_cmd_restricted)

    p = subs.add_parser("arcs", help="arc dissection")
    arc_subs = p.add_subparsers(dest="arcs_cmd", required=True,
                                parser_class=_Parser)
    pc = arc_subs.add_parser("classify")
    pc.add_argument("--alpha", required=True)
    pc.add_argument("--Q", required=True)
    pc.add_argument("--X", type=int, required=True)
    pc.set_defaults(fn=_cmd_arcs)

    p = subs.add_parser("bounds", help="Weyl-sum bound calculus")
    b_subs = p.add_subparsers(dest="bounds_cmd", required=True,
                              parser_class=_Parser)
    pb = b_subs.add_parser("compare")
    pb.add_argument("--k", type=int, default=6)
    pb.add_argument("--X", type=int, required=True)
    pb.add_argument("--eps", type=float, default=0.05)
    pb.add_argument("--alpha", help="single angle; omit to sample --trials")
    pb.add_argument("--trials", type=int, help="sampled angles")
    pb.add_argument("--seed", type=int, help="sampling seed")
    _common(pb)
    pb.set_defaults(fn=_cmd_bounds)
    pb2 = b_subs.add_parser("curves")
    pb2.add_argument("--k", type=int, default=6)
    pb2.add_argument("--theta", default="0:3:0.05", help="grid lo:hi:step")
    pb2.add_argument("--out", help="write the curves to this CSV file, not stdout")
    pb2.set_defaults(fn=_cmd_bounds)

    p = subs.add_parser("identity", help="two-sided fourth-moment identity checks")
    p.add_argument("--X", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _common(p)
    p.set_defaults(fn=_cmd_identity)

    p = subs.add_parser("fit", help="exponent fitting on CSV output")
    f_subs = p.add_subparsers(dest="fit_cmd", required=True,
                              parser_class=_Parser)
    for name in ("powerlaw", "segre"):
        pf = f_subs.add_parser(name)
        pf.add_argument("--in", dest="infile", required=True,
                        help="CSV with X and value columns")
        pf.set_defaults(fn=_cmd_fit)

    p = subs.add_parser("run", help="execute an experiment plan")
    p.add_argument("--config", required=True)
    _common(p)
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        return 1
    except Exception as exc:  # execution error -> status 1
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
