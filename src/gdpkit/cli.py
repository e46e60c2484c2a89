"""Pipeline driver: load, approximate, flatten, solve, report.

Exit codes: 0 optimal/feasible, 2 infeasible, 3 time or node budget
exhausted, 1 usage or data errors. The report is strict JSON: a
non-finite number, such as the bound of an infeasible model, is written
as null. Two runs on the same inputs differ only in timing fields.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import sys
from pathlib import Path

from .approx import ApproxPolicy, apply_approximation
from .bnb import DEFAULT_GAP, DEFAULT_TIME_LIMIT, solve_global
from .model import load_model
from .transforms import bigm_transform
from .wtn import build_wtn_gdp, load_wtn_data, relative_error

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

_STATUS_EXIT = {
    "optimal": EXIT_OK,
    "feasible": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "time_limit": EXIT_LIMIT,
    "unknown": EXIT_LIMIT,
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with usage errors exiting EXIT_USAGE, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gdpkit",
        description="Approximate, flatten and globally solve a disjunctive "
                    "model or a water treatment network instance.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", metavar="PATH", help="model file (JSON schema)")
    src.add_argument("--wtn", metavar="PATH", help="network instance file")
    p.add_argument("--approx", choices=["none", "quad", "pwl"], default="none",
                   help="strategy for power/log terms (default: none)")
    p.add_argument("--segments", type=int, default=101,
                   help="piecewise segments per term (default: 101)")
    p.add_argument("--gap", type=float, default=DEFAULT_GAP,
                   help="relative optimality gap (default: %(default)g)")
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                   help="wall clock budget in seconds (default: %(default)g)")
    p.add_argument("--reference", type=float, default=None,
                   help="reference objective for the relative error field")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    return p


def _fail(message: str) -> int:
    print(f"gdpkit: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _unwritable(path: str) -> str | None:
    """Why a write to path would fail, found without writing; else None."""
    out = Path(path)
    code = (errno.ENOENT if not out.parent.exists() else
            errno.ENOTDIR if not out.parent.is_dir() else
            errno.EISDIR if out.is_dir() else
            None if os.access(out if out.exists() else out.parent, os.W_OK)
            else errno.EACCES)
    return code and os.strerror(code)


def _finite_or_null(value):
    """The report with every non-finite float replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def run_pipeline(args: argparse.Namespace) -> int:
    if args.segments < 1:
        return _fail(f"--segments must be at least 1, got {args.segments}")
    if not args.gap >= 0.0:
        return _fail(f"--gap must be nonnegative, got {args.gap}")
    if not args.time_limit >= 0.0:
        return _fail(f"--time-limit must be nonnegative, got {args.time_limit}")
    if args.reference is not None and not (math.isfinite(args.reference)
                                           and args.reference != 0.0):
        return _fail(f"--reference must be finite and nonzero, "
                     f"got {args.reference}")
    reason = args.out and _unwritable(args.out)
    if reason:
        return _fail(f"cannot write {args.out!r}: {reason}")
    try:
        if args.wtn:
            source = args.wtn
            gdp = build_wtn_gdp(load_wtn_data(args.wtn))
        else:
            source = args.model
            gdp = load_model(Path(args.model).read_text())
        original_flat = bigm_transform(gdp)
    except OSError as exc:
        return _fail(f"cannot read {exc.filename!r}: {exc.strerror}")
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(str(exc))

    approx_report: list[dict] = []
    if args.approx == "none":
        flat = original_flat
    else:
        policy = ApproxPolicy(method=args.approx, n_segments=args.segments)
        approximated, approx_report = apply_approximation(gdp, policy)
        flat = bigm_transform(approximated)

    result = solve_global(flat, gap=args.gap, time_limit=args.time_limit)

    # the approximation adds no variables, so result.x indexes
    # original_flat too and every policy is measured on the same rows
    incumbent = original_violation = None
    if result.x is not None:
        incumbent = {v.name: float(result.x[v.id]) for v in flat.variables}
        original_violation = max((c.violation(result.x)
                                  for c in original_flat.constraints),
                                 default=0.0)

    report = {
        "input": source,
        "pipeline": {
            "approx": args.approx,
            "segments": args.segments if args.approx == "pwl" else None,
            "gap": args.gap,
            "time_limit": args.time_limit,
        },
        "sizes": {
            "original": original_flat.counts(),
            "solved": flat.counts(),
        },
        "approximation": approx_report,
        "result": {
            "status": result.status,
            "objective": result.objective,
            "bound": result.bound,
            "relative_gap": result.gap,
            "nodes": result.nodes,
            "parked": result.parked,
            "wall_time_s": result.wall_time,
            "incumbent": incumbent,
            "original_violation": original_violation,
        },
    }
    if args.reference is not None and result.objective is not None:
        report["relative_error_pct"] = relative_error(result.objective,
                                                      args.reference)

    text = json.dumps(_finite_or_null(report), indent=2,
                      allow_nan=False) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return _STATUS_EXIT.get(result.status, EXIT_LIMIT)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    args = build_parser().parse_args(argv)
    return run_pipeline(args)


if __name__ == "__main__":
    raise SystemExit(main())
