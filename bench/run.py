#!/usr/bin/env python3
"""Solver benchmark: generated water-treatment networks through gdpkit's
public pipeline (build_wtn_gdp, apply_approximation, bigm_transform,
solve_global), with every operation checked apart from the program.

    python3 bench/run.py --workload wtn-quad --seed 1 --seconds 30 --trace 0

A run repeats whole rounds (every operation of the workload once, in an
order drawn from --seed) until --seconds have passed, checks every
operation, and prints one JSON line: end-to-end metrics with --trace 0
(per operation the median over rounds, summed over the operations), or
the per-layer metrics of the median round with --trace 1, which also
writes its spans to bench/out/. Before each solve, an untraced run
also times set-ups of that operation alone for SETUP_SECONDS; setup_s
comes from those.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# the program under test is the checkout's own source tree
sys.path.insert(0, str(SRC))
import gdpkit  # noqa: E402

if SRC.resolve() not in Path(gdpkit.__file__).resolve().parents:
    raise SystemExit(f"gdpkit was imported from {gdpkit.__file__}, not {SRC}")

import numpy as np  # noqa: E402
from gdpkit import (ApproxPolicy, apply_approximation, bigm_transform,  # noqa: E402
                    build_wtn_gdp, parse_wtn_data, solve_global)
from gdpkit.lp import lp_solve  # noqa: E402
from gdpkit.model import BINARY  # noqa: E402
from gdpkit.relax import build_lp_relaxation  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import GAP, WORKLOADS, Operation, operations, round_order  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class IncumbentClock(logging.Handler):
    """Reads the solver's per-node progress log: the time, from reset(),
    of the first line that reports an incumbent."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.start = 0.0
        self.seconds: float | None = None

    def reset(self) -> None:
        self.seconds = None
        self.start = time.perf_counter()

    def emit(self, record: logging.LogRecord) -> None:
        if self.seconds is None and "incumbent=none" not in record.getMessage():
            self.seconds = time.perf_counter() - self.start


WARMUP_S = 2.0
SETUP_SECONDS = 0.05  # set-up timing before each solve


def set_up(op: Operation, tracer: Tracer):
    """build_wtn_gdp, apply_approximation and bigm_transform, each in
    its span; returns the approximation report and the flat model."""
    data = parse_wtn_data(op.instance)
    policy = (ApproxPolicy("quad") if op.method == "quad"
              else ApproxPolicy("pwl", n_segments=op.segments))
    with tracer.span("wtn.build"):
        gdp = build_wtn_gdp(data)
    with tracer.span("approx.apply") as sp:
        model, report = apply_approximation(gdp, policy)
    with tracer.span("transforms.bigm") as sq:
        flat = bigm_transform(model)
    binaries = sum(v.kind == BINARY for v in model.variables)
    sp.counts.update(added_vars=len(model.variables) - len(gdp.variables),
                     added_binaries=binaries - sum(v.kind == BINARY
                                                   for v in gdp.variables))
    sq.counts["rows"] = len(flat.constraints)
    return report, flat


def run_operation(op: Operation, tracer: Tracer, clock: IncumbentClock | None,
                  log_every: int) -> dict:
    """Set an instance up and solve it; returns the operation's metrics
    and outputs."""
    report, flat = set_up(op, tracer)
    if clock is not None:
        clock.reset()
    t1 = time.perf_counter()
    with tracer.span("bnb.solve") as sr:
        res = solve_global(flat, gap=GAP, node_limit=op.node_limit, workers=1,
                           log_every=log_every)
    t2 = time.perf_counter()
    sr.counts["nodes"] = res.nodes
    metrics = {"solve_s": t2 - t1, "nodes": res.nodes}
    if clock is not None:
        metrics["first_incumbent_s"] = (t2 - t1 if clock.seconds is None
                                        else clock.seconds)
    return {"metrics": metrics, "flat": flat, "report": report, "result": res}


def time_setups(op: Operation, times: list[float]) -> None:
    """Set op up until SETUP_SECONDS have passed, at least once; appends
    each set-up time to times."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        set_up(op, Tracer())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= SETUP_SECONDS:
            return


def warm_up(op: Operation) -> None:
    """Untimed: the first seconds of solving in a fresh process run
    slower, so a short capped solve comes before the timed rounds."""
    flat = set_up(op, Tracer())[1]
    solve_global(flat, gap=GAP, time_limit=WARMUP_S, node_limit=op.node_limit,
                 workers=1)


def root_checks(flat) -> tuple[list[str], float | None]:
    """The root LP the solver starts from, and the same LP with every
    unit switched on, each solved by the program and by HiGHS. Switched
    on, each unit's fixed cost counts, so that LP's optimum is not zero
    even where the root's is. Returns the problems and the root value."""
    lo = np.array([v.lower for v in flat.variables])
    hi = np.array([v.upper for v in flat.variables])
    root_lp = build_lp_relaxation(flat, lo, hi)
    units = [k for k, v in enumerate(flat.variables)
             if v.name.startswith("y[Y[")]
    lo[units] = hi[units] = 1.0
    on_lp = build_lp_relaxation(flat, lo, hi)
    problems, values = [], []
    for label, lp in (("root LP", root_lp), ("LP with every unit on", on_lp)):
        sol = lp_solve(lp)
        values.append(sol.objective)
        problems += [f"{label}: {p}" for p in checks.check_root_value(
            sol.status, sol.objective, *checks.highs_value(lp))]
    return problems, values[0]


def check_operation(op: Operation, outcome: dict, rng: np.random.Generator,
                    roots: dict) -> list[str]:
    """Every independent check that applies to the operation's kind.
    roots caches the root check of each bound operation's instance."""
    net = checks.Network(op.instance)
    flat, res = outcome["flat"], outcome["result"]
    if op.kind == "design":
        if res.status != "optimal":
            return [f"status {res.status}, expected optimal"]
        values = checks.design_values(flat.variables, res.x)
        errors = {t: e["max_abs_error"] for e in outcome["report"]
                  for t in net.units if e["var"] == f"Fin[{t}]"}
        g = checks.approx_function(op.method, op.segments, net.total_feed)
        return (checks.check_physics(net, values)
                + checks.check_cost(net, values, res.objective, errors)
                + checks.check_gap(res.objective, res.bound, GAP)
                + checks.check_local_search(net, g, res.objective, GAP, rng))

    problems: list[str] = []
    if res.status not in ("unknown", "feasible", "optimal"):
        problems.append(f"status {res.status} at the node cap")
    if op.name not in roots:
        roots[op.name] = root_checks(flat)
    root_problems, root = roots[op.name]
    problems += root_problems
    if not root_problems:
        problems += checks.check_capped_bound(res.bound, root)
    if res.x is not None:
        problems += checks.check_physics(net, checks.design_values(flat.variables,
                                                                   res.x))
        problems += checks.check_gap(res.objective, res.bound, math.inf)
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        progress_log: bool = True) -> dict:
    """Warm up, run whole rounds for `seconds`, then check every
    operation. Checks run after the timed rounds so that the solves
    run back to back."""
    ops = operations(workload)
    order_rng = random.Random(seed)
    check_rng = np.random.default_rng(seed)
    tracer = Tracer()
    clock = IncumbentClock() if progress_log else None
    bnb_log = logging.getLogger("gdpkit.bnb")
    saved_log = bnb_log.level, bnb_log.propagate
    if clock is not None:
        bnb_log.addHandler(clock)
        bnb_log.setLevel(logging.INFO)
        bnb_log.propagate = False

    done: list[tuple[Operation, dict | None]] = []
    flats: dict = {}  # one flat model per operation: set-up is deterministic
    round_layers: list[dict] = []
    setup_times: dict[str, list[float]] = {}
    problems: dict[int, list[str]] = {}
    warm_up(ops[0])
    start = time.perf_counter()
    try:
        with tracer.install() if trace else nullcontext():
            while not round_layers or time.perf_counter() - start < seconds:
                first = len(tracer.spans)
                for op in round_order(ops, order_rng):
                    if not trace:
                        time_setups(op, setup_times.setdefault(op.name, []))
                    try:
                        outcome = run_operation(op, tracer, clock,
                                                1 if progress_log else 100)
                        outcome["flat"] = flats.setdefault(op.name,
                                                           outcome["flat"])
                    except Exception:
                        problems[len(done)] = [traceback.format_exc()]
                        outcome = None
                    done.append((op, outcome))
                round_layers.append(layer_metrics(tracer.spans, first)
                                    if trace else {})
        # before the checks, which load scipy.optimize and HiGHS
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if clock is not None:
            bnb_log.removeHandler(clock)
        bnb_log.setLevel(saved_log[0])
        bnb_log.propagate = saved_log[1]

    roots: dict = {}
    for k, (op, outcome) in enumerate(done):
        if outcome is not None:
            try:
                found = check_operation(op, outcome, check_rng, roots)
            except Exception:
                found = [traceback.format_exc()]
            if found:
                problems[k] = found
    for k, found in problems.items():
        print(f"FAILED {done[k][0].name}: " + "; ".join(found), file=sys.stderr)

    # per operation, the median over rounds; summed over the operations
    samples: dict[str, dict[str, list[float]]] = {}
    for op, outcome in done:
        for key, value in (outcome["metrics"] if outcome else {}).items():
            samples.setdefault(key, {}).setdefault(op.name, []).append(value)
    for key in ("solve_s", "first_incumbent_s"):
        per_round = zip(*samples.get(key, {}).values())
        print(f"{workload} seed {seed}: {key} per round "
              + " ".join(f"{sum(r):.4g}" for r in per_round), file=sys.stderr)

    if trace:
        # the round with the median solve time, so its layers add up
        ranked = sorted(round_layers, key=lambda m: m["bnb.solve_s"])
        layers = ranked[(len(ranked) - 1) // 2]
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    else:
        metrics = {key: {"value": sum(statistics.median(v)
                                      for v in per_op.values()),
                         "unit": UNITS[key]}
                   for key, per_op in samples.items()}
        setup_s = sum(statistics.median(t) for t in setup_times.values())
        metrics["setup_s"] = {"value": setup_s, "unit": UNITS["setup_s"]}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": UNITS["peak_rss_mb"]}
    return {"correct": not problems, "attempted": len(done),
            "failed": len(problems), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--progress-log", type=int, choices=(0, 1), default=1,
                    help="read first_incumbent_s from the per-node log (1), "
                         "or leave the log off to measure what it costs (0)")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 bool(args.progress_log))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
