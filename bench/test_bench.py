"""Fast tests of the benchmark: every workload at a tiny size, and every
correctness check fed a wrong input that it must reject.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracing import Tracer, layer_metrics
from workloads import (GAP, WORKLOADS, Operation, generate_network,
                       large_network, operations, round_order)

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = generate_network(18, 2, 1, 1)
TINY_OPS = {
    "wtn-quad": [Operation("tiny-quad", TINY, "quad", 0, None)],
    "wtn-pwl": [Operation("tiny-pwl", TINY, "pwl", 5, None)],
    "large-root": [Operation("tiny-bound", TINY, "pwl", 5, 2)],
}


@pytest.fixture(scope="module")
def solved():
    """A tiny design solved to the gap, with its outputs."""
    op = TINY_OPS["wtn-quad"][0]
    outcome = run.run_operation(op, Tracer(), None, 100)
    assert outcome["result"].status == "optimal"
    return op, outcome


def test_benchmark_file_matches_the_metrics_printed():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert e2e == ["solve_s", "setup_s", "nodes", "first_incumbent_s",
                   "peak_rss_mb"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == \
        next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


def test_workload_instances_are_seeded_and_fixed():
    for workload in WORKLOADS:
        assert operations(workload) == operations(workload)
    assert generate_network(3, 2, 1, 2) == generate_network(3, 2, 1, 2)
    assert generate_network(3, 2, 1, 2) != generate_network(4, 2, 1, 2)
    assert len(large_network()["feeds"]) == 5
    ops = operations("wtn-quad")
    a = round_order(ops, random.Random(1))
    assert sorted(o.name for o in a) == sorted(o.name for o in ops)
    assert a == round_order(ops, random.Random(1))
    with pytest.raises(ValueError):
        operations("no-such-workload")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_tiny(monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "operations", lambda w: TINY_OPS[w])
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    result = run.run(workload, seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert math.isfinite(metric["value"])
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = (m["relax.build_s"] + m["lp.solve_s"] + m["bnb.feas_s"]
                 + m["bnb.branch_s"] + m["bnb.self_s"])
        assert parts == pytest.approx(m["bnb.solve_s"], rel=1e-9)
        assert m["lp.calls"] == m["bnb.nodes"] == m["relax.calls"]
        assert m["lp.optimal"] + m["lp.infeasible"] + m["lp.failed"] == m["lp.calls"]
        assert 0 < m["bnb.first_incumbent_node"] <= m["bnb.nodes"]
        assert list(tmp_path.glob(f"spans-{workload}-seed3.json"))
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0 < m["first_incumbent_s"] <= m["solve_s"]


def test_layer_metrics_of_a_later_round():
    """Parents are indices into the whole span list, not into the round."""
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("bnb.solve") as solve:
            for accepted in (False, True, False):
                with tracer.span("lp.solve") as sp:
                    sp.counts.update(pivots=3, status="optimal")
                with tracer.span("bnb.feas") as sp:
                    sp.counts["accepted"] = accepted
        solve.counts["nodes"] = 3
    second = layer_metrics(tracer.spans, first=len(tracer.spans) // 2)
    assert second["bnb.first_incumbent_node"] == 2
    assert second["lp.calls"] == 3 and second["bnb.nodes"] == 3


def test_tracer_restores_the_program():
    import gdpkit.bnb
    original = gdpkit.bnb.lp_solve
    tracer = Tracer()
    with tracer.install():
        assert gdpkit.bnb.lp_solve is not original
    assert gdpkit.bnb.lp_solve is original
    assert layer_metrics(tracer.spans)["lp.calls"] == 0


def test_solved_design_passes_every_check(solved):
    op, outcome = solved
    assert run.check_operation(op, outcome, np.random.default_rng(0), {}) == []


def test_physics_rejects_a_perturbed_design(solved):
    _, outcome = solved
    net = checks.Network(TINY)
    values = checks.design_values(outcome["flat"].variables, outcome["result"].x)
    assert checks.check_physics(net, values) == []
    into_unit = max(("f0", "f1"), key=lambda f: values[f"F[{f}->u0]"])
    for name in ("F[f0->discharge]", "Fin[u0]", "Cout[A,u0]",
                 f"C[A,{into_unit}->u0]"):
        bad = dict(values)
        bad[name] += 0.01
        assert checks.check_physics(net, bad), name
    bad = dict(values)
    bad["y[Y[u0]]"] = 0.0  # flows through a unit switched off
    assert checks.check_physics(net, bad)


def test_cost_rejects_an_objective_outside_the_budget(solved):
    _, outcome = solved
    res = outcome["result"]
    net = checks.Network(TINY)
    values = checks.design_values(outcome["flat"].variables, res.x)
    errors = {e["var"][4:-1]: e["max_abs_error"] for e in outcome["report"]}
    assert checks.check_cost(net, values, res.objective, errors) == []
    budget = sum(net.units[t]["theta"] * e for t, e in errors.items())
    assert checks.check_cost(net, values, res.objective + 2 * budget + 0.1, errors)


def test_gap_rejects_a_bound_above_the_objective():
    assert checks.check_gap(10.0, 10.0 - 1e-4, GAP) == []
    assert checks.check_gap(10.0, 10.5, GAP)
    assert checks.check_gap(10.0, 9.0, GAP)
    assert checks.check_gap(None, 9.0, GAP)


def test_local_search_rejects_an_objective_it_can_undercut(solved):
    op, outcome = solved
    net = checks.Network(TINY)
    g = checks.approx_function(op.method, op.segments, net.total_feed)
    z = outcome["result"].objective
    rng = np.random.default_rng(0)
    assert checks.check_local_search(net, g, z, GAP, rng) == []
    assert checks.check_local_search(net, g, 1.05 * z, GAP, rng)


def test_root_checks_reject_a_wrong_lp_value():
    from gdpkit.lp import LinearProgram
    lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0],
                       lo=[0.0, 0.0], hi=[5.0, 5.0])
    status, value = checks.highs_value(lp)
    assert status == "optimal" and value == pytest.approx(1.0)
    assert checks.check_root_value("optimal", 1.0, status, value) == []
    assert checks.check_root_value("optimal", 1.01, status, value)
    assert checks.check_root_value("numerical", None, status, value)
    assert checks.check_root_value("iteration_limit", None, status, value)
    assert checks.check_capped_bound(1.0, 1.0) == []
    assert checks.check_capped_bound(0.9, 1.0)
    assert checks.check_capped_bound(-math.inf, 1.0)


def test_root_checks_reject_a_simplex_that_always_returns_zero(monkeypatch):
    """The root LP may be worth 0; the LP with every unit on is not."""
    flat = run.set_up(TINY_OPS["large-root"][0], Tracer())[1]
    assert run.root_checks(flat)[0] == []
    solve = run.lp_solve
    monkeypatch.setattr(run, "lp_solve", lambda lp: dataclasses.replace(
        solve(lp), objective=0.0))
    assert run.root_checks(flat)[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wtn-quad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
