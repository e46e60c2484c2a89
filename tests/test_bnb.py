import numpy as np
import pytest

import gdpkit.bnb as bnbmod
from gdpkit.bnb import (
    BnbNode,
    branch_select,
    feasibility_check,
    relative_gap,
    solve_global,
)
from gdpkit.lp import LpSolution, lp_solve
from gdpkit.model import Constraint, Expression
from gdpkit.relax import build_lp_relaxation
from gdpkit.transforms import FlatModel


def neg_product_model():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    y = flat.add_variable("y", 0.0, 1.0)
    flat.objective = Expression().add_bilinear(-1.0, x, y)
    flat.add_constraint(
        Constraint(Expression().add_linear(1.0, x).add_linear(1.0, y),
                   "<=", 1.0, "cap"), {"kind": "global"})
    return flat


def grid_oracle(flat, resolution=201):
    lo, hi = flat.bounds_arrays()
    axes = [np.linspace(a, b, resolution) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids])
    feasible = np.ones(pts.shape[1], dtype=bool)

    def value(expr):
        vals = np.full(pts.shape[1], expr.constant)
        for coef, v in expr.linear:
            vals += coef * pts[v]
        for coef, i, j in expr.bilinear:
            vals += coef * pts[i] * pts[j]
        return vals

    for c in flat.constraints:
        vals = value(c.body)
        if c.sense == "<=":
            feasible &= vals <= c.rhs + 1e-9
        elif c.sense == ">=":
            feasible &= vals >= c.rhs - 1e-9
        else:
            feasible &= np.abs(vals - c.rhs) <= 1e-9
    if not feasible.any():
        return None
    return float(value(flat.objective)[feasible].min())


def test_negative_product_instance():
    flat = neg_product_model()
    res = solve_global(flat, gap=1e-4)
    assert res.status == "optimal"
    oracle = grid_oracle(flat)  # -0.25 at (0.5, 0.5)
    assert oracle == pytest.approx(-0.25, abs=1e-12)
    assert res.objective == pytest.approx(oracle, rel=1e-3)
    assert res.x == pytest.approx([0.5, 0.5], abs=1e-3)
    assert res.bound <= res.objective + 1e-12


def test_pure_milp_enumeration():
    flat = FlatModel(sense="min")
    a = flat.add_variable("y1", 0.0, 1.0, "binary")
    b = flat.add_variable("y2", 0.0, 1.0, "binary")
    flat.objective = Expression().add_linear(-1.0, a).add_linear(-2.0, b)
    flat.add_constraint(
        Constraint(Expression().add_linear(1.0, a).add_linear(1.0, b),
                   "<=", 1.0, "pick"), {"kind": "global"})
    res = solve_global(flat)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.x == pytest.approx([0.0, 1.0])


def test_contradictory_logic_rows_infeasible():
    flat = FlatModel(sense="min")
    y = flat.add_variable("y", 0.0, 1.0, "binary")
    flat.objective = Expression().add_linear(1.0, y)
    flat.add_constraint(Constraint(Expression().add_linear(1.0, y), "<=", 0.0,
                                   "off"), {"kind": "global"})
    flat.add_constraint(Constraint(Expression().add_linear(1.0, y), ">=", 1.0,
                                   "on"), {"kind": "global"})
    res = solve_global(flat)
    assert res.status == "infeasible"
    assert res.x is None


def test_maximization_by_negation():
    flat = neg_product_model()
    flat.sense = "max"
    flat.objective = Expression().add_bilinear(1.0, flat.variables[0].id,
                                               flat.variables[1].id)
    res = solve_global(flat, gap=1e-4)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.25, rel=1e-3)
    assert res.bound >= res.objective - 1e-12


def test_feasibility_check_examples():
    flat = neg_product_model()
    ok, violations = feasibility_check(np.array([0.3, 0.3]), flat)
    assert ok and violations == []

    flat2 = FlatModel(sense="min")
    x = flat2.add_variable("x", 0.0, 1.0)
    y = flat2.add_variable("y", 0.0, 1.0)
    flat2.objective = Expression()
    flat2.add_constraint(
        Constraint(Expression().add_bilinear(1.0, x, y), "=", 0.25, "prod"),
        {"kind": "global"})
    ok, violations = feasibility_check(np.array([0.5, 0.5 + 4e-3]), flat2)
    assert not ok and len(violations) == 1
    assert violations[0][1] == pytest.approx(2e-3, rel=0.05)

    ok, _ = feasibility_check(np.array([0.5, 0.5 + 1e-6]), flat2)
    assert ok  # 5e-7 equality residual sits inside the 1e-6 band


def test_feasibility_check_binary_integrality():
    flat = FlatModel(sense="min")
    y = flat.add_variable("y", 0.0, 1.0, "binary")
    flat.objective = Expression().add_linear(1.0, y)
    ok, violations = feasibility_check(np.array([0.4]), flat)
    assert not ok
    assert "integrality" in violations[0][0]


def test_branch_select_most_fractional_binary():
    flat = FlatModel(sense="min")
    a = flat.add_variable("y1", 0.0, 1.0, "binary")
    b = flat.add_variable("y2", 0.0, 1.0, "binary")
    flat.objective = Expression().add_linear(1.0, a).add_linear(1.0, b)
    node = BnbNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]), -np.inf, 0)
    lp = build_lp_relaxation(flat, node.lo, node.hi)
    sol = LpSolution("optimal", np.array([0.5, 0.1]), 0.6, 0.0, 0)
    decision = branch_select(node, lp, sol, flat)
    assert decision == ("binary", a)


def test_branch_select_spatial_on_max_violation():
    flat = neg_product_model()
    node = BnbNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]), -np.inf, 0)
    lp = build_lp_relaxation(flat, node.lo, node.hi)
    sol = lp_solve(lp)
    # LP point (0.5, 0.5, w=0.5) vs true product 0.25: both factors tie,
    # the stable order picks the lower id
    decision = branch_select(node, lp, sol, flat)
    assert decision[0] == "spatial"
    assert decision[1] == 0
    assert decision[2] == pytest.approx(0.5, abs=1e-9)


def test_branch_select_clamps_to_middle_band():
    flat = neg_product_model()
    node = BnbNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]), -np.inf, 0)
    lp = build_lp_relaxation(flat, node.lo, node.hi)
    x = np.zeros(len(lp.c))
    x[0] = 0.0  # at the box edge
    x[1] = 1.0
    x[lp.aux_terms[0].col] = 0.9  # big violation on the product
    sol = LpSolution("optimal", x, 0.0, 0.0, 0)
    decision = branch_select(node, lp, sol, flat)
    assert decision[0] == "spatial"
    assert decision[2] == pytest.approx(0.3)  # lo + 0.3 * width


def test_gap_is_recomputable_from_fields():
    flat = neg_product_model()
    res = solve_global(flat, gap=1e-4)
    assert res.gap == pytest.approx(relative_gap(res.objective, res.bound))
    assert res.gap <= 1e-4


def test_global_bound_is_monotone(caplog):
    import logging
    flat = neg_product_model()
    with caplog.at_level(logging.INFO, logger="gdpkit.bnb"):
        res = solve_global(flat, gap=1e-4, log_every=1)
    bounds = [rec.args[2] for rec in caplog.records
              if rec.name == "gdpkit.bnb"]
    assert len(bounds) > 10
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] <= res.objective + 1e-12


def test_workers_other_than_one_rejected():
    with pytest.raises(ValueError, match="workers"):
        solve_global(neg_product_model(), workers=2)


def test_node_limit_is_truthful():
    flat = neg_product_model()
    res = solve_global(flat, node_limit=3)
    assert res.nodes <= 3
    assert res.status in ("feasible", "unknown")
    if res.status == "feasible":
        assert res.objective is not None
        assert res.bound <= res.objective


def test_lp_failures_resplit_then_park(monkeypatch):
    flat = neg_product_model()
    real = lp_solve
    calls = {"n": 0}

    def flaky(lp):
        calls["n"] += 1
        if calls["n"] == 1:
            return LpSolution("numerical", None, None, 1.0, 0)
        return real(lp)

    monkeypatch.setattr(bnbmod, "lp_solve", flaky)
    res = solve_global(flat, gap=1e-4)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.25, rel=1e-3)
    assert res.parked == 0


def test_failed_resplit_nodes_are_counted_as_parked(monkeypatch):
    def broken(lp):
        return LpSolution("numerical", None, None, 1.0, 0)

    monkeypatch.setattr(bnbmod, "lp_solve", broken)
    res = solve_global(neg_product_model(), gap=1e-4)
    # the root re-splits once; both children fail again and are parked
    assert res.status == "unknown"
    assert res.nodes == 3
    assert res.parked == 2


def random_instance(seed):
    """<= 4 continuous vars, <= 2 binaries, <= 3 bilinear terms, feasible."""
    rng = np.random.default_rng(seed)
    flat = FlatModel(sense="min")
    n_cont = int(rng.integers(2, 4))
    n_bin = int(rng.integers(0, 3))
    boxes = [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)]
    for i in range(n_cont):
        lo, hi = boxes[int(rng.integers(0, len(boxes)))]
        flat.add_variable(f"x{i}", lo, hi)
    for i in range(n_bin):
        flat.add_variable(f"y{i}", 0.0, 1.0, "binary")
    n = n_cont + n_bin
    obj = Expression()
    for _ in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(0, n_cont)), int(rng.integers(0, n_cont))
        obj.add_bilinear(float(rng.choice([-2, -1, -0.5, 0.5, 1, 2])), i, j)
    for i in range(n):
        if rng.random() < 0.7:
            obj.add_linear(float(rng.choice([-1, -0.5, 0.5, 1])), i)
    flat.objective = obj
    lo, hi = flat.bounds_arrays()
    anchor = [(a + b) / 2 for a, b in zip(lo, hi)]
    for r in range(int(rng.integers(1, 3))):
        body = Expression()
        for i in range(n):
            if rng.random() < 0.6:
                body.add_linear(float(rng.choice([-1, -0.5, 0.5, 1])), i)
        slack = float(rng.choice([0.25, 0.5, 1.0]))
        flat.add_constraint(
            Constraint(body, "<=", body.evaluate(anchor) + slack, f"r{r}"),
            {"kind": "global"})
    return flat


def milp_grid_oracle(flat, resolution):
    """Enumerate binaries, grid the continuous block."""
    binaries = [v.id for v in flat.variables if v.kind == "binary"]
    cont = [v.id for v in flat.variables if v.kind != "binary"]
    lo, hi = flat.bounds_arrays()
    best = None
    from itertools import product
    for bits in product([0.0, 1.0], repeat=len(binaries)):
        axes = [np.linspace(lo[i], hi[i], resolution) for i in cont]
        grids = np.meshgrid(*axes, indexing="ij") if cont else []
        npts = grids[0].size if cont else 1
        pts = np.zeros((len(flat.variables), npts))
        for k, i in enumerate(cont):
            pts[i] = grids[k].ravel()
        for k, i in enumerate(binaries):
            pts[i] = bits[k]

        def value(expr):
            vals = np.full(npts, expr.constant)
            for coef, v in expr.linear:
                vals += coef * pts[v]
            for coef, i, j in expr.bilinear:
                vals += coef * pts[i] * pts[j]
            return vals

        feasible = np.ones(npts, dtype=bool)
        for c in flat.constraints:
            vals = value(c.body)
            if c.sense == "<=":
                feasible &= vals <= c.rhs + 1e-9
            elif c.sense == ">=":
                feasible &= vals >= c.rhs - 1e-9
            else:
                feasible &= np.abs(vals - c.rhs) <= 1e-9
        if feasible.any():
            cand = float(value(flat.objective)[feasible].min())
            best = cand if best is None else min(best, cand)
    return best


@pytest.mark.parametrize("seed", [3, 11, 19, 27, 42])
def test_random_instances_match_grid_oracle(seed):
    flat = random_instance(seed)
    res = solve_global(flat, gap=1e-4, time_limit=120)
    oracle = milp_grid_oracle(flat, 81)
    assert res.status == "optimal"
    assert oracle is not None
    assert abs(res.objective - oracle) <= 1e-3 * max(1.0, abs(oracle))
