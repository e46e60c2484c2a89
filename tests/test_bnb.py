import time

import numpy as np
import pytest

import gdpkit.bnb as bnbmod
from gdpkit import (ApproxPolicy, apply_approximation, bigm_transform,
                    build_wtn_gdp, load_wtn_data)
from gdpkit.bnb import (
    FEAS_TOL,
    INT_TOL,
    MIN_WIDTH,
    BnbNode,
    branch_select,
    feasibility_check,
    relative_gap,
    solve_global,
)
from gdpkit.lp import LpSolution, lp_solve
from gdpkit.model import Constraint, Expression, term_value
from gdpkit.relax import (build_lp_relaxation, compile_flat, relaxed_terms,
                          term_values)
from gdpkit.transforms import FlatModel

from test_lp import INSTANCE
from test_relax import _random_box, _random_term_flat, reference_columns


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
        for _, coef, i, j in expr.terms:
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
    sol = LpSolution("optimal", np.array([0.5, 0.1]), 0.6, 0.0, 0)
    decision = branch_select(node, sol, compile_flat(flat))
    assert decision == ("binary", a)


def test_branch_select_spatial_on_max_violation():
    flat = neg_product_model()
    node = BnbNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]), -np.inf, 0)
    sol = lp_solve(build_lp_relaxation(flat, node.lo, node.hi))
    # LP point (0.5, 0.5, w=0.5) vs true product 0.25: both factors tie,
    # the stable order picks the lower id
    decision = branch_select(node, sol, compile_flat(flat))
    assert decision[0] == "spatial"
    assert decision[1] == 0
    assert decision[2] == pytest.approx(0.5, abs=1e-9)


def test_branch_select_clamps_to_middle_band():
    flat = neg_product_model()
    node = BnbNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]), -np.inf, 0)
    x = np.zeros(3)
    x[0] = 0.0  # at the box edge
    x[1] = 1.0
    x[2] = 0.9  # the product's aux column: a big violation
    sol = LpSolution("optimal", x, 0.0, 0.0, 0)
    decision = branch_select(node, sol, compile_flat(flat))
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


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_bad_time_limit_rejected(limit):
    with pytest.raises(ValueError, match="time_limit"):
        solve_global(neg_product_model(), time_limit=limit)


@pytest.mark.parametrize("gap", [float("nan"), -1.0])
def test_bad_gap_rejected(gap):
    # either would report a proven optimum as merely feasible
    with pytest.raises(ValueError, match="gap"):
        solve_global(neg_product_model(), gap=gap)


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

    def flaky(lp, deadline=None):
        calls["n"] += 1
        if calls["n"] == 1:
            return LpSolution("numerical", None, None, 1.0, 0)
        return real(lp, deadline)

    monkeypatch.setattr(bnbmod, "lp_solve", flaky)
    res = solve_global(flat, gap=1e-4)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.25, rel=1e-3)
    assert res.parked == 0


def test_failed_resplit_nodes_are_counted_as_parked(monkeypatch):
    def broken(lp, deadline=None):
        return LpSolution("numerical", None, None, 1.0, 0)

    monkeypatch.setattr(bnbmod, "lp_solve", broken)
    res = solve_global(neg_product_model(), gap=1e-4)
    # the root re-splits once; both children fail again and are parked
    assert res.status == "unknown"
    assert res.nodes == 3
    assert res.parked == 2


def test_time_limit_inside_an_lp_stops_the_search(monkeypatch):
    # the third node's LP sees its deadline already passed: the search
    # stops there as time_limit and that node's bound stays open
    real = lp_solve
    deadlines = []

    def late(lp, deadline=None):
        deadlines.append(deadline)
        return real(lp, 0.0 if len(deadlines) == 3 else deadline)

    full = solve_global(neg_product_model(), gap=1e-4)
    monkeypatch.setattr(bnbmod, "lp_solve", late)
    t0 = time.monotonic()
    res = solve_global(neg_product_model(), gap=1e-4, time_limit=60)
    t1 = time.monotonic()
    assert full.nodes > 3
    assert len(deadlines) == 3
    assert all(t0 + 60 <= d <= t1 + 60 for d in deadlines)
    assert res.status == "time_limit"
    assert res.nodes == 3
    assert res.parked == 1
    assert res.bound <= full.objective + 1e-9


def test_zero_time_limit_stops_before_the_root():
    # the wall clock is read before every node, the root included
    res = solve_global(neg_product_model(), time_limit=0.0)
    assert res.status == "time_limit"
    assert res.nodes == 0
    assert res.x is None and res.objective is None
    assert res.bound == -np.inf


def test_node_without_a_split_is_parked_with_its_bound(monkeypatch):
    flat = neg_product_model()
    lo, hi = flat.bounds_arrays()
    root = lp_solve(build_lp_relaxation(flat, lo, hi))
    monkeypatch.setattr(bnbmod, "branch_select", lambda *args: None)
    res = solve_global(flat, gap=1e-4)
    assert res.nodes == 1
    assert res.parked == 1
    assert res.bound == pytest.approx(root.objective, abs=1e-12)
    assert res.bound < -0.25 - 1e-3
    assert res.status == "feasible"


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
            for _, coef, i, j in expr.terms:
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


# -- the shipped network: pinned searches, the compiled seams -------------

SHIPPED = {
    # policy: (nodes, objective) of the search to the 1e-4 gap; the
    # objectives to 12 digits, as 6 decimals are off by up to 2e-9
    # relative
    "quad": (129, 90.5655796841),
    "pwl21": (69, 90.3759441357),
    "none": (116, 90.3748298262),
}


def _shipped_flat(name):
    model = build_wtn_gdp(load_wtn_data(INSTANCE))
    policy = {"quad": ApproxPolicy("quad"), "none": None,
              "pwl21": ApproxPolicy("pwl", n_segments=21)}[name]
    if policy is not None:
        model, _ = apply_approximation(model, policy)
    return bigm_transform(model)


@pytest.fixture(scope="module", params=list(SHIPPED))
def shipped(request):
    flat = _shipped_flat(request.param)
    return request.param, flat, solve_global(flat, gap=1e-4, time_limit=20)


def test_shipped_searches_are_pinned(shipped):
    # the node count and optimum of each search, so a change that claims
    # the same LPs and pivots shows it walked the same tree
    name, _, res = shipped
    nodes, objective = SHIPPED[name]
    assert res.status == "optimal"
    assert res.nodes == nodes
    assert res.objective == pytest.approx(objective, rel=1e-9)


def _row_by_row_check(point, flat, tol):
    """feasibility_check as a loop over Constraint.violation."""
    violations = []
    for v in flat.variables:
        if v.kind == "binary":
            err = abs(point[v.id] - round(point[v.id]))
            if err > tol:
                violations.append((f"integrality[{v.name}]", err))
    for c in flat.constraints:
        amount = c.violation(point)
        if amount > tol:
            violations.append((c.label, amount))
    return not violations, violations


def _assert_same_check(point, flat, tol, compiled=None):
    got = feasibility_check(point, flat, tol, compiled)
    want = _row_by_row_check(point, flat, tol)
    assert got[0] == want[0]
    assert [label for label, _ in got[1]] == [label for label, _ in want[1]]
    for (_, a), (_, b) in zip(got[1], want[1]):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    return got[0]


def test_vectorized_check_matches_row_by_row_on_the_network(shipped):
    # points around the optimum (feasible, and off by 1e-9 to 1e-4) and
    # across the box with fractional binaries; under none the rows hold
    # the network's own power terms
    name, flat, res = shipped
    compiled = compile_flat(flat)
    rng = np.random.default_rng(7)
    lo, hi = (np.array(a) for a in flat.bounds_arrays())
    binary = np.array([v.kind == "binary" for v in flat.variables])
    verdicts = set()
    for k in range(240):
        if k % 3 == 0 and res.x is not None:
            point = res.x.copy()
            if k:
                point += rng.normal(0.0, 10.0 ** -rng.uniform(4, 9), lo.size)
        else:
            point = rng.uniform(lo, hi)
            if k % 3 == 1:
                point[binary] = np.round(point[binary])
        point = np.clip(point, lo, hi)
        for tol in (FEAS_TOL, 0.0):
            verdicts.add(_assert_same_check(point, flat, tol, compiled))
    assert verdicts == {True, False}


def test_vectorized_check_matches_row_by_row_on_random_models():
    rng = np.random.default_rng(67)
    for _ in range(100):
        flat = _random_term_flat(rng)
        lo, hi = (np.array(a) for a in flat.bounds_arrays())
        for _ in range(5):
            _assert_same_check(rng.uniform(lo, hi), flat, FEAS_TOL)


def test_each_node_builds_one_relaxation_and_one_lp(monkeypatch):
    # bench/tracing.py times the relaxation, the LP and the check at
    # these three names of gdpkit.bnb, one relaxation and one LP a node
    calls = {"compile": [], "relax": [], "lp": [], "feas": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name, attr in (("compile", "compile_flat"),
                       ("relax", "build_lp_relaxation"), ("lp", "lp_solve"),
                       ("feas", "feasibility_check")):
        monkeypatch.setattr(bnbmod, attr,
                            counting(name, getattr(bnbmod, attr)))
    res = solve_global(_shipped_flat("quad"), gap=1e-4)
    assert res.nodes == SHIPPED["quad"][0]
    assert len(calls["relax"]) == len(calls["lp"]) == res.nodes
    assert 0 < len(calls["feas"]) <= res.nodes
    # the flat model is compiled once, and every node reads that copy
    assert len(calls["compile"]) == 1
    compiled = [args[3] for args in calls["relax"] + calls["feas"]]
    assert all(c is compiled[0] for c in compiled)


# -- branching against the loops it replaced -----------------------------


def _participants(kind, var, arg):
    return (var, arg) if kind == "bil" and var != arg else (var,)


def _loop_branch_select(node, sol, flat, columns):
    """branch_select as a loop over flat.variables and the box's kept
    terms, columns = reference_columns(flat, node.lo, node.hi)."""
    x = sol.x
    scored = []
    for v in flat.variables:
        if v.kind != "binary" or node.hi[v.id] - node.lo[v.id] <= 0.0:
            continue
        frac = min(x[v.id], 1.0 - x[v.id])
        if frac > INT_TOL:
            scored.append((frac, v.id))
    if scored:
        best = max(s for s, _ in scored)
        tied = [vid for s, vid in scored if s >= best - 1e-9]
        return ("binary", tied[len(tied) // 2])

    weight = np.zeros(len(flat.variables))
    for (kind, var, arg), col in columns.items():
        amount = abs(x[col] - term_value(kind, x, var, arg))
        for vid in _participants(kind, var, arg):
            weight[vid] += amount
    for vid in np.argsort(-weight, kind="stable"):
        vid = int(vid)
        width = node.hi[vid] - node.lo[vid]
        if weight[vid] <= 0.0:
            break
        if width > MIN_WIDTH:
            split = min(max(x[vid], node.lo[vid] + 0.3 * width),
                        node.lo[vid] + 0.7 * width)
            return ("spatial", vid, float(split))
    return None


def _loop_midsplit_decision(node, flat, columns):
    """_midsplit_decision as a loop over the same."""
    candidates = set()
    for kind, var, arg in columns:
        candidates.update(_participants(kind, var, arg))
    candidates.update(v.id for v in flat.variables if v.kind == "binary")
    best, best_w = None, MIN_WIDTH
    for vid in sorted(candidates):
        w = node.hi[vid] - node.lo[vid]
        if w > best_w:
            best, best_w = vid, w
    if best is None:
        return None
    if flat.variables[best].kind == "binary":
        return ("binary", best)
    return ("spatial", best, node.lo[best] + 0.5 * best_w)


def _assert_same_decision(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[:2] == want[:2]
        assert type(got[1]) is int
        if want[0] == "spatial":
            assert np.float64(got[2]).tobytes() == \
                np.float64(want[2]).tobytes()


def test_branching_matches_the_loops_at_every_shipped_node(shipped,
                                                          monkeypatch):
    # every node's box and LP point in the pinned searches: both
    # decisions as the loops over flat.variables and the kept terms make
    # them, and term_values as term_value makes each value
    name, _, _ = shipped
    real_build, real_solve = bnbmod.build_lp_relaxation, bnbmod.lp_solve
    boxes = []
    seen = {"binary": 0, "spatial": 0, "none": 0, "resplit": 0}

    def build(work, lo, hi, compiled):
        boxes.append((work, lo, hi, compiled))
        return real_build(work, lo, hi, compiled)

    def solve(lp, deadline=None):
        sol = real_solve(lp, deadline)
        work, lo, hi, cm = boxes[-1]
        node = BnbNode(lo, hi, -np.inf, 0)
        columns = reference_columns(work, lo, hi)
        resplit = bnbmod._midsplit_decision(node, cm)
        _assert_same_decision(resplit,
                              _loop_midsplit_decision(node, work, columns))
        seen["resplit"] += resplit is not None
        if sol.status == "optimal":
            decision = branch_select(node, sol, cm)
            _assert_same_decision(decision, _loop_branch_select(
                node, sol, work, columns))
            seen["none" if decision is None else decision[0]] += 1
            keys = np.arange(len(cm.keys))
            for (kind, v, arg), value in zip(cm.keys,
                                             term_values(cm, sol.x, keys)):
                want = term_value(kind, sol.x, v, arg)
                assert np.float64(value).tobytes() == \
                    np.float64(want).tobytes()
        return sol

    monkeypatch.setattr(bnbmod, "build_lp_relaxation", build)
    monkeypatch.setattr(bnbmod, "lp_solve", solve)
    res = solve_global(_shipped_flat(name), gap=1e-4, time_limit=20)
    assert res.nodes == len(boxes) == SHIPPED[name][0]
    assert seen["binary"] > 0 and seen["spatial"] > 0
    assert seen["resplit"] == len(boxes)


def test_branching_matches_the_loops_at_random_points():
    # models over every term kind, and small ones with binaries, at
    # random boxes and at random points inside the relaxation's bounds:
    # folded products, fixed binaries, and products whose second factor
    # carries the largest weight
    rng = np.random.default_rng(71)
    seen = {"binary": 0, "spatial": 0, "arg": 0}
    for k in range(160):
        flat = (_random_term_flat(rng) if k % 2 else
                random_instance(int(rng.integers(10**6))))
        cm = compile_flat(flat)
        binaries = [v.id for v in flat.variables if v.kind == "binary"]
        for _ in range(4):
            lo, hi = _random_box(rng, flat)
            node = BnbNode(lo, hi, -np.inf, 0)
            lp = build_lp_relaxation(flat, lo, hi, cm)
            x = rng.uniform(lp.lo, lp.hi)
            if rng.random() < 0.5:
                x[binaries] = np.round(x[binaries])
            sol = LpSolution("optimal", x, 0.0, 0.0, 0)
            columns = reference_columns(flat, lo, hi)
            decision = branch_select(node, sol, cm)
            _assert_same_decision(decision, _loop_branch_select(
                node, sol, flat, columns))
            _assert_same_decision(bnbmod._midsplit_decision(node, cm),
                                  _loop_midsplit_decision(node, flat, columns))
            keys = relaxed_terms(cm, lo, hi)
            for (kind, v, arg), value in zip(columns,
                                             term_values(cm, x, keys)):
                assert np.float64(value).tobytes() == np.float64(
                    term_value(kind, x, v, arg)).tobytes()
            if decision is not None:
                seen[decision[0]] += 1
                seen["arg"] += decision[0] == "spatial" and not any(
                    v == decision[1] for _, v, _ in columns)
    assert min(seen.values()) >= 10, seen
