import itertools
import json

import numpy as np
import pytest

from gdpkit.model import (
    Constraint,
    Disjunct,
    Disjunction,
    Expression,
    GdpModel,
    LogicClause,
)
from gdpkit.transforms import (
    FlatModel,
    bigm_transform,
    compute_bigm,
    logic_to_linear,
    to_leq_forms,
)
from gdpkit.bnb import solve_global


def test_bigm_linear_range():
    c = Constraint(Expression().add_linear(1.0, 0).__class__(), "<=", 0.0)
    body = Expression(-5.0).add_linear(1.0, 0)
    c = Constraint(body, "<=", 0.0, "row")
    assert compute_bigm(c, [0.0], [10.0]) == pytest.approx(5.0)


def test_bigm_corner_product():
    body = Expression().add_bilinear(1.0, 0, 1)
    c = Constraint(body, "<=", 0.0, "row")
    assert compute_bigm(c, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)


def test_bigm_power_term():
    body = Expression(-10.0).add_power(3.0, 0, 0.7)
    c = Constraint(body, "<=", 0.0, "row")
    # direct evaluation oracle: 3 * 32**0.7 - 10
    assert compute_bigm(c, [1.0], [32.0]) == pytest.approx(23.941125496954278,
                                                           abs=1e-9)


def test_bigm_never_negative():
    body = Expression(5.0).add_linear(1.0, 0)
    c = Constraint(body, "<=", 100.0, "slack_row")
    assert compute_bigm(c, [0.0], [1.0]) == 0.0


def two_disjunct_unit():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 10.0)
    m.objective.add_linear(1.0, x)
    on = Disjunct("on", [Constraint(Expression().add_linear(1.0, x),
                                    "<=", 4.0, "cap")], [x])
    off = Disjunct("off")
    m.add_disjunction(Disjunction([on, off], "unit"))
    return m, x


def test_bigm_transform_two_disjunct_rows():
    m, x = two_disjunct_unit()
    flat = bigm_transform(m)
    y_on = flat.binary_of_guard["on"]
    y_off = flat.binary_of_guard["off"]
    by_label = {c.label: c for c in flat.constraints}

    one = by_label["unit:one"]
    assert one.sense == "=" and one.rhs == 1.0
    assert sorted(one.body.linear) == sorted([(1.0, y_on), (1.0, y_off)])

    # x <= 4 over x in [0,10] gives M = 6: row is x + 6 y_on <= 10
    relaxed = by_label["cap[bigm:on]"]
    assert relaxed.sense == "<="
    assert relaxed.rhs == pytest.approx(10.0)
    assert sorted(relaxed.body.linear) == sorted([(1.0, x), (6.0, y_on)])

    up = by_label["fix[x:on]:ub"]
    assert up.sense == "<=" and up.rhs == 0.0
    assert sorted(up.body.linear) == sorted([(1.0, x), (-10.0, y_on)])
    # lower bound is 0, so x >= lb*y would only restate x >= 0: no row
    assert "fix[x:on]:lb" not in by_label


def test_bigm_activation_recovers_original_rows():
    m, x = two_disjunct_unit()
    flat = bigm_transform(m)
    y_on = flat.binary_of_guard["on"]
    relaxed = next(c for c in flat.constraints if c.label == "cap[bigm:on]")
    rng = np.random.default_rng(3)
    for _ in range(50):
        point = np.zeros(len(flat.variables))
        point[x] = rng.uniform(0, 10)
        point[y_on] = 1.0
        lhs = relaxed.body.evaluate(point) - relaxed.rhs
        original = point[x] - 4.0
        assert lhs == pytest.approx(original, abs=1e-12)


def test_empty_disjunct_contributes_only_exactly_one():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    m.objective.add_linear(1.0, x)
    m.add_disjunction(Disjunction([Disjunct("a"), Disjunct("b")], "pick"))
    flat = bigm_transform(m)
    assert [c.label for c in flat.constraints] == ["pick:one"]


def test_logic_to_linear_rows():
    binmap = {"Y1": 0, "Y2": 1, "Y3": 2}
    rows = logic_to_linear([LogicClause([("Y1", True), ("Y2", True)])], binmap)
    assert rows[0].sense == ">=" and rows[0].rhs == 1.0
    assert sorted(rows[0].body.linear) == [(1.0, 0), (1.0, 1)]

    rows = logic_to_linear([LogicClause([("Y1", False)])], binmap)
    # not Y1 covers as 1 - y1 >= 1, i.e. -y1 >= 0
    assert rows[0].rhs == 0.0
    assert rows[0].body.linear == [(-1.0, 0)]

    rows = logic_to_linear([LogicClause([("Y1", True), ("Y2", False),
                                         ("Y3", True)])], binmap)
    assert rows[0].rhs == 0.0
    assert sorted(rows[0].body.linear) == [(-1.0, 1), (1.0, 0), (1.0, 2)]


def test_logic_unknown_boolean_raises():
    with pytest.raises(ValueError):
        logic_to_linear([LogicClause([("nope", True)])], {"Y1": 0})


def _random_leq_constraint(rng):
    n = int(rng.integers(1, 3))
    body = Expression(rng.uniform(-1, 1))
    for v in range(n):
        if rng.random() < 0.8:
            body.add_linear(rng.uniform(-2, 2), v)
    if rng.random() < 0.6:
        body.add_bilinear(rng.uniform(-2, 2), 0, n - 1)
    if rng.random() < 0.3:
        body.add_power(rng.uniform(-2, 2), 0, float(rng.uniform(0.2, 0.9)))
    lo = rng.uniform(0.0, 1.0, n)
    hi = lo + rng.uniform(0.1, 2.0, n)
    rhs = float(rng.uniform(-1, 1))
    return Constraint(body, "<=", rhs, "r"), lo, hi


def test_bigm_validity_on_random_rows():
    rng = np.random.default_rng(23)
    for _ in range(100):
        c, lo, hi = _random_leq_constraint(rng)
        m = compute_bigm(c, lo, hi)
        for _ in range(50):
            point = rng.uniform(lo, hi)
            # y = 0 relaxes the row to body - rhs <= M
            assert c.body.evaluate(point) - c.rhs <= m + 1e-9


def test_equality_split_preserves_feasible_set():
    body = Expression().add_linear(2.0, 0)
    eq = Constraint(body, "=", 3.0, "e")
    parts = to_leq_forms(eq)
    assert len(parts) == 2
    for x in (1.0, 1.5, 2.0):
        point = [x]
        both = all(p.body.evaluate(point) <= p.rhs + 1e-12 for p in parts)
        assert both == (abs(2.0 * x - 3.0) <= 1e-12)


def test_provenance_complete_and_serializable():
    m, _ = two_disjunct_unit()
    m.add_logic(LogicClause([("on", True)]))
    flat = bigm_transform(m)
    assert len(flat.provenance) == len(flat.constraints)
    kinds = {p["kind"] for p in flat.provenance}
    assert kinds == {"exactly_one", "disjunct", "fix_to_zero", "logic"}
    assert json.loads(json.dumps(flat.provenance)) == flat.provenance


def gdp_for_equivalence(seed: int, x_lower: float) -> GdpModel:
    rng = np.random.default_rng(seed)
    m = GdpModel()
    x = m.add_variable("x", x_lower, 2.0)
    y = m.add_variable("y", 0.0, 2.0)
    m.objective.add_linear(1.0, x).add_linear(1.0, y)
    cap = float(rng.uniform(0.5, 2.5))
    m.add_global(Constraint(
        Expression().add_bilinear(1.0, x, y), "<=", cap, "xy_cap"))
    a = Disjunct("A", [Constraint(Expression().add_linear(1.0, x),
                                  ">=", float(rng.uniform(0.2, 1.5)), "xmin")])
    b = Disjunct("B", [], [x])
    m.add_disjunction(Disjunction([a, b], "unit1"))
    c = Disjunct("C", [Constraint(Expression().add_linear(1.0, y),
                                  ">=", float(rng.uniform(0.2, 1.8)), "ymin")])
    d = Disjunct("D", [Constraint(Expression().add_linear(1.0, y),
                                  "<=", float(rng.uniform(0.0, 0.4)), "ymax")])
    m.add_disjunction(Disjunction([c, d], "unit2"))
    m.add_logic(LogicClause([("A", True), ("C", True)]))
    return m


def _direct_assignment_model(m: GdpModel, assignment: dict) -> FlatModel:
    flat = FlatModel(sense="min")
    for v in m.variables:
        flat.add_variable(v.name, v.lower, v.upper, v.kind)
    for c in m.globals:
        flat.add_constraint(Constraint(c.body.copy(), c.sense, c.rhs, c.label),
                            {"kind": "global"})
    for dj in m.disjunctions:
        for d in dj.disjuncts:
            if assignment[d.guard]:
                for c in d.constraints:
                    flat.add_constraint(
                        Constraint(c.body.copy(), c.sense, c.rhs, c.label),
                        {"kind": "disjunct"})
            else:
                for vid in d.fix_to_zero:
                    flat.add_constraint(
                        Constraint(Expression().add_linear(1.0, vid), "=", 0.0,
                                   f"zero[{vid}]"), {"kind": "fix"})
    return flat


def _boolean_structure_ok(m: GdpModel, assignment: dict) -> bool:
    for dj in m.disjunctions:
        if sum(assignment[d.guard] for d in dj.disjuncts) != 1:
            return False
    for clause in m.logic:
        if not any(assignment[n] == pol for n, pol in clause.literals):
            return False
    return True


def _is_feasible(flat: FlatModel) -> bool:
    res = solve_global(flat, gap=1e-6, time_limit=60)
    if res.status in ("optimal", "feasible"):
        return True
    if res.status == "infeasible":
        return False
    raise AssertionError(f"inconclusive feasibility solve: {res.status}")


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_transform_preserves_assignment_feasibility(seed):
    # x's lower bound 0 writes no fix[x:B]:lb row, -0.5 keeps it
    for x_lower in (0.0, -0.5):
        m = gdp_for_equivalence(seed, x_lower)
        guards = [d.guard for dj in m.disjunctions for d in dj.disjuncts]
        flat = bigm_transform(m)
        labels = {c.label for c in flat.constraints}
        assert ("fix[x:B]:lb" in labels) == (x_lower != 0.0)

        for bits in itertools.product([False, True], repeat=len(guards)):
            assignment = dict(zip(guards, bits))
            before = _boolean_structure_ok(m, assignment) and _is_feasible(
                _direct_assignment_model(m, assignment))

            fixed = FlatModel(sense=flat.sense,
                              objective=Expression(),
                              binary_of_guard=flat.binary_of_guard)
            for v in flat.variables:
                fixed.add_variable(v.name, v.lower, v.upper, v.kind)
            for c, p in zip(flat.constraints, flat.provenance):
                fixed.add_constraint(Constraint(c.body.copy(), c.sense, c.rhs,
                                                c.label), p)
            for guard, vid in flat.binary_of_guard.items():
                val = 1.0 if assignment[guard] else 0.0
                fixed.variables[vid].lower = fixed.variables[vid].upper = val
            after = _is_feasible(fixed)
            assert before == after, (f"assignment {assignment} at x lower "
                                     f"{x_lower} disagrees")
