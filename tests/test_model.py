import json
import math

import numpy as np
import pytest

from gdpkit.model import (
    Constraint,
    Disjunct,
    Disjunction,
    DomainError,
    Expression,
    GdpModel,
    LogicClause,
    interval_eval,
    load_model,
    save_model,
    term_interval,
    term_value,
)


def minimal_model():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    m.objective.add_linear(1.0, x)
    return m, x


def test_minimal_model_validates_clean():
    m, _ = minimal_model()
    assert m.validate().ok


def test_log_on_sign_changing_variable_flagged():
    m = GdpModel()
    x = m.add_variable("x", -1.0, 1.0)
    m.objective.add_log(1.0, x)
    report = m.validate()
    assert any("log domain" in p for p in report.problems)


def test_unknown_boolean_in_clause_flagged():
    m, x = minimal_model()
    d1 = Disjunct("Y1", [Constraint(Expression().add_linear(1.0, x), "<=", 0.5)])
    d2 = Disjunct("Y2")
    m.add_disjunction(Disjunction([d1, d2]))
    m.add_logic(LogicClause([("Y3", True)]))
    report = m.validate()
    assert any("unknown Boolean" in p for p in report.problems)


def test_structural_violations_collected():
    m = GdpModel()
    x = m.add_variable("x", 0.0, math.inf)
    b = m.add_variable("b", 0.0, 2.0, "binary")
    m.objective.add_linear(1.0, x)
    m.objective.add_linear(1.0, 99)
    m.add_disjunction(Disjunction([Disjunct("Y1", [], [x])]))
    m.add_logic(LogicClause([]))
    problems = m.validate().problems
    assert any("unbounded variable" in p for p in problems)
    assert any("binary bounds" in p for p in problems)
    assert any("unknown variable" in p for p in problems)
    assert any("empty disjunction" in p for p in problems)
    assert any("empty logic clause" in p for p in problems)


def test_fix_to_zero_needs_zero_in_bounds():
    m = GdpModel()
    x = m.add_variable("x", 1.0, 2.0)
    m.add_disjunction(Disjunction([
        Disjunct("Y1", [], [x]),
        Disjunct("Y2"),
    ]))
    assert any("fix-to-zero" in p for p in m.validate().problems)


def test_power_exponent_range_rejected_at_build():
    e = Expression()
    with pytest.raises(ValueError):
        e.add_power(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        e.add_power(1.0, 0, -0.5)


def test_interval_linear():
    e = Expression().add_linear(2.0, 0)
    assert interval_eval(e, [0.0], [1.0]) == (0.0, 2.0)


def test_interval_bilinear_corners():
    e = Expression().add_bilinear(1.0, 0, 1)
    assert interval_eval(e, [-1.0, -1.0], [1.0, 1.0]) == (-1.0, 1.0)


def test_interval_power_monotone():
    e = Expression().add_power(1.0, 0, 0.7)
    lo, hi = interval_eval(e, [1.0], [32.0])
    assert lo == pytest.approx(1.0, abs=1e-12)
    # direct evaluation oracle: exp(0.7 * ln 32)
    assert hi == pytest.approx(11.31370849898476, abs=1e-9)


def test_interval_log_domain_error():
    e = Expression().add_log(1.0, 0)
    with pytest.raises(DomainError):
        interval_eval(e, [0.0], [1.0])


def _random_expression(rng: np.random.Generator, n_vars: int) -> Expression:
    e = Expression(rng.uniform(-2, 2))
    for _ in range(rng.integers(0, 3)):
        e.add_linear(rng.uniform(-3, 3), int(rng.integers(0, n_vars)))
    for _ in range(rng.integers(0, 3)):
        e.add_bilinear(rng.uniform(-3, 3), int(rng.integers(0, n_vars)),
                       int(rng.integers(0, n_vars)))
    for _ in range(rng.integers(0, 2)):
        e.add_power(rng.uniform(-3, 3), int(rng.integers(0, n_vars)),
                    float(rng.uniform(0.1, 0.9)))
    for _ in range(rng.integers(0, 2)):
        e.add_log(rng.uniform(-3, 3), int(rng.integers(0, n_vars)))
    return e


def _random_box(rng: np.random.Generator, n_vars: int):
    lo = rng.uniform(0.1, 2.0, n_vars)
    hi = lo + rng.uniform(0.0, 3.0, n_vars)
    return lo, hi


def test_interval_soundness_on_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_vars = int(rng.integers(1, 4))
        e = _random_expression(rng, n_vars)
        lo, hi = _random_box(rng, n_vars)
        ilo, ihi = interval_eval(e, lo, hi)
        for _ in range(5):
            point = rng.uniform(lo, hi)
            val = e.evaluate(point)
            assert ilo - 1e-9 <= val <= ihi + 1e-9


def test_interval_monotone_under_box_shrink():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_vars = int(rng.integers(1, 4))
        e = _random_expression(rng, n_vars)
        lo, hi = _random_box(rng, n_vars)
        mid_lo = lo + 0.25 * (hi - lo)
        mid_hi = hi - 0.25 * (hi - lo)
        outer = interval_eval(e, lo, hi)
        inner = interval_eval(e, mid_lo, mid_hi)
        assert inner[0] >= outer[0] - 1e-12
        assert inner[1] <= outer[1] + 1e-12


def test_evaluate_and_interval_sum_the_terms():
    e = (Expression(0.5).add_log(2.0, 1).add_linear(-1.0, 0)
         .add_power(-3.0, 0, 0.7).add_bilinear(1.5, 2, 0).add_log(-0.5, 2))
    assert e.terms == [("log", 2.0, 1, None), ("pow", -3.0, 0, 0.7),
                       ("bil", 1.5, 0, 2), ("log", -0.5, 2, None)]
    rng = np.random.default_rng(3)
    for _ in range(100):
        lo, hi = _random_box(rng, 3)
        point = rng.uniform(lo, hi)
        val, ilo, ihi = 0.5 - point[0], 0.5 - hi[0], 0.5 - lo[0]
        for kind, c, v, arg in e.terms:
            val += c * term_value(kind, point, v, arg)
            tlo, thi = term_interval(kind, lo, hi, v, arg)
            ilo += min(c * tlo, c * thi)
            ihi += max(c * tlo, c * thi)
        assert e.evaluate(point) == pytest.approx(val, rel=1e-12)
        assert interval_eval(e, lo, hi) == pytest.approx((ilo, ihi), rel=1e-12)


def test_term_value_and_domain():
    assert term_value("bil", [2.0, 3.0], 0, 1) == 6.0
    assert term_value("pow", [4.0], 0, 0.5) == 2.0
    assert term_value("log", [math.e], 0, None) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        term_value("pow", [-1.0], 0, 0.5)
    with pytest.raises(DomainError):
        term_value("log", [0.0], 0, None)


def test_bilinear_canonical_order():
    a = Expression().add_bilinear(2.0, 3, 1)
    b = Expression().add_bilinear(2.0, 1, 3)
    assert a.terms == b.terms == [("bil", 2.0, 1, 3)]


def wtn_like_model():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 10.0)
    w = m.add_variable("w", 0.5, 4.0)
    cost = m.add_variable("cost", 0.0, 100.0)
    m.objective.add_linear(1.0, cost)
    body = Expression().add_bilinear(1.0, x, w)
    m.add_global(Constraint(body, "<=", 8.0, "cap"))
    active = Disjunct("on", [
        Constraint(Expression().add_linear(1.0, cost)
                   .add_power(-3.0, x, 0.7).add_log(-1.0, w), "=", 2.0, "price"),
    ], [x])
    idle = Disjunct("off", [
        Constraint(Expression().add_linear(1.0, cost), "=", 0.0, "nocost"),
    ])
    m.add_disjunction(Disjunction([active, idle], "unit"))
    m.add_logic(LogicClause([("on", True), ("off", True)]))
    return m


def test_json_round_trip_byte_identical():
    m = wtn_like_model()
    x, w = m.var_id("x"), m.var_id("w")
    m.objective.add_power(1.0, x, 0.5).add_bilinear(2.0, w, x).add_log(1.0, w)
    text = save_model(m)
    # nonlinear terms are written in the order they were added
    assert [t["kind"] for t in json.loads(text)["objective"]["terms"]] == [
        "lin", "pow", "bil", "log"]
    again = save_model(load_model(text))
    assert text == again
    parsed = json.loads(text)
    assert set(parsed) == {"sense", "variables", "objective", "globals",
                           "disjunctions", "logic"}


def test_json_preserves_terms_and_logic():
    m = wtn_like_model()
    m2 = load_model(save_model(m))
    assert m2.sense == m.sense
    assert [v.name for v in m2.variables] == [v.name for v in m.variables]
    assert m2.objective.linear == m.objective.linear
    dj2 = m2.disjunctions[0]
    assert [d.guard for d in dj2.disjuncts] == ["on", "off"]
    assert dj2.disjuncts[0].fix_to_zero == [0]
    row = dj2.disjuncts[0].constraints[0]
    assert row.body.terms == [("pow", -3.0, 0, 0.7), ("log", -1.0, 1, None)]
    assert m2.logic[0].literals == [("on", True), ("off", True)]


def test_string_polarity_rejected():
    m, _ = minimal_model()
    m.add_disjunction(Disjunction([Disjunct("a"), Disjunct("b")], "pick"))
    m.add_logic(LogicClause([("a", False)]))
    obj = json.loads(save_model(m))
    assert load_model(json.dumps(obj)).logic[0].literals == [("a", False)]
    for bad in ("false", 0, None):
        obj["logic"][0][0]["polarity"] = bad
        with pytest.raises(ValueError,
                           match="logic clause 0: literal 0: polarity"):
            load_model(json.dumps(obj))


# -- piecewise-linear terms --------------------------------------------

def concave_tables():
    """A pow 0.7 table over [0, 4] and a log table over [0.5, 6]."""
    xs = np.linspace(0.0, 4.0, 9)
    yield tuple(xs), tuple(xs**0.7)
    xs = np.linspace(0.5, 6.0, 12)
    yield tuple(xs), tuple(np.log(xs))


def test_pwl_value_interpolates_and_checks_its_domain():
    table = ((0.0, 1.0, 3.0), (0.0, 2.0, 3.0))
    assert term_value("pwl", [0.5], 0, table) == 1.0
    assert term_value("pwl", [1.0], 0, table) == 2.0
    assert term_value("pwl", [2.0], 0, table) == 2.5
    assert term_value("pwl", [3.0], 0, table) == 3.0
    for x in (-1e-9, 3.0 + 1e-9):
        with pytest.raises(DomainError):
            term_value("pwl", [x], 0, table)
    with pytest.raises(DomainError):
        term_interval("pwl", [-1.0], [1.0], 0, table)
    for xs, ys in concave_tables():
        grid = np.linspace(xs[0], xs[-1], 257)
        ours = [term_value("pwl", [x], 0, (xs, ys)) for x in grid]
        np.testing.assert_allclose(ours, np.interp(grid, xs, ys),
                                   rtol=0.0, atol=1e-12)


def test_pwl_interval_is_exact_on_random_boxes():
    rng = np.random.default_rng(11)
    for table in concave_tables():
        xs = table[0]
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(xs[0], xs[-1], 2))
            if rng.random() < 0.3:  # inside one segment
                k = int(rng.integers(0, len(xs) - 1))
                lo, hi = np.sort(rng.uniform(xs[k], xs[k + 1], 2))
            tlo, thi = term_interval("pwl", [lo], [hi], 0, table)
            grid = np.concatenate([np.linspace(lo, hi, 401),
                                   [x for x in xs if lo <= x <= hi]])
            vals = np.interp(grid, *table)
            assert tlo - 1e-12 <= vals.min() and vals.max() <= thi + 1e-12
            assert vals.min() == pytest.approx(tlo, abs=1e-12)
            assert vals.max() == pytest.approx(thi, abs=1e-12)


def test_pwl_json_round_trip_byte_identical():
    m, x = minimal_model()
    xs, ys = next(concave_tables())
    m.variables[x].upper = 4.0
    m.objective.add_pwl(2.0, x, xs, ys)
    text = save_model(m)
    term = json.loads(text)["objective"]["terms"][1]
    assert term == {"kind": "pwl", "coef": 2.0, "var": x,
                    "breakpoints": list(xs), "values": list(ys)}
    again = load_model(text)
    assert again.objective.terms == [("pwl", 2.0, x, (xs, ys))]
    assert save_model(again) == text
    assert again.validate().ok


BAD_TABLES = {
    "one breakpoint": ((0.0,), (0.0,)),
    "unordered": ((0.0, 2.0, 1.0), (0.0, 1.0, 2.0)),
    "repeated": ((0.0, 1.0, 1.0), (0.0, 1.0, 2.0)),
    "lengths": ((0.0, 1.0, 2.0), (0.0, 1.0)),
    "convex": ((0.0, 1.0, 2.0), (0.0, 1.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_bad_pwl_table_rejected(name):
    xs, ys = BAD_TABLES[name]
    with pytest.raises(ValueError):
        Expression().add_pwl(1.0, 0, xs, ys)

    m, x = minimal_model()
    m.objective.terms.append(("pwl", 1.0, x, (xs, ys)))
    problems = m.validate().problems
    assert len(problems) == 1
    assert problems[0].startswith("pwl table: 'x': ")
    assert problems[0].endswith(" in objective")

    obj = json.loads(save_model(minimal_model()[0]))
    obj["objective"]["terms"].append({"kind": "pwl", "coef": 1.0, "var": 0,
                                      "breakpoints": list(xs),
                                      "values": list(ys)})
    with pytest.raises(ValueError, match="^model: objective: term 1: "):
        load_model(json.dumps(obj))


def test_pwl_box_outside_the_table_flagged():
    m, x = minimal_model()
    m.objective.add_pwl(1.0, x, (0.0, 0.5), (0.0, 1.0))
    [problem] = m.validate().problems
    assert problem.startswith("pwl domain: 'x': ")
