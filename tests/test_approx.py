import math

import numpy as np
import pytest

import gdpkit.approx as approx
from gdpkit import build_wtn_gdp, load_wtn_data
from gdpkit.approx import (
    ApproxPolicy,
    apply_approximation,
    build_pwl,
    fit_quadratic,
)
from gdpkit.model import (Constraint, Disjunct, Disjunction, Expression,
                          GdpModel, load_model, model_to_json, save_model)
from gdpkit.transforms import FlatModel

from test_lp import INSTANCE


def brute_normal_equations(f, lower, upper, n):
    """Independent oracle: assemble the 3x3 normal system by summation."""
    xs = np.linspace(lower, upper, n)
    system = np.zeros((3, 3))
    target = np.zeros(3)
    for x in xs:
        row = np.array([x * x, x, 1.0])
        system += np.outer(row, row)
        target += f(x) * row
    return np.linalg.solve(system, target)


def sse(f, coeffs, lower, upper, n):
    xs = np.linspace(lower, upper, n)
    a, b, c = coeffs
    return float(np.sum((a * xs**2 + b * xs + c - f(xs)) ** 2))


def test_fit_recovers_exact_quadratic():
    fit = fit_quadratic(lambda x: x**2, 0.0, 5.0, 100)
    assert (fit.a, fit.b, fit.c) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)
    assert fit.max_abs_error <= 1e-9


def test_fit_constant():
    fit = fit_quadratic(lambda x: 5.0 * np.ones_like(x), 0.0, 1.0, 50)
    assert (fit.a, fit.b, fit.c) == pytest.approx((0.0, 0.0, 5.0), abs=1e-9)


def test_fit_power_golden_values():
    fit = fit_quadratic(lambda x: x**0.7, 1.0, 10.0, 1000)
    # frozen from the brute-force normal-equations oracle
    assert fit.a == pytest.approx(-0.013772787364086386, abs=1e-9)
    assert fit.b == pytest.approx(0.5851341336623518, abs=1e-9)
    assert fit.c == pytest.approx(0.5017108920252381, abs=1e-9)
    assert fit.max_abs_error == pytest.approx(0.0730722383235034, abs=1e-9)
    oracle = brute_normal_equations(lambda x: x**0.7, 1.0, 10.0, 1000)
    assert np.allclose([fit.a, fit.b, fit.c], oracle, atol=1e-9)
    assert fit.normal_residual <= 1e-8


@pytest.mark.parametrize("f", [lambda x: x**0.7, np.log])
def test_fit_perturbation_never_improves(f):
    fit = fit_quadratic(f, 1.0, 10.0, 1000)
    base = sse(f, (fit.a, fit.b, fit.c), 1.0, 10.0, 1000)
    for i in range(3):
        for eps in (-1e-4, 1e-4):
            coeffs = [fit.a, fit.b, fit.c]
            coeffs[i] += eps
            assert sse(f, coeffs, 1.0, 10.0, 1000) >= base - 1e-12


def test_fit_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        fit_quadratic(np.log, 2.0, 2.0 + 1e-13, 100)
    with pytest.raises(ValueError):
        fit_quadratic(np.log, 1.0, 2.0, 2)


def test_pwl_linear_function_exact():
    # the table and the errors apply_approximation reports for it
    table, max_abs, rms = approx._fit(lambda x: np.asarray(x, dtype=float),
                                      0.0, 1.0, ApproxPolicy("pwl", 4))
    assert len(table.breakpoints) == 5
    assert max_abs <= 1e-12 and rms <= 1e-12


def test_pwl_breakpoint_exactness():
    f = lambda x: x**0.7
    table = build_pwl(f, 0.0, 1.0, 101)
    assert len(table.breakpoints) == 102
    interp = table.interpolate(table.breakpoints)
    assert np.max(np.abs(interp - f(table.breakpoints))) <= 1e-12


def test_pwl_grid_error_frozen_and_decreasing():
    f = lambda x: x**0.7
    grid = np.linspace(0.0, 1.0, 100_001)
    coarse = build_pwl(f, 0.0, 1.0, 11)
    fine = build_pwl(f, 0.0, 1.0, 101)
    err_coarse = float(np.max(np.abs(coarse.interpolate(grid) - f(grid))))
    err_fine = float(np.max(np.abs(fine.interpolate(grid) - f(grid))))
    # frozen from the dense-grid oracle
    assert err_coarse == pytest.approx(0.02436174909326965, abs=1e-12)
    assert err_fine == pytest.approx(0.005160098909361409, abs=1e-12)
    assert err_fine < err_coarse


def disjunct_power_model():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 2.0)
    cost = m.add_variable("cost", 0.0, 50.0)
    m.objective.add_linear(1.0, cost)
    on = Disjunct("on", [
        Constraint(Expression().add_linear(1.0, cost).add_power(-3.0, x, 0.7),
                   "=", 1.0, "price"),
    ])
    off = Disjunct("off", [
        Constraint(Expression().add_linear(1.0, cost), "=", 0.0, "idle"),
    ])
    m.add_disjunction(Disjunction([on, off], "unit"))
    m.add_global(Constraint(Expression().add_linear(1.0, x), ">=", 0.5, "xmin"))
    return m


def test_apply_identity_when_nothing_to_do():
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    m.objective.add_linear(2.0, x)
    out, report = apply_approximation(m, ApproxPolicy(method="quad"))
    assert report == []
    assert len(out.variables) == 1
    assert out.objective.linear == m.objective.linear


def test_apply_quad_keeps_model_size():
    m = disjunct_power_model()
    out, report = apply_approximation(m, ApproxPolicy(method="quad"))
    assert len(out.variables) == len(m.variables)
    assert len(report) == 1 and report[0]["policy"] == "quad"
    row = out.disjunctions[0].disjuncts[0].constraints[0]
    assert [t[0] for t in row.body.terms] == ["bil"]
    # untouched parts stay term-for-term identical
    assert row.body.linear[0] == (1.0, m.var_id("cost"))
    assert out.globals[0].body.linear == m.globals[0].body.linear


def test_apply_pwl_keeps_the_term_in_its_row():
    m = disjunct_power_model()
    out, report = apply_approximation(m, ApproxPolicy(method="pwl",
                                                      n_segments=101))
    assert len(out.variables) == len(m.variables)
    assert sum(v.kind == "binary" for v in out.variables) == 0
    assert sorted(report[0]) == ["domain", "exponent", "kind", "max_abs_error",
                                 "policy", "rms_error", "site", "var"]
    on = out.disjunctions[0].disjuncts[0]
    assert len(on.constraints) == 1
    [(kind, coef, vid, (xs, ys))] = on.constraints[0].body.terms
    assert (kind, coef, vid) == ("pwl", -3.0, m.var_id("x"))
    assert len(xs) == len(ys) == 102
    assert (xs[0], xs[-1]) == (0.0, 2.0)
    table = build_pwl(lambda v: np.asarray(v) ** 0.7, 0.0, 2.0, 101)
    assert xs == tuple(table.breakpoints) and ys == tuple(table.values)
    # the idle disjunct and the globals are untouched
    assert len(out.disjunctions[0].disjuncts[1].constraints) == 1
    assert len(out.globals) == len(m.globals)


def test_apply_pwl_objective_term_stays_in_objective():
    m = GdpModel()
    x = m.add_variable("x", 1.0, 4.0)
    m.objective.add_log(2.0, x)
    out, _ = apply_approximation(m, ApproxPolicy(method="pwl", n_segments=5))
    assert [t[:3] for t in out.objective.terms] == [("pwl", 2.0, x)]
    assert out.objective.linear == [] and out.globals == []
    assert out.validate().ok


def test_approximated_model_round_trips_byte_for_byte():
    m = disjunct_power_model()
    m.objective.add_log(0.5, m.add_variable("z", 1.0, 4.0))
    for policy in (ApproxPolicy(method="pwl", n_segments=21),
                   ApproxPolicy(method="quad")):
        out, _ = apply_approximation(m, policy)
        text = save_model(out)
        again = load_model(text)
        assert save_model(again) == text
        assert again.objective.terms == out.objective.terms


@pytest.mark.parametrize("method", ["quad", "pwl"])
def test_term_too_narrow_to_fit_becomes_its_value(method):
    # a domain of width <= 1e-12 has no fit or table; the term is the
    # constant coef * f(lower), off by at most |f(upper) - f(lower)|
    m = GdpModel()
    x = m.add_variable("x", 2.0, 2.0)
    g = m.add_variable("g", 3.0, 3.0 + 1e-13)
    m.objective.add_power(-1.0, x, 0.7).add_log(2.0, g).add_linear(1.0, g)
    m.add_global(Constraint(Expression(0.5).add_power(4.0, x, 0.7), "<=",
                            9.0, "cap"))
    out, report = apply_approximation(m, ApproxPolicy(method, n_segments=5))
    assert out.objective.terms == [] and out.globals[0].body.terms == []
    assert out.objective.linear == [(1.0, g)]
    assert out.objective.constant == pytest.approx(
        -(2.0**0.7) + 2.0 * math.log(3.0), rel=1e-15)
    assert out.globals[0].body.constant == pytest.approx(0.5 + 4.0 * 2.0**0.7,
                                                         rel=1e-15)
    log_error = pytest.approx(abs(math.log(3.0 + 1e-13) - math.log(3.0)),
                              rel=1e-9)
    assert 0.0 < log_error.expected < 1e-13
    assert [(r["site"], r["kind"], r["var"], r["domain"], r["policy"],
             r["max_abs_error"], r["rms_error"]) for r in report] == [
        ("objective", "pow", "x", [2.0, 2.0], method, 0.0, 0.0),
        ("objective", "log", "g", [3.0, 3.0 + 1e-13], method, log_error,
         log_error),
        ("cap", "pow", "x", [2.0, 2.0], method, 0.0, 0.0)]


def test_apply_rejects_unbounded_variable():
    m = GdpModel()
    x = m.add_variable("x", 0.0, float("inf"))
    m.objective.add_power(1.0, x, 0.5)
    with pytest.raises(ValueError, match="x"):
        apply_approximation(m, ApproxPolicy(method="quad"))


def test_apply_rejects_flattened_model():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 1.0, 2.0)
    flat.objective = Expression().add_power(1.0, x, 0.5)
    with pytest.raises(TypeError, match="GdpModel"):
        apply_approximation(flat, ApproxPolicy(method="quad"))


def _uncached_apply(model, policy):
    """apply_approximation with one fit or table per term: the loop
    before fits were shared, kept here as the oracle."""
    out = approx._clone(model)
    report = []
    for expr, site in approx._approx_sites(out):
        concave = [t for t in expr.terms if t[0] in ("pow", "log")]
        expr.terms = [t for t in expr.terms if t[0] not in ("pow", "log")]
        for kind, coef, vid, exponent in concave:
            var = out.variables[vid]
            f = approx._term_function(kind, exponent)
            entry = {"site": site, "kind": kind, "var": var.name,
                     "exponent": exponent, "domain": [var.lower, var.upper],
                     "policy": policy.method}
            if policy.method == "quad":
                fit = fit_quadratic(f, var.lower, var.upper)
                expr.constant += coef * fit.c
                expr.add_linear(coef * fit.b, vid)
                expr.add_bilinear(coef * fit.a, vid, vid)
                max_abs, rms = fit.max_abs_error, fit.rms_error
            else:
                table = build_pwl(f, var.lower, var.upper, policy.n_segments)
                expr.add_pwl(coef, vid, table.breakpoints, table.values)
                max_abs, rms = approx._grid_errors(table.interpolate, f,
                                                   var.lower, var.upper)
            entry.update(max_abs_error=max_abs, rms_error=rms)
            report.append(entry)
    return out, report


def _counting(monkeypatch):
    calls = []
    for name in ("fit_quadratic", "build_pwl"):
        def counted(*args, _fn=getattr(approx, name), **kwargs):
            calls.append(args[1:3])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(approx, name, counted)
    return calls


def _mixed_terms_model():
    """Terms that share a fit (same kind, exponent and domain) and terms
    that differ from them in one of the three, -0.0 against 0.0 too."""
    m = GdpModel()
    a = m.add_variable("a", 0.0, 2.0)
    b = m.add_variable("b", 0.0, 2.0)
    c = m.add_variable("c", 0.0, 3.0)
    d = m.add_variable("d", -0.0, 2.0)
    e = m.add_variable("e", 1.0, 2.0)
    m.objective.add_power(1.0, a, 0.7).add_power(2.0, b, 0.7)
    m.objective.add_power(1.0, c, 0.7).add_power(1.0, a, 0.5)
    m.objective.add_power(1.0, d, 0.7).add_log(1.0, e)
    m.add_global(Constraint(Expression().add_power(-1.0, b, 0.7)
                            .add_log(3.0, e), "<=", 4.0, "row"))
    return m


@pytest.mark.parametrize("policy", [
    ApproxPolicy("quad"), ApproxPolicy("pwl", n_segments=21)],
    ids=["quad", "pwl21"])
def test_one_fit_per_term_kind_and_domain(monkeypatch, policy):
    # the shipped network's two Fin[t]**0.7 terms share one domain, so
    # one fit serves both; model and report equal a fit per term
    net = build_wtn_gdp(load_wtn_data(INSTANCE))
    mixed = _mixed_terms_model()
    want = [_uncached_apply(m, policy) for m in (net, mixed)]
    calls = _counting(monkeypatch)
    out, report = apply_approximation(net, policy)
    assert len(report) == 2 and len(calls) == 1
    assert report == want[0][1]
    assert model_to_json(out) == model_to_json(want[0][0])
    del calls[:]
    out, report = apply_approximation(mixed, policy)
    # a, b share a fit; c, a**0.5, d (-0.0) and e each need their own
    assert len(report) == 8 and len(calls) == 5
    assert report == want[1][1]
    assert save_model(out) == save_model(want[1][0])
