import numpy as np
import pytest

from gdpkit.approx import (
    ApproxPolicy,
    apply_approximation,
    build_pwl,
    encode_pwl_incremental,
    fit_quadratic,
)
from gdpkit.model import Constraint, Disjunct, Disjunction, Expression, GdpModel
from gdpkit.transforms import FlatModel


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
    table = build_pwl(lambda x: np.asarray(x, dtype=float), 0.0, 1.0, 4)
    assert table.max_grid_error(lambda x: np.asarray(x, dtype=float)) <= 1e-12


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


def _table_host(n_segments, lower=0.0, upper=1.0):
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", lower, upper)
    out = flat.add_variable("out", -100.0, 100.0)
    table = build_pwl(lambda v: np.asarray(v) ** 0.7, lower, upper, n_segments)
    return flat, table, x, out


def test_encode_single_segment():
    flat, table, x, out = _table_host(1)
    enc = encode_pwl_incremental(table, x, out, flat, "p")
    assert len(enc.deltas) == 1
    assert enc.binaries == []
    assert [r.sense for r in enc.rows] == ["=", "="]


def test_encode_101_segments_sizes():
    flat, table, x, out = _table_host(101)
    enc = encode_pwl_incremental(table, x, out, flat, "p")
    assert len(enc.deltas) == 101
    assert len(enc.binaries) == 100
    assert len(enc.rows) == 2 * 100 + 2


def test_encode_bound_mismatch_rejected():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 2.0)
    out = flat.add_variable("out", 0.0, 10.0)
    table = build_pwl(lambda v: np.asarray(v) ** 0.7, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        encode_pwl_incremental(table, x, out, flat, "p")


def _encoding_point(flat, enc, deltas, binaries):
    point = np.zeros(len(flat.variables))
    for vid, val in zip(enc.deltas, deltas):
        point[vid] = val
    for vid, val in zip(enc.binaries, binaries):
        point[vid] = val
    return point


def test_encode_hand_evaluated_fill():
    flat, table, x, out = _table_host(8)
    enc = encode_pwl_incremental(table, x, out, flat, "p")
    deltas = [1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    binaries = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    point = _encoding_point(flat, enc, deltas, binaries)
    widths = np.diff(table.breakpoints)
    rises = np.diff(table.values)
    x_val = table.breakpoints[0] + float(widths @ deltas)
    out_val = table.values[0] + float(rises @ deltas)
    point[x] = x_val
    point[out] = out_val
    # 2.5 segments of width 1/8
    assert x_val == pytest.approx(2.5 / 8.0, abs=1e-12)
    assert out_val == pytest.approx(float(table.interpolate(x_val)), abs=1e-12)
    for row in enc.rows:
        assert row.violation(point) <= 1e-9


def test_encode_random_fills_land_on_interpolant():
    rng = np.random.default_rng(17)
    flat, table, x, out = _table_host(9)
    enc = encode_pwl_incremental(table, x, out, flat, "p")
    widths = np.diff(table.breakpoints)
    rises = np.diff(table.values)
    for _ in range(100):
        k = int(rng.integers(0, 9))
        frac = float(rng.uniform(0, 1))
        deltas = np.zeros(9)
        deltas[:k] = 1.0
        deltas[k] = frac
        binaries = np.zeros(8)
        binaries[:k] = 1.0
        point = _encoding_point(flat, enc, deltas, binaries)
        point[x] = table.breakpoints[0] + float(widths @ deltas)
        point[out] = table.values[0] + float(rises @ deltas)
        for row in enc.rows:
            assert row.violation(point) <= 1e-9
        assert point[out] == pytest.approx(
            float(table.interpolate(point[x])), abs=1e-9)


def test_encode_every_x_has_canonical_fill():
    flat, table, x, out = _table_host(9)
    widths = np.diff(table.breakpoints)
    rng = np.random.default_rng(5)
    for _ in range(50):
        target = float(rng.uniform(0, 1))
        filled = 0.0
        deltas = np.zeros(9)
        for k in range(9):
            step = min(max((target - filled) / widths[k], 0.0), 1.0)
            deltas[k] = step
            filled += step * widths[k]
        assert filled == pytest.approx(target, abs=1e-9)
        assert all(deltas[k + 1] <= deltas[k] + 1e-12 for k in range(8))


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


def test_apply_pwl_adds_rows_inside_owning_disjunct():
    m = disjunct_power_model()
    out, report = apply_approximation(m, ApproxPolicy(method="pwl",
                                                      n_segments=101))
    assert len(out.variables) == len(m.variables) + 1 + 101 + 100
    entry = report[0]
    assert entry["added_continuous"] == 102
    assert entry["added_binary"] == 100
    on = out.disjunctions[0].disjuncts[0]
    assert len(on.constraints) == 1 + entry["added_constraints"]
    assert all(c.body.is_linear() for c in on.constraints)
    # the idle disjunct and the globals are untouched
    assert len(out.disjunctions[0].disjuncts[1].constraints) == 1
    assert len(out.globals) == len(m.globals)


def test_apply_pwl_objective_terms_become_globals():
    m = GdpModel()
    x = m.add_variable("x", 1.0, 4.0)
    m.objective.add_log(2.0, x)
    out, report = apply_approximation(m, ApproxPolicy(method="pwl",
                                                      n_segments=5))
    assert out.objective.terms == []
    assert len(out.objective.linear) == 1
    assert len(out.globals) == 2 * 4 + 2


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
