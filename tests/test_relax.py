import math

import numpy as np
import pytest

from gdpkit.lp import lp_solve
from gdpkit.model import Constraint, DomainError, Expression, interval_eval
from gdpkit.relax import (
    build_lp_relaxation,
    concave_envelope,
    envelope_violations,
    mccormick_bilinear,
)
from gdpkit.transforms import FlatModel


def admitted_w(rows, x, y):
    """Interval of w values the envelope rows allow at a fixed (x, y)."""
    lo, hi = -math.inf, math.inf
    for row in rows:
        cw = row.coefs.get("w", 0.0)
        rest = row.coefs.get("x", 0.0) * x + row.coefs.get("y", 0.0) * y
        bound = (row.rhs - rest) / cw
        if (row.sense == "<=") == (cw > 0):
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return lo, hi


def test_mccormick_unit_box_rows():
    env = mccormick_bilinear((0.0, 1.0), (0.0, 1.0))
    assert len(env.rows) == 4
    lo, hi = admitted_w(env.rows, 1.0, 1.0)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo, hi = admitted_w(env.rows, 0.5, 0.5)
    assert lo == pytest.approx(0.0) and hi == pytest.approx(0.5)
    assert lo - 1e-12 <= 0.25 <= hi + 1e-12


def test_mccormick_degenerate_factor_pins_product():
    env = mccormick_bilinear((2.0, 2.0), (-1.0, 3.0))
    for y in (-1.0, 0.7, 3.0):
        lo, hi = admitted_w(env.rows, 2.0, y)
        assert lo == pytest.approx(2.0 * y, abs=1e-12)
        assert hi == pytest.approx(2.0 * y, abs=1e-12)


def test_mccormick_requires_finite_bounds():
    with pytest.raises(ValueError):
        mccormick_bilinear((0.0, math.inf), (0.0, 1.0))


def test_mccormick_tight_at_every_corner():
    rng = np.random.default_rng(41)
    for _ in range(30):
        xl = rng.uniform(-3, 3)
        xu = xl + rng.uniform(0.1, 4)
        yl = rng.uniform(-3, 3)
        yu = yl + rng.uniform(0.1, 4)
        env = mccormick_bilinear((xl, xu), (yl, yu))
        for x in (xl, xu):
            for y in (yl, yu):
                lo, hi = admitted_w(env.rows, x, y)
                assert lo == pytest.approx(x * y, abs=1e-9)
                assert hi == pytest.approx(x * y, abs=1e-9)


def test_square_specialization_chord_and_tangents():
    env = mccormick_bilinear((-1.0, 2.0), (-1.0, 2.0), square=True)
    assert len(env.rows) == 3
    for x in np.linspace(-1.0, 2.0, 23):
        w = x * x
        for row in env.rows:
            assert row.residual(w, x) <= 1e-12


def test_concave_envelope_power_sandwich():
    env = concave_envelope("pow", (1.0, 2.0), exponent=0.7, n_tangents=3)
    secant = env.rows[0]
    # chord at the midpoint: (1 + 2**0.7) / 2
    val = secant.rhs + 0.5 * (1.0 + 2.0**0.7) * 0  # rows are w-relative
    lo, hi = admitted_w(env.rows, 1.5, 0.0)
    assert lo == pytest.approx(1.3122523963562354, abs=1e-12)
    f_mid = 1.5**0.7
    assert f_mid == pytest.approx(1.328201239943334, abs=1e-12)
    assert lo - 1e-12 <= f_mid <= hi + 1e-12


def test_concave_envelope_endpoints_tight():
    env = concave_envelope("pow", (1.0, 2.0), exponent=0.7, n_tangents=3)
    for x, f in ((1.0, 1.0), (2.0, 2.0**0.7)):
        lo, hi = admitted_w(env.rows, x, 0.0)
        assert lo == pytest.approx(f, abs=1e-12)
        assert hi == pytest.approx(f, abs=1e-12)


def test_log_tangent_at_one():
    env = concave_envelope("log", (1.0, math.e), n_tangents=3)
    tangent_at_lo = env.rows[1]
    assert tangent_at_lo.sense == "<="
    assert tangent_at_lo.coefs["x"] == pytest.approx(-1.0)
    assert tangent_at_lo.rhs == pytest.approx(-1.0)  # w <= x - 1
    assert tangent_at_lo.residual(0.0, 1.0) == 0.0


def test_concave_envelope_domain_checks():
    with pytest.raises(DomainError):
        concave_envelope("log", (0.0, 1.0))
    with pytest.raises(DomainError):
        concave_envelope("pow", (-0.5, 1.0), exponent=0.5)
    with pytest.raises(ValueError):
        concave_envelope("pow", (1.0, 1.0), exponent=0.5)


def test_envelope_soundness_random_sample():
    rng = np.random.default_rng(29)
    for _ in range(120):
        xl = rng.uniform(-2, 2)
        xu = xl + rng.uniform(1e-3, 3)
        yl = rng.uniform(-2, 2)
        yu = yl + rng.uniform(1e-3, 3)
        env = mccormick_bilinear((xl, xu), (yl, yu))
        xs = rng.uniform(xl, xu, 25)
        ys = rng.uniform(yl, yu, 25)
        for x, y in zip(xs, ys):
            for row in env.rows:
                assert row.residual(x * y, x, y) <= 1e-9
        lo = rng.uniform(0.05, 2.0)
        up = lo + rng.uniform(1e-2, 4.0)
        kind = "pow" if rng.random() < 0.5 else "log"
        expo = float(rng.uniform(0.1, 0.9)) if kind == "pow" else None
        env = concave_envelope(kind, (lo, up), exponent=expo,
                               n_tangents=int(rng.integers(1, 5)))
        f = (lambda v: v**expo) if kind == "pow" else math.log
        for x in rng.uniform(lo, up, 25):
            for row in env.rows:
                assert row.residual(f(x), x) <= 1e-9


def linear_flat():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    flat.objective = Expression().add_linear(1.0, x)
    flat.add_constraint(Constraint(Expression().add_linear(1.0, x), ">=", 0.25,
                                   "floor"), {"kind": "global"})
    return flat


def test_relaxation_of_linear_model_is_identity():
    flat = linear_flat()
    lp = build_lp_relaxation(flat, [0.0], [1.0])
    assert lp.aux_terms == []
    assert lp.A.shape == (1, 1)
    sol = lp_solve(lp)
    assert sol.objective == pytest.approx(0.25)


def neg_product_flat():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    y = flat.add_variable("y", 0.0, 1.0)
    flat.objective = Expression().add_bilinear(-1.0, x, y)
    flat.add_constraint(
        Constraint(Expression().add_linear(1.0, x).add_linear(1.0, y),
                   "<=", 1.0, "cap"), {"kind": "global"})
    return flat


def test_relaxation_bound_of_negative_product():
    flat = neg_product_flat()
    lp = build_lp_relaxation(flat, [0.0, 0.0], [1.0, 1.0])
    sol = lp_solve(lp)
    # vertex oracle over the 5-row polytope gives -0.5 at x = y = w = 0.5
    assert sol.objective == pytest.approx(-0.5, abs=1e-9)
    assert envelope_violations(lp, sol.x)[0] == pytest.approx(0.25, abs=1e-9)


def test_node_with_fixed_binary_reduces_box():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    y = flat.add_variable("y", 0.0, 1.0, "binary")
    flat.objective = Expression().add_bilinear(1.0, x, y)
    lp = build_lp_relaxation(flat, [0.0, 1.0], [1.0, 1.0])
    assert lp.lo[1] == lp.hi[1] == 1.0
    aux = lp.aux_terms[0]
    assert (lp.lo[aux.col], lp.hi[aux.col]) == (0.0, 1.0)
    sol = lp_solve(lp)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def _random_bilinear_flat(rng):
    flat = FlatModel(sense="min")
    n = int(rng.integers(2, 4))
    for i in range(n):
        lo = float(rng.uniform(-1, 1))
        flat.add_variable(f"v{i}", lo, lo + float(rng.uniform(0.5, 2.0)))
    obj = Expression()
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(0, n, 2)
        obj.add_bilinear(float(rng.uniform(-2, 2)), int(i), int(j))
    for i in range(n):
        obj.add_linear(float(rng.uniform(-1, 1)), i)
    flat.objective = obj
    body = Expression()
    for i in range(n):
        body.add_linear(float(rng.uniform(-1, 1)), i)
    lo, hi = flat.bounds_arrays()
    worst = sum(min(c * a, c * b) for (c, v), a, b in
                [((c, v), lo[v], hi[v]) for c, v in body.linear])
    flat.add_constraint(Constraint(body, ">=", worst + 0.1, "row"),
                        {"kind": "global"})
    return flat


def test_monotone_improvement_under_box_shrink():
    rng = np.random.default_rng(31)
    count = 0
    for _ in range(50):
        flat = _random_bilinear_flat(rng)
        lo, hi = np.array(flat.bounds_arrays()[0]), np.array(flat.bounds_arrays()[1])
        sol = lp_solve(build_lp_relaxation(flat, lo, hi))
        mid_lo = lo + 0.2 * (hi - lo)
        mid_hi = hi - 0.2 * (hi - lo)
        sol2 = lp_solve(build_lp_relaxation(flat, mid_lo, mid_hi))
        if sol.status == "optimal" and sol2.status == "optimal":
            assert sol2.objective >= sol.objective - 1e-9
            count += 1
        elif sol.status == "optimal":
            assert sol2.status == "infeasible"
    assert count >= 30


def test_relaxation_below_true_minimum():
    rng = np.random.default_rng(37)
    for _ in range(20):
        flat = _random_bilinear_flat(rng)
        lo, hi = np.array(flat.bounds_arrays()[0]), np.array(flat.bounds_arrays()[1])
        sol = lp_solve(build_lp_relaxation(flat, lo, hi))
        if sol.status != "optimal":
            continue
        axes = [np.linspace(a, b, 41) for a, b in zip(lo, hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat_pts = np.stack([g.ravel() for g in grids])
        feasible = np.ones(flat_pts.shape[1], dtype=bool)
        for c in flat.constraints:
            vals = np.full(flat_pts.shape[1], c.body.constant)
            for coef, v in c.body.linear:
                vals += coef * flat_pts[v]
            feasible &= vals >= c.rhs - 1e-9
        if not feasible.any():
            continue
        obj = np.full(flat_pts.shape[1], flat.objective.constant)
        for coef, v in flat.objective.linear:
            obj += coef * flat_pts[v]
        for coef, i, j in flat.objective.bilinear:
            obj += coef * flat_pts[i] * flat_pts[j]
        assert sol.objective <= float(obj[feasible].min()) + 1e-7


def test_aux_bounds_equal_the_lone_terms_interval():
    rng = np.random.default_rng(43)
    for _ in range(50):
        flat = FlatModel(sense="min")
        for name in ("a", "b"):
            low = float(rng.uniform(-2, 2))
            flat.add_variable(name, low, low + float(rng.uniform(0.0, 3.0)))
        low = float(rng.uniform(1e-3, 2))
        flat.add_variable("c", low, low + float(rng.uniform(0.0, 3.0)))
        p = float(rng.uniform(0.1, 0.9))
        terms = [Expression().add_bilinear(1.0, 0, 1),
                 Expression().add_bilinear(1.0, 0, 0),
                 Expression().add_power(1.0, 2, p),
                 Expression().add_log(1.0, 2)]
        flat.objective = (Expression().add_bilinear(1.0, 0, 1)
                          .add_bilinear(1.0, 0, 0).add_power(1.0, 2, p)
                          .add_log(1.0, 2))
        lo, hi = flat.bounds_arrays()
        lp = build_lp_relaxation(flat, lo, hi)
        assert len(lp.aux_terms) == len(terms)
        for aux, t in zip(lp.aux_terms, terms):
            assert (lp.lo[aux.col], lp.hi[aux.col]) == interval_eval(t, lo, hi)


def test_relaxation_rejects_log_box_reaching_zero():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    flat.objective = Expression().add_log(1.0, x)
    with pytest.raises(DomainError):
        build_lp_relaxation(flat, [0.0], [1.0])
