import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from gdpkit import (apply_approximation, bigm_transform, build_wtn_gdp,
                    load_wtn_data, parse_wtn_data, solve_global)
from gdpkit.approx import ApproxPolicy
from gdpkit.lp import LinearProgram, lp_solve
from gdpkit.model import (BINARY, Constraint, DomainError, Expression,
                          interval_eval, pwl_value, term_interval)
from gdpkit.relax import (
    build_lp_relaxation,
    compile_flat,
    term_values,
    tighten,
)
from gdpkit.transforms import FlatModel

from test_lp import INSTANCE, REPO, _highs, _shipped_network_boxes

sys.path.insert(0, str(REPO / "bench"))
from workloads import generate_network  # noqa: E402


# -- envelope rows as build_lp_relaxation emits them ---------------------


def envelope_flat(kind, lo, hi, arg=None):
    """A flat model over the box [lo, hi] whose objective is one term:
    with kind "bil", x*y over two bounds or x*x over one; otherwise
    (kind, x, arg), as in Expression.terms."""
    flat = FlatModel(sense="min")
    ids = [flat.add_variable(f"v{i}", a, b)
           for i, (a, b) in enumerate(zip(lo, hi))]
    flat.objective.terms.append(
        (kind, 1.0, ids[0], ids[-1] if kind == "bil" else arg))
    return flat


def envelope_lp(kind, lo, hi, arg=None):
    """The LP build_lp_relaxation emits over the box [lo, hi] for
    envelope_flat(kind, lo, hi, arg). With no model rows, each row is
    one of the term's envelope rows, over the columns (x, [y,] w)."""
    lp = build_lp_relaxation(envelope_flat(kind, lo, hi, arg), lo, hi)
    assert (lp.A[:, -1] == 1.0).all()  # every row reads w + ... sense rhs
    return lp


def aux_columns(flat):
    """(column, kind, var, arg) of each aux column of the model's
    relaxations: the keys compile_flat keeps, from column n_model on."""
    cm = compile_flat(flat)
    return [(col, *cm.keys[t]) for col, t in enumerate(cm.kept, cm.n_model)]


def violations_at(flat, point):
    """|aux - exact term value| at point for each aux column, in column
    order."""
    cm = compile_flat(flat)
    point = np.asarray(point, dtype=float)
    aux = point[cm.n_model:cm.n_model + cm.kept.size]
    return np.abs(aux - term_values(cm, point, cm.kept)).tolist()


def row_violations(lp, point):
    """Each row's nonnegative violation at point, one number or array
    per column in column order; arrays give one column per sample."""
    vals = lp.A @ np.array(np.broadcast_arrays(*point), dtype=float)
    b = lp.b.reshape((-1,) + (1,) * (vals.ndim - 1))
    ge = (np.array(lp.senses) == ">=").reshape(b.shape)
    return np.maximum(np.where(ge, b - vals, vals - b), 0.0)


def admitted_w(lp, *point):
    """Interval of w values an envelope_lp's rows allow with the other
    columns at point."""
    bound = lp.b - lp.A[:, :-1] @ np.array(point, dtype=float)
    ge = np.array(lp.senses) == ">="
    return bound[ge].max(initial=-math.inf), bound[~ge].min(initial=math.inf)


def test_mccormick_unit_box_rows():
    lp = envelope_lp("bil", [0.0, 0.0], [1.0, 1.0])
    assert lp.A.shape == (4, 3)
    lo, hi = admitted_w(lp, 1.0, 1.0)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo, hi = admitted_w(lp, 0.5, 0.5)
    assert lo == pytest.approx(0.0) and hi == pytest.approx(0.5)
    assert lo - 1e-12 <= 0.25 <= hi + 1e-12


def test_mccormick_degenerate_factor_pins_product():
    # a factor the model fixes makes the product exact: 2*y, as y's
    # coefficient, with no column and no rows
    box = ([2.0, -1.0], [2.0, 3.0])
    lp = envelope_lp("bil", *box)
    assert lp.A.shape == (0, 2)
    assert aux_columns(envelope_flat("bil", *box)) == []
    for y in (-1.0, 0.7, 3.0):
        assert lp.c @ [2.0, y] == pytest.approx(2.0 * y, abs=1e-12)


def test_mccormick_requires_finite_bounds():
    # the check comes before inf * 0 could make a corner nan
    with pytest.raises(ValueError, match="finite bounds"):
        envelope_lp("bil", [0.0, 0.0], [math.inf, 1.0])


def test_mccormick_tight_at_every_corner():
    rng = np.random.default_rng(41)
    for _ in range(30):
        xl = rng.uniform(-3, 3)
        xu = xl + rng.uniform(0.1, 4)
        yl = rng.uniform(-3, 3)
        yu = yl + rng.uniform(0.1, 4)
        lp = envelope_lp("bil", [xl, yl], [xu, yu])
        for x in (xl, xu):
            for y in (yl, yu):
                lo, hi = admitted_w(lp, x, y)
                assert lo == pytest.approx(x * y, abs=1e-9)
                assert hi == pytest.approx(x * y, abs=1e-9)


def test_square_specialization_chord_and_tangents():
    lp = envelope_lp("bil", [-1.0], [2.0])
    assert lp.A.shape == (3, 2)
    xs = np.linspace(-1.0, 2.0, 23)
    assert row_violations(lp, (xs, xs * xs)).max() <= 1e-12


def test_concave_rows_power_sandwich():
    lp = envelope_lp("pow", [1.0], [2.0], 0.7)
    lo, hi = admitted_w(lp, 1.5)
    # the chord at the midpoint: (1 + 2**0.7) / 2
    assert lo == pytest.approx(1.3122523963562354, abs=1e-12)
    f_mid = 1.5**0.7
    assert f_mid == pytest.approx(1.328201239943334, abs=1e-12)
    assert lo - 1e-12 <= f_mid <= hi + 1e-12


def test_concave_rows_endpoints_tight():
    lp = envelope_lp("pow", [1.0], [2.0], 0.7)
    for x, f in ((1.0, 1.0), (2.0, 2.0**0.7)):
        lo, hi = admitted_w(lp, x)
        assert lo == pytest.approx(f, abs=1e-12)
        assert hi == pytest.approx(f, abs=1e-12)


def test_log_tangent_at_one():
    lp = envelope_lp("log", [1.0], [math.e])
    # row 0 is the chord, row 1 the tangent at the lower end
    assert lp.senses[1] == "<="
    assert lp.A[1, 0] == pytest.approx(-1.0)
    assert lp.b[1] == pytest.approx(-1.0)  # w <= x - 1
    assert row_violations(lp, (1.0, 0.0))[1] == 0.0


def test_concave_rows_domain_checks():
    # the term's interval rejects these boxes before any row is made
    with pytest.raises(DomainError):
        envelope_lp("log", [0.0], [1.0])
    with pytest.raises(DomainError):
        envelope_lp("pow", [-0.5], [1.0], 0.5)
    # a box too narrow for a chord gets no rows: the aux bounds pin w
    lp = envelope_lp("pow", [1.0], [1.0], 0.5)
    assert lp.A.shape == (0, 2)
    assert (lp.lo[1], lp.hi[1]) == (1.0, 1.0)


def test_envelope_soundness_random_sample():
    rng = np.random.default_rng(29)
    for _ in range(120):
        xl = rng.uniform(-2, 2)
        xu = xl + rng.uniform(1e-3, 3)
        yl = rng.uniform(-2, 2)
        yu = yl + rng.uniform(1e-3, 3)
        lp = envelope_lp("bil", [xl, yl], [xu, yu])
        xs = rng.uniform(xl, xu, 25)
        ys = rng.uniform(yl, yu, 25)
        assert row_violations(lp, (xs, ys, xs * ys)).max() <= 1e-9
        lo = rng.uniform(0.05, 2.0)
        up = lo + rng.uniform(1e-2, 4.0)
        kind = "pow" if rng.random() < 0.5 else "log"
        expo = float(rng.uniform(0.1, 0.9)) if kind == "pow" else None
        lp = envelope_lp(kind, [lo], [up], expo)
        f = (lambda v: v**expo) if kind == "pow" else np.log
        xs = rng.uniform(lo, up, 25)
        assert lp.A.shape == (4, 2)
        assert row_violations(lp, (xs, f(xs))).max() <= 1e-9


def _tables():
    """Tables of x**0.7 over [0, 4] and of log over [0.5, 6]."""
    xs = np.linspace(0.0, 4.0, 9)
    yield (tuple(xs), tuple(xs**0.7))
    xs = np.linspace(0.5, 6.0, 12)
    yield (tuple(xs), tuple(np.log(xs)))


def test_pwl_hull_rows_soundness_random_boxes():
    # the table lies between the rows on any sub-box; inside one segment
    # the rows admit the table's value and nothing else
    rng = np.random.default_rng(2024)
    straddling = inside = 0
    for table in _tables():
        xs = np.array(table[0])
        for _ in range(300):
            if rng.random() < 0.5:
                lo, up = np.sort(rng.uniform(xs[0], xs[-1], 2))
            else:
                k = int(rng.integers(0, len(xs) - 1))
                lo, up = np.sort(rng.uniform(xs[k], xs[k + 1], 2))
            if up - lo <= 1e-9:
                continue
            lp = envelope_lp("pwl", [lo], [up], table)
            one_segment = not np.any((lo < xs) & (xs < up))
            inside += one_segment
            straddling += not one_segment
            assert lp.A.shape[0] == 1 + np.count_nonzero(
                (xs[:-1] < up) & (xs[1:] > lo))
            for x in rng.uniform(lo, up, 25):
                w = float(np.interp(x, *table))
                assert row_violations(lp, (x, w)).max() <= 1e-9
                wlo, whi = admitted_w(lp, x)
                assert wlo - 1e-9 <= w <= whi + 1e-9
                if one_segment:
                    assert whi - wlo <= 1e-9
    assert straddling > 100 and inside > 100


def test_pwl_relaxation_is_tight_at_the_ends_of_its_range():
    # the hull's lowest and highest points are the table's, so minimizing
    # and maximizing the term alone give its exact range
    for table in _tables():
        for lo, up in ((table[0][0], table[0][-1]), (1.1, 3.3), (2.2, 2.4)):
            flat = FlatModel(sense="min")
            x = flat.add_variable("x", lo, up)
            tlo, thi = term_interval("pwl", [lo], [up], x, table)
            for coef, best in ((1.0, tlo), (-1.0, -thi)):
                flat.objective = Expression().add_pwl(coef, x, *table)
                sol = lp_solve(build_lp_relaxation(flat, [lo], [up]))
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(best, abs=1e-9)


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
    assert aux_columns(flat) == []
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
    assert violations_at(flat, sol.x)[0] == pytest.approx(0.25, abs=1e-9)


def test_node_with_fixed_binary_reduces_box():
    # y = 1 in the model makes x*y exact: the product is x's
    # coefficient, no column
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    y = flat.add_variable("y", 1.0, 1.0, "binary")
    flat.objective = Expression().add_bilinear(1.0, x, y)
    lp = build_lp_relaxation(flat, [0.0, 1.0], [1.0, 1.0])
    assert lp.lo[1] == lp.hi[1] == 1.0
    assert aux_columns(flat) == []
    assert lp.A.shape == (0, 2)
    assert list(lp.c) == [1.0, 0.0]
    sol = lp_solve(lp)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def fixed_factor_flat(x_bounds, y_bounds):
    """min 0.5x + 3xy + xz s.t. -2yx + z <= 1, z in [-1, 1]."""
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", *x_bounds)
    y = flat.add_variable("y", *y_bounds)
    z = flat.add_variable("z", -1.0, 1.0)
    flat.objective = (Expression().add_linear(0.5, x).add_bilinear(3.0, x, y)
                      .add_bilinear(1.0, x, z))
    flat.add_constraint(Constraint(
        Expression().add_bilinear(-2.0, y, x).add_linear(1.0, z), "<=", 1.0,
        "row"), {"kind": "global"})
    return flat


def test_product_with_a_fixed_factor_is_a_coefficient():
    # y fixed by the model: x*y folds onto x after the linear part; x*z
    # keeps its column and its four McCormick rows
    flat = fixed_factor_flat((0.0, 2.0), (0.75, 0.75))
    x, y, z = range(3)
    lp = build_lp_relaxation(flat, *flat.bounds_arrays())
    assert aux_columns(flat) == [(3, "bil", x, z)]
    assert lp.A.shape == (5, 4)
    assert list(lp.c) == [0.5 + 3.0 * 0.75, 0.0, 0.0, 1.0]
    assert list(lp.A[0]) == [-2.0 * 0.75, 0.0, 1.0, 0.0]
    point = np.array([1.0, 0.75, 0.5, 0.25])
    assert violations_at(flat, point) == [0.25]
    # x fixed as well: x*y folds onto x with y's value, x*z onto z
    flat = fixed_factor_flat((1.5, 1.5), (0.75, 0.75))
    lp = build_lp_relaxation(flat, *flat.bounds_arrays())
    assert aux_columns(flat) == []
    assert lp.A.shape == (1, 3)
    assert list(lp.c) == [0.5 + 3.0 * 0.75, 0.0, 1.5]
    assert list(lp.A[0]) == [-2.0 * 0.75, 0.0, 1.0]


def test_factor_only_the_box_fixes_keeps_its_column_and_rows():
    # y fixed by a node's box, not by the model: x*y keeps its column
    # and its four McCormick rows, which are exact at y = 0.75, so both
    # optima are the folded LP's
    box = ([0.0, 0.75, -1.0], [2.0, 0.75, 1.0])
    flat = fixed_factor_flat((0.0, 2.0), (0.0, 1.0))
    lp = build_lp_relaxation(flat, *box)
    assert aux_columns(flat) == [(3, "bil", 0, 1), (4, "bil", 0, 2)]
    assert lp.A.shape == (1 + 4 + 4, 5)
    assert (lp.lo[3], lp.hi[3]) == (0.0, 1.5)
    folded = build_lp_relaxation(fixed_factor_flat((0.0, 2.0), (0.75, 0.75)),
                                 *box)
    assert folded.A.shape == (5, 4)
    for sign in (1.0, -1.0):
        sol = _highs(replace(lp, c=sign * lp.c))
        ref = _highs(replace(folded, c=sign * folded.c))
        assert sol.status == ref.status == 0
        assert sol.fun == pytest.approx(ref.fun, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("box", [([0.0, 0.5, -1.0], [2.0, 0.75, 1.0]),
                                 ([0.0, 0.5, -1.0], [2.0, 0.5, 1.0])],
                         ids=["widened", "moved"])
def test_box_that_moves_a_factor_the_model_fixes_is_rejected(box):
    # the fold read y = 0.75 from the model
    flat = fixed_factor_flat((0.0, 2.0), (0.75, 0.75))
    with pytest.raises(ValueError, match="moves a factor the model fixes"):
        build_lp_relaxation(flat, *box)


def _mccormick_reference(flat, lo, hi):
    """The relaxation without the fold, built by hand: every distinct
    product its own column, bounded by its interval and tied to its
    factors by _ref_mccormick's rows over the box."""
    n0 = len(flat.variables)
    cols = {}
    for expr in [flat.objective] + [c.body for c in flat.constraints]:
        for _, _, v, arg in expr.terms:
            cols.setdefault((v, arg), n0 + len(cols))
    n = n0 + len(cols)

    def row(expr):
        coefs = np.zeros(n)
        for cf, v in expr.linear:
            coefs[v] += cf
        for _, cf, v, arg in expr.terms:
            coefs[cols[(v, arg)]] += cf
        return coefs

    A = [row(c.body) for c in flat.constraints]
    senses = [c.sense for c in flat.constraints]
    b = [c.rhs - c.body.constant for c in flat.constraints]
    aux_lo, aux_hi = [], []
    for (v, arg), col in cols.items():
        for env_row, sense, rhs in _ref_mccormick(lo[v], hi[v], lo[arg],
                                                  hi[arg], v == arg):
            coefs = np.zeros(n)
            for sym, cf in env_row.items():
                coefs[{"w": col, "x": v, "y": arg}[sym]] += cf
            A.append(coefs)
            senses.append(sense)
            b.append(rhs)
        t_lo, t_hi = term_interval("bil", lo, hi, v, arg)
        aux_lo.append(t_lo)
        aux_hi.append(t_hi)
    return LinearProgram(c=row(flat.objective), A=np.array(A), senses=senses,
                         b=np.array(b), lo=np.concatenate([lo, aux_lo]),
                         hi=np.concatenate([hi, aux_hi]),
                         obj_const=flat.objective.constant)


def test_fold_matches_the_mccormick_reference_under_highs():
    # a product with a factor the model fixes is exact either way, so the
    # folded LP and the one with its aux column and McCormick rows have
    # the same status and optimum
    rng = np.random.default_rng(53)
    folded = optimal = 0
    seen = set()
    for _ in range(40):
        flat = _random_bilinear_flat(rng)
        n = len(flat.variables)
        body = Expression()
        for _ in range(2):
            i, j = rng.integers(0, n, 2)
            body.add_bilinear(float(rng.uniform(-2, 2)), int(i), int(j))
        body.add_linear(float(rng.uniform(-1, 1)), int(rng.integers(0, n)))
        flat.add_constraint(Constraint(body, "<=", float(rng.uniform(-1, 1)),
                                       "mix"), {"kind": "global"})
        for v in flat.variables:
            if rng.random() < 0.5:
                v.lower = v.upper = rng.uniform(v.lower, v.upper)
        lo, hi = (np.array(a) for a in flat.bounds_arrays())
        lp = build_lp_relaxation(flat, lo, hi)
        ref_lp = _mccormick_reference(flat, lo, hi)
        folded += ref_lp.A.shape[1] - lp.A.shape[1]
        sol, ref = _highs(lp), _highs(ref_lp)
        assert sol.status == ref.status
        seen.add(ref.status)
        if ref.status == 0:
            optimal += 1
            assert sol.fun == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    assert folded >= 20 and optimal >= 15 and seen == {0, 2}


@pytest.mark.parametrize("short, message", [
    ("lo", "box has 1 lower and 2 upper bounds for 2 model variables"),
    ("hi", "box has 2 lower and 1 upper bounds for 2 model variables")],
    ids=["lo", "hi"])
def test_box_needs_one_bound_per_model_variable(short, message):
    box = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    box[short] = box[short][:1]
    with pytest.raises(ValueError, match=message):
        build_lp_relaxation(neg_product_flat(), box["lo"], box["hi"])


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
        for _, coef, i, j in flat.objective.terms:
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
        cols = aux_columns(flat)
        assert len(cols) == len(terms)
        for (col, *_), t in zip(cols, terms):
            assert (lp.lo[col], lp.hi[col]) == interval_eval(t, lo, hi)


def test_relaxation_rejects_log_box_reaching_zero():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.0, 1.0)
    flat.objective = Expression().add_log(1.0, x)
    with pytest.raises(DomainError):
        build_lp_relaxation(flat, [0.0], [1.0])


def test_aux_columns_follow_first_appearance_across_kinds():
    flat = FlatModel(sense="min")
    x = flat.add_variable("x", 0.5, 2.0)
    w = flat.add_variable("w", 1.0, 3.0)
    flat.objective = Expression().add_log(2.0, w)
    flat.add_constraint(Constraint(
        Expression().add_bilinear(1.0, w, x).add_power(-1.0, x, 0.5)
        .add_log(1.0, w).add_bilinear(3.0, x, w), "<=", 4.0, "mix"),
        {"kind": "global"})
    lo, hi = flat.bounds_arrays()
    lp = build_lp_relaxation(flat, lo, hi)
    assert aux_columns(flat) == [
        (2, "log", w, None), (3, "bil", x, w), (4, "pow", x, 0.5)]
    # repeated terms share their column
    assert list(lp.c) == [0.0, 0.0, 2.0, 0.0, 0.0]
    assert list(lp.A[0]) == [0.0, 0.0, 1.0, 4.0, -1.0]


# -- the compiled builder against a row-by-row reference -----------------
#
# _reference_relaxation is the builder as it stood before the compiled
# arrays: it walks every Expression at every box and adds each entry in
# turn, with its own copies of the envelope formulas. The compiled
# build_lp_relaxation must give the same LP to the byte.


def _ref_mccormick(xl, xu, yl, yu, square):
    if square:
        return [({"w": 1.0, "x": -2.0 * xl}, ">=", -xl * xl),
                ({"w": 1.0, "x": -2.0 * xu}, ">=", -xu * xu),
                ({"w": 1.0, "x": -(xl + xu)}, "<=", -xl * xu)]
    return [({"w": 1.0, "x": -yl, "y": -xl}, ">=", -xl * yl),
            ({"w": 1.0, "x": -yu, "y": -xu}, ">=", -xu * yu),
            ({"w": 1.0, "x": -yl, "y": -xu}, "<=", -xu * yl),
            ({"w": 1.0, "x": -yu, "y": -xl}, "<=", -xl * yu)]


def _ref_concave(kind, lo, up, p):
    if kind == "pow":
        f, fprime = (lambda x: x**p), (lambda x: p * x ** (p - 1.0))
    else:
        f, fprime = math.log, (lambda x: 1.0 / x)
    slope = (f(up) - f(lo)) / (up - lo)
    rows = [({"w": 1.0, "x": -slope}, ">=", f(lo) - slope * lo)]
    for t in np.linspace(lo, up, 3):
        if kind == "pow" and t <= 0.0:
            t = lo + (up - lo) * 1e-6
        g = fprime(t)
        rows.append(({"w": 1.0, "x": -g}, "<=", f(t) - g * t))
    return rows


def _ref_pwl(table, lo, up):
    f_lo, f_up = pwl_value(table, lo), pwl_value(table, up)
    slope = (f_up - f_lo) / (up - lo)
    rows = [({"w": 1.0, "x": -slope}, ">=", f_lo - slope * lo)]
    xs, ys = table
    for k in range(len(xs) - 1):
        if xs[k] < up and xs[k + 1] > lo:
            g = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            rows.append(({"w": 1.0, "x": -g}, "<=", ys[k] - g * xs[k]))
    return rows


def reference_columns(flat):
    """{(kind, var, arg): aux column} of the terms the model keeps, in
    order of first appearance: every term but a product with a factor
    the model fixes."""
    n0 = len(flat.variables)
    lo, hi = flat.bounds_arrays()

    def folds(kind, v, arg):
        return (kind == "bil" and v != arg
                and (lo[v] == hi[v] or lo[arg] == hi[arg]))

    order = {}
    for expr in [flat.objective] + [c.body for c in flat.constraints]:
        for kind, _, v, arg in expr.terms:
            if not folds(kind, v, arg):
                order.setdefault((kind, v, arg), n0 + len(order))
    return order


def _reference_relaxation(flat, lo, hi):
    n0 = len(flat.variables)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    order = reference_columns(flat)
    n = n0 + len(order)
    aux_lo, aux_hi, env_rows = [], [], []
    for (kind, v, arg), col in order.items():
        t_lo, t_hi = term_interval(kind, lo, hi, v, arg)
        aux_lo.append(t_lo)
        aux_hi.append(t_hi)
        xl, xu = float(lo[v]), float(hi[v])
        if kind == "bil":
            env = _ref_mccormick(xl, xu, float(lo[arg]), float(hi[arg]),
                                 v == arg)
            symbols = {"w": col, "x": v, "y": arg}
        elif hi[v] - lo[v] > 1e-12:
            env = (_ref_pwl(arg, xl, xu) if kind == "pwl"
                   else _ref_concave(kind, xl, xu, arg))
            symbols = {"w": col, "x": v}
        else:
            continue
        env_rows += [(row, symbols) for row in env]

    n_con = len(flat.constraints)
    A = np.zeros((n_con + len(env_rows), n))

    model_lo, model_hi = flat.bounds_arrays()

    def linearize(expr, coefs):
        for cf, v in expr.linear:
            coefs[v] += cf
        for kind, cf, v, arg in expr.terms:
            col = order.get((kind, v, arg))
            if col is not None:
                coefs[col] += cf
            elif model_lo[arg] == model_hi[arg]:
                coefs[v] += cf * model_lo[arg]
            else:
                coefs[arg] += cf * model_lo[v]
        return coefs

    senses, rhs = [], []
    for coefs, c in zip(A, flat.constraints):
        linearize(c.body, coefs)
        senses.append(c.sense)
        rhs.append(c.rhs - c.body.constant)
    for coefs, ((row, sense, b), symbols) in zip(A[n_con:], env_rows):
        for sym, cf in row.items():
            coefs[symbols[sym]] += cf
        senses.append(sense)
        rhs.append(b)
    return LinearProgram(c=linearize(flat.objective, np.zeros(n)), A=A,
                         senses=senses, b=np.array(rhs, dtype=float),
                         lo=np.concatenate([lo, aux_lo]),
                         hi=np.concatenate([hi, aux_hi]),
                         obj_const=flat.objective.constant)


def assert_same_lp(lp, ref):
    """Byte-identical: every array equal with equal signs of zero, the
    same senses and objective constant."""
    for name in ("c", "A", "b", "lo", "hi"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    assert lp.senses == ref.senses
    assert lp.obj_const == ref.obj_const


def assert_same_columns(flat, compiled):
    """compiled.kept holds the reference's terms in its column order."""
    assert [compiled.keys[t] for t in compiled.kept] == list(
        reference_columns(flat))


def _random_term_flat(rng):
    """A flat model over every term kind: products, squares and a
    repeated product, pow over a box from 0, log and a pwl table over
    its whole box, with constants, repeated linear entries and rows of
    each sense."""
    flat = FlatModel(sense="min")
    n = int(rng.integers(3, 6))
    for i in range(n):
        low = float(rng.choice([0.0, -0.0, -1.0, rng.uniform(-2, 2)]))
        flat.add_variable(f"v{i}", low, low + float(rng.uniform(0.5, 3.0)))
    p = flat.add_variable("p", 0.0, float(rng.uniform(1, 4)))
    g = flat.add_variable("g", float(rng.uniform(0.1, 1)), 5.0)
    t = flat.add_variable("t", 1.0, 4.0)
    xs = np.linspace(1.0, 4.0, int(rng.integers(2, 8)))
    table = (xs, np.sqrt(xs) * float(rng.uniform(0.5, 2)))

    def expression():
        e = Expression(float(rng.choice([0.0, -0.0, rng.uniform(-1, 1)])))
        if rng.random() < 0.3:
            # three entries in one cell: their sum depends on the order
            v = int(rng.integers(0, n))
            for cf in rng.uniform(-3, 3, 3):
                e.add_linear(float(cf), v)
        for _ in range(int(rng.integers(1, 7))):
            roll = rng.random()
            i, j = (int(k) for k in rng.integers(0, n, 2))
            cf = float(rng.choice([-2.0, -1.0, 0.5, 1.0, rng.uniform(-3, 3)]))
            if roll < 0.3:
                e.add_linear(cf, i)
            elif roll < 0.55:
                e.add_bilinear(cf, i, j)
            elif roll < 0.65:
                e.add_bilinear(cf, i, i)
            elif roll < 0.75:
                e.add_power(cf, p, float(rng.uniform(0.2, 0.9)))
            elif roll < 0.85:
                e.add_log(cf, g)
            else:
                e.add_pwl(cf, t, *table)
        return e

    flat.objective = expression()
    for r in range(int(rng.integers(1, 5))):
        flat.add_constraint(Constraint(expression(), str(rng.choice(
            ["<=", ">=", "="])), float(rng.uniform(-2, 2)), f"r{r}"),
            {"kind": "global"})
    return flat


def _fix_factors(rng, flat):
    """flat with about a quarter of its variables fixed by the model at
    a point of their bounds, 0.0 or -0.0 where they hold it a quarter
    of the time and 0 or 1 for a binary: each product of one folds."""
    for v in flat.variables:
        if rng.random() < 0.25:
            point = float(rng.uniform(v.lower, v.upper))
            if v.lower <= 0.0 <= v.upper and rng.random() < 0.25:
                point = float(rng.choice([0.0, -0.0]))
            v.lower = v.upper = (float(round(point)) if v.kind == BINARY
                                 else point)
    return flat


def _random_box(rng, flat):
    """The model's box with each variable it does not fix kept, cut,
    fixed, or cut to a degenerate width below the envelopes' 1e-12
    threshold. A quarter of the cuts fall on 0.0, -0.0 or a pwl
    breakpoint, where ties and signed zeros decide bounds and rows."""
    lo, hi = (np.array(a) for a in flat.bounds_arrays())
    anchors = [0.0, -0.0] + [x for e in [flat.objective]
                             + [c.body for c in flat.constraints]
                             for kind, _, _, arg in e.terms if kind == "pwl"
                             for x in arg[0]]
    for v in range(len(lo)):
        if lo[v] == hi[v]:
            continue
        roll = rng.random()
        point = float(rng.uniform(lo[v], hi[v]))
        inside = [a for a in anchors if lo[v] <= a <= hi[v]]
        if inside and rng.random() < 0.25:
            point = inside[int(rng.integers(len(inside)))]
        if roll < 0.3:
            lo[v] = hi[v] = point
        elif roll < 0.4:
            width = 1e-13 if point + 1e-13 <= hi[v] else -1e-13
            lo[v], hi[v] = sorted((point, point + width))
        elif roll < 0.7:
            lo[v], hi[v] = sorted((point, float(rng.uniform(lo[v], hi[v]))))
    return lo, hi


def test_compiled_relaxation_matches_reference_on_random_models():
    rng = np.random.default_rng(61)
    # folds from the model's bounds; products whose factor only the box
    # fixes keep their columns and rows
    seen = {"fold": 0, "both fixed": 0, "box fixed": 0, "square": 0,
            "degenerate": 0, "pow": 0, "log": 0, "pwl": 0}
    for _ in range(150):
        flat = _fix_factors(rng, _random_term_flat(rng))
        compiled = compile_flat(flat)
        assert_same_columns(flat, compiled)
        kept = set(reference_columns(flat))
        fixed = compiled.lo == compiled.hi
        for _ in range(4):
            lo, hi = _random_box(rng, flat)
            ref = _reference_relaxation(flat, lo, hi)
            assert_same_lp(build_lp_relaxation(flat, lo, hi, compiled), ref)
            assert_same_lp(build_lp_relaxation(flat, lo, hi), ref)
            for kind, v, arg in compiled.keys:
                if kind == "bil" and v != arg and (kind, v, arg) not in kept:
                    seen["fold"] += 1
                    seen["both fixed"] += fixed[v] and fixed[arg]
                elif kind == "bil" and v != arg:
                    seen["box fixed"] += lo[v] == hi[v] or lo[arg] == hi[arg]
                elif kind == "bil" and v == arg:
                    seen["square"] += 1
                elif kind != "bil":
                    seen[kind] += 1
                    seen["degenerate"] += 0 < hi[v] - lo[v] <= 1e-12
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("policy", [
    ApproxPolicy("quad"), ApproxPolicy("pwl", n_segments=21), None],
    ids=["quad", "pwl21", "none"])
def test_compiled_relaxation_matches_reference_on_shipped_boxes(policy):
    flat, boxes = _shipped_network_boxes(policy)
    compiled = compile_flat(flat)
    for lo, hi in boxes:
        assert_same_lp(build_lp_relaxation(flat, lo, hi, compiled),
                       _reference_relaxation(flat, lo, hi))
    assert_same_columns(flat, compiled)
    assert len(boxes) == 81


# -- bound propagation ---------------------------------------------------


def _planted_model(rng):
    """A _random_term_flat model with two binaries on some rows, a point
    x0 in its box, each = row's rhs its value at x0 and each inequality
    met at x0 with a slack that is zero a third of the time; and a
    random box inside the model's that holds x0, each variable kept,
    cut around x0, or fixed at it."""
    flat = _random_term_flat(rng)
    binaries = [flat.add_variable(f"y{k}", 0.0, 1.0, BINARY)
                for k in range(2)]
    lo, hi = (np.array(a) for a in flat.bounds_arrays())
    x0 = rng.uniform(lo, hi)
    ends = rng.random(x0.size) < 0.2
    x0[ends] = np.where(rng.random(ends.sum()) < 0.5, lo[ends], hi[ends])
    x0[binaries] = rng.integers(0, 2, 2)
    rows = []
    for c in flat.constraints:
        for y in binaries:
            if rng.random() < 0.4:
                c.body.add_linear(float(rng.uniform(-5, 5)), y)
        value = c.body.evaluate(x0)
        slack = 0.0 if rng.random() < 0.33 else float(rng.uniform(0, 2))
        rhs = {"=": value, "<=": value + slack, ">=": value - slack}[c.sense]
        rows.append(Constraint(c.body, c.sense, rhs, c.label))
    flat.constraints = rows
    box_lo, box_hi = lo.copy(), hi.copy()
    for v in range(x0.size):
        roll = rng.random()
        if roll < 0.2:
            box_lo[v] = box_hi[v] = x0[v]
        elif roll < 0.6 and v not in binaries:
            box_lo[v] = rng.uniform(lo[v], x0[v])
            box_hi[v] = rng.uniform(x0[v], hi[v])
    return flat, x0, box_lo, box_hi


def test_tighten_keeps_a_planted_point_on_random_models():
    # every term kind and sense, = rows through x0: the tightened box
    # still holds x0, lies inside the given one, and keeps binaries
    # integral
    rng = np.random.default_rng(83)
    seen = {"=": 0, "<=": 0, ">=": 0, "moved": 0, "binary fixed": 0}
    for _ in range(500):
        flat, x0, lo, hi = _planted_model(rng)
        cm = compile_flat(flat)
        box = tighten(cm, lo, hi)
        assert box is not None
        t_lo, t_hi = box
        assert (t_lo <= x0).all() and (x0 <= t_hi).all()
        assert (lo <= t_lo).all() and (t_hi <= hi).all()
        for bound in (t_lo[cm.binaries], t_hi[cm.binaries]):
            assert (bound == np.rint(bound)).all()
        for c in flat.constraints:
            seen[c.sense] += 1
        seen["moved"] += (t_lo > lo).any() or (t_hi < hi).any()
        seen["binary fixed"] += (
            (t_lo == t_hi) & (lo < hi))[cm.binaries].any()
    assert min(seen.values()) >= 50, seen


def _incumbent_networks():
    """The shipped network and generated nets 0-19, each flattened under
    quad, pwl with 21 segments and with its power terms kept."""
    datas = [load_wtn_data(INSTANCE)] + [
        parse_wtn_data(generate_network(k, 2, 1, 2)) for k in range(20)]
    for data in datas:
        for policy in (ApproxPolicy("quad"),
                       ApproxPolicy("pwl", n_segments=21), None):
            model = build_wtn_gdp(data)
            if policy is not None:
                model, _ = apply_approximation(model, policy)
            yield bigm_transform(model)


def test_tighten_keeps_the_solvers_incumbents():
    # an incumbent meets the rows to 1e-6, not exactly: it stays within
    # that of the tightened root box, and of the box tightened with its
    # own binaries fixed
    points = 0
    for flat in _incumbent_networks():
        res = solve_global(flat, gap=1e-4, node_limit=60)
        if res.x is None:
            continue
        points += 1
        cm = compile_flat(flat)
        lo, hi = (np.array(a) for a in flat.bounds_arrays())
        fixed_lo, fixed_hi = lo.copy(), hi.copy()
        fixed_lo[cm.binaries] = fixed_hi[cm.binaries] = np.rint(
            res.x[cm.binaries])
        for box in (tighten(cm, lo, hi), tighten(cm, fixed_lo, fixed_hi)):
            assert box is not None
            assert (box[0] - res.x).max() <= 1e-6
            assert (res.x - box[1]).max() <= 1e-6
    assert points >= 50
