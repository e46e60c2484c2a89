"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one pass/fail line (run with -s to watch them live).
"""

import time

import numpy as np
import pytest

from gdpkit.approx import ApproxPolicy, apply_approximation, build_pwl, fit_quadratic
from gdpkit.bnb import feasibility_check, relative_gap, solve_global
from gdpkit.model import Constraint, Expression
from gdpkit.transforms import bigm_transform, compute_bigm
from gdpkit.wtn import (
    build_wtn_gdp,
    check_solution,
    parse_wtn_data,
    relative_error,
    synthetic_instance,
)

import test_bnb
import test_wtn
from test_relax import envelope_lp, row_violations


def _report(number: int, description: str, ok: bool):
    print(f"[acceptance {number}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


# -- 1: relative-error metric ------------------------------------------

def test_criterion_1_relative_error_metric():
    ok = (round(relative_error(349556, 348337), 2) == 0.35
          and round(relative_error(1.043, 1.013), 4) == 2.9615)
    _report(1, "relative-error metric matches the reference values", ok)


# -- 2: envelope soundness ---------------------------------------------

def test_criterion_2_envelope_soundness():
    # the rows build_lp_relaxation emits for one product, and for one
    # concave power or log, over each random box
    rng = np.random.default_rng(2024)
    worst = 0.0
    rows = 0
    for _ in range(500):
        xl = rng.uniform(-3, 3)
        xu = xl + rng.uniform(1e-3, 4)
        yl = rng.uniform(-3, 3)
        yu = yl + rng.uniform(1e-3, 4)
        lp = envelope_lp("bil", [xl, yl], [xu, yu])
        xs = rng.uniform(xl, xu, 100)
        ys = rng.uniform(yl, yu, 100)
        worst = max(worst, float(row_violations(lp, (xs, ys, xs * ys)).max()))
        rows += lp.A.shape[0]

        lo = rng.uniform(0.05, 2.0)
        up = lo + rng.uniform(1e-2, 5.0)
        if rng.random() < 0.5:
            expo = float(rng.uniform(0.1, 0.9))
            lp = envelope_lp("pow", [lo], [up], expo)
            f = lambda v: v**expo
        else:
            lp = envelope_lp("log", [lo], [up])
            f = np.log
        xs = rng.uniform(lo, up, 100)
        worst = max(worst, float(row_violations(lp, (xs, f(xs))).max()))
        rows += lp.A.shape[0]
    _report(2, f"500x100 samples of the builder's {rows} envelope rows "
               f"sound (worst residual {worst:.2e})",
            rows == 500 * 8 and worst <= 1e-9)


# -- 3: big-M validity --------------------------------------------------

def test_criterion_3_bigm_validity():
    rng = np.random.default_rng(77)
    worst_relaxed = 0.0
    worst_identity = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        body = Expression(float(rng.uniform(-2, 2)))
        for v in range(n):
            if rng.random() < 0.8:
                body.add_linear(float(rng.uniform(-3, 3)), v)
        if rng.random() < 0.7:
            body.add_bilinear(float(rng.uniform(-3, 3)),
                              int(rng.integers(0, n)), int(rng.integers(0, n)))
        if rng.random() < 0.4:
            body.add_power(float(rng.uniform(-2, 2)), 0,
                           float(rng.uniform(0.2, 0.9)))
        lo = rng.uniform(0.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        rhs = float(rng.uniform(-2, 2))
        row = Constraint(body, "<=", rhs, "r")
        m = compute_bigm(row, lo, hi)
        for _ in range(100):
            point = rng.uniform(lo, hi)
            val = body.evaluate(point)
            # y = 0: relaxed row is body - rhs <= M
            worst_relaxed = max(worst_relaxed, val - rhs - m)
            # y = 1: body + M*1 <= rhs + M collapses to the original row
            worst_identity = max(worst_identity,
                                 abs((val + m) - (rhs + m) - (val - rhs)))
    _report(3, f"200 relaxed rows never cut in-box points "
               f"(worst slack breach {worst_relaxed:.2e})",
            worst_relaxed <= 1e-9 and worst_identity <= 1e-12)


# -- 4: piecewise exactness and convergence ------------------------------

def test_criterion_4_pwl_exactness_and_convergence():
    f = lambda x: np.asarray(x, dtype=float) ** 0.7
    fine = build_pwl(f, 0.0, 1.0, 101)
    breakpoint_err = float(np.max(np.abs(
        fine.interpolate(fine.breakpoints) - f(fine.breakpoints))))
    grid = np.linspace(0.0, 1.0, 100_001)
    err_fine = float(np.max(np.abs(fine.interpolate(grid) - f(grid))))
    coarse = build_pwl(f, 0.0, 1.0, 11)
    err_coarse = float(np.max(np.abs(coarse.interpolate(grid) - f(grid))))
    ok = (len(fine.breakpoints) == 102 and breakpoint_err <= 1e-12
          and err_fine < err_coarse)
    _report(4, f"pwl exact at 102 breakpoints ({breakpoint_err:.1e}); "
               f"error 101 segments {err_fine:.4f} < 11 segments "
               f"{err_coarse:.4f}", ok)


# -- 5: quadratic-fit optimality -----------------------------------------

def test_criterion_5_quadratic_fit_optimality():
    ok = True
    notes = []
    for f, lo, hi in ((lambda x: np.asarray(x) ** 0.7, 1.0, 10.0),
                      (np.log, 1.0, 10.0)):
        fit = fit_quadratic(f, lo, hi, 1000)
        xs = np.linspace(lo, hi, 1000)
        target = np.asarray(f(xs), dtype=float)

        def sse(a, b, c):
            return float(np.sum((a * xs**2 + b * xs + c - target) ** 2))

        base = sse(fit.a, fit.b, fit.c)
        for i in range(3):
            for eps in (-1e-4, 1e-4):
                coeffs = [fit.a, fit.b, fit.c]
                coeffs[i] += eps
                ok &= sse(*coeffs) >= base - 1e-12
        ok &= fit.normal_residual <= 1e-8
        oracle = np.linalg.solve(*_brute_normal_system(f, lo, hi, 1000))
        agreement = float(np.max(np.abs(np.array([fit.a, fit.b, fit.c])
                                        - oracle)))
        ok &= agreement <= 1e-9
        notes.append(f"oracle agreement {agreement:.1e}")
    _report(5, "quadratic fits are perturbation-optimal and match the "
               "brute-force normal equations (" + "; ".join(notes) + ")", ok)


def _brute_normal_system(f, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    system = np.zeros((3, 3))
    target = np.zeros(3)
    for x in xs:
        row = np.array([x * x, x, 1.0])
        system += np.outer(row, row)
        target += float(f(x)) * row
    return system, target


# -- 6: global-solver oracle equivalence ----------------------------------

def test_criterion_6_solver_matches_oracles():
    flat = test_bnb.neg_product_model()
    res = solve_global(flat, gap=1e-4, time_limit=120)
    oracle = test_bnb.grid_oracle(flat)
    ok = (res.status == "optimal" and oracle == pytest.approx(-0.25)
          and abs(res.objective - oracle) <= 1e-3 * abs(oracle))
    checked = 1
    for seed in range(100, 120):
        flat = test_bnb.random_instance(seed)
        res = solve_global(flat, gap=1e-4, time_limit=120)
        oracle = test_bnb.milp_grid_oracle(flat, 81)
        ok &= res.status == "optimal" and oracle is not None
        ok &= abs(res.objective - oracle) <= 1e-3 * max(1.0, abs(oracle))
        checked += 1
    _report(6, f"{checked} instances match dense-grid/enumeration oracles "
               "within 1e-3 relative at gap 1e-4", ok)


# -- 7 and 8: end-to-end synthetic network + termination policy ----------


@pytest.fixture(scope="module")
def wtn_runs():
    data = parse_wtn_data(synthetic_instance())
    gdp = build_wtn_gdp(data)
    runs = {}
    for method, segments in (("quad", None), ("pwl", 21)):
        policy = ApproxPolicy(method=method,
                              n_segments=segments or 101)
        approxed, report = apply_approximation(gdp, policy)
        flat = bigm_transform(approxed)
        result = solve_global(flat, gap=1e-4, time_limit=480)
        runs[method] = {"flat": flat, "result": result, "report": report}
    return data, gdp, runs


def test_criterion_7_synthetic_network_end_to_end(wtn_runs):
    data, gdp, runs = wtn_runs
    streams = gdp.streams
    ok = True
    notes = []
    for method in ("quad", "pwl"):
        flat = runs[method]["flat"]
        result = runs[method]["result"]
        ok &= result.status == "optimal"
        point = result.x
        feasible, _ = feasibility_check(point, flat, tol=1e-6)
        ok &= feasible
        active = {t: point[flat.binary_of_guard[f"Y[{t}]"]] > 0.5
                  for t in data.units}
        checks = check_solution(data, streams, point, active)
        ok &= max(checks["mass_residual"].values()) <= 1e-6
        ok &= checks["limit_excess"] <= 1e-6
        ok &= checks["inactive_residual"] <= 1e-6
        ok &= checks["split_spread"] <= 1e-6
        notes.append(f"{method} objective {result.objective:.4f}")

    z_quad = runs["quad"]["result"].objective
    z_pwl = runs["pwl"]["result"].objective
    budget = 0.0
    for method in ("quad", "pwl"):
        for entry in runs[method]["report"]:
            theta = data.units[entry["var"][4:-1]].theta
            budget += theta * entry["max_abs_error"]
    ok &= abs(z_quad - z_pwl) <= budget + 1e-6
    _report(7, "synthetic network solves through quad and pwl pipelines, "
               "incumbents pass physics checks, objectives differ within "
               f"certified budget ({'; '.join(notes)}; "
               f"|dz| {abs(z_quad - z_pwl):.4f} <= {budget:.4f})", ok)


def test_criterion_8_termination_policy(wtn_runs):
    _, _, runs = wtn_runs
    quad = runs["quad"]["result"]
    gap_ok = (quad.status == "optimal"
              and relative_gap(quad.objective, quad.bound) <= 1e-4)

    # the 5x4x4 network under quad: a root bound of 0 and no incumbent
    # within the limit
    approxed, _ = apply_approximation(
        build_wtn_gdp(parse_wtn_data(test_wtn.large_network())),
        ApproxPolicy(method="quad"))
    flat = bigm_transform(approxed)
    limit = 15.0
    t0 = time.monotonic()
    res = solve_global(flat, gap=1e-4, time_limit=limit)
    elapsed = time.monotonic() - t0
    time_ok = res.status == "time_limit" and elapsed <= limit * 1.10
    _report(8, f"gap stop is truthful (gap {quad.gap:.2e}) and a hard "
               f"instance stops at the wall clock ({elapsed:.1f}s vs "
               f"{limit:.0f}s budget)", gap_ok and time_ok)
