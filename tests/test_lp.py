import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import gdpkit
import gdpkit.lp as lpmod
from gdpkit.lp import LinearProgram, _Simplex, lp_solve


def make_lp(c, A, senses, b, lo, hi, obj_const=0.0):
    return LinearProgram(c=np.asarray(c, float),
                         A=np.asarray(A, float).reshape(len(b), len(c)),
                         senses=list(senses), b=np.asarray(b, float),
                         lo=np.asarray(lo, float), hi=np.asarray(hi, float),
                         obj_const=obj_const)


def test_single_bound_row():
    sol = lp_solve(make_lp([1.0], [[1.0]], [">="], [1.0], [0.0], [10.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_symmetric_facet():
    sol = lp_solve(make_lp([-1.0, -1.0], [[1.0, 1.0]], ["<="], [1.0],
                           [0, 0], [1, 1]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0)
    assert sol.x.sum() == pytest.approx(1.0)


def test_mccormick_polytope_vertex():
    # min -w over the 4 envelope rows of w = x*y on [0,1]^2 plus x+y <= 1
    A = [
        [0.0, 0.0, 1.0],
        [-1.0, -1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [0.0, -1.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
    senses = [">=", ">=", "<=", "<=", "<="]
    b = [0.0, -1.0, 0.0, 0.0, 1.0]
    sol = lp_solve(make_lp([0, 0, -1.0], A, senses, b, [0, 0, -1], [1, 1, 1]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.5, abs=1e-9)
    # vertex-enumeration oracle: max of min(x, y) over x + y <= 1 is 0.5
    xs = np.linspace(0, 1, 201)
    X, Y = np.meshgrid(xs, xs)
    mask = X + Y <= 1 + 1e-12
    oracle = np.minimum(X, Y)[mask].max()
    assert sol.objective == pytest.approx(-float(oracle), abs=1e-9)


def test_infeasible_rows():
    sol = lp_solve(make_lp([0.0], [[1.0], [1.0]], ["<=", ">="], [0.0, 1.0],
                           [0.0], [10.0]))
    assert sol.status == "infeasible"


def test_empty_box_infeasible():
    sol = lp_solve(make_lp([1.0], np.zeros((0, 1)), [], [], [2.0], [1.0]))
    assert sol.status == "infeasible"


def test_bound_only_minimization():
    sol = lp_solve(make_lp([-1.0, 2.0], np.zeros((0, 2)), [], [],
                           [2.0, -3.0], [5.0, 4.0]))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([5.0, -3.0])


def test_objective_constant_carried():
    sol = lp_solve(make_lp([1.0], [[1.0]], [">="], [2.0], [0.0], [5.0],
                           obj_const=7.0))
    assert sol.objective == pytest.approx(9.0)


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    lo = rng.uniform(-3, 0, n)
    hi = lo + rng.uniform(0.5, 4, n)
    A = np.where(rng.random((m, n)) < 0.7, rng.uniform(-3, 3, (m, n)), 0.0)
    anchor = rng.uniform(lo, hi)
    senses = []
    b = np.empty(m)
    vals = A @ anchor
    for i in range(m):
        kind = rng.random()
        if kind < 0.4:
            senses.append("<=")
            b[i] = vals[i] + rng.uniform(0, 1.5)
        elif kind < 0.8:
            senses.append(">=")
            b[i] = vals[i] - rng.uniform(0, 1.5)
        else:
            senses.append("=")
            b[i] = vals[i]
    c = rng.uniform(-2, 2, n)
    return make_lp(c, A, senses, b, lo, hi)


def test_agrees_with_reference_solver_on_random_lps():
    rng = np.random.default_rng(101)
    solved = 0
    for _ in range(40):
        lp = _random_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.max_violation <= 1e-7
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for row, s, rhs in zip(lp.A, lp.senses, lp.b):
            if s == "<=":
                A_ub.append(row); b_ub.append(rhs)
            elif s == ">=":
                A_ub.append(-row); b_ub.append(-rhs)
            else:
                A_eq.append(row); b_eq.append(rhs)
        ref = linprog(lp.c, A_ub=np.array(A_ub) if A_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(A_eq) if A_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      bounds=list(zip(lp.lo, lp.hi)), method="highs")
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
        solved += 1
    assert solved == 40


def test_residuals_within_contract_on_random_lps():
    rng = np.random.default_rng(59)
    for _ in range(60):
        sol = lp_solve(_random_lp(rng))
        assert sol.status == "optimal"
        assert sol.max_violation <= 1e-7


def test_no_improving_reduced_cost_at_termination():
    rng = np.random.default_rng(71)
    for _ in range(15):
        lp = _random_lp(rng)
        sx = _Simplex(lp)
        sol = sx.solve()
        assert sol.status == "optimal"
        # independent recomputation of reduced costs from the basis
        cost = np.zeros(sx.n_total)
        cost[:sx.n_struct] = lp.c
        B = sx.A_full[:, sx.basis]
        y = np.linalg.solve(B.T, cost[sx.basis])
        d = cost - sx.A_full.T @ y
        at_lower = sx.where == 0
        at_upper = sx.where == 1
        movable = (sx.hi - sx.lo) > 0
        assert not np.any(at_lower & movable & (d < -1e-9))
        assert not np.any(at_upper & movable & (d > 1e-9))


def _basis_solve(sx):
    """Basic values from a fresh factorization of the final basis."""
    nonbasic = np.setdiff1d(np.arange(sx.n_total), sx.basis)
    rhs = sx.b_std - sx.A_full[:, nonbasic] @ sx.x[nonbasic]
    return np.linalg.solve(sx.A_full[:, sx.basis], rhs)


def test_tableau_matches_basis_solve_without_refactor(monkeypatch):
    # the row-restricted rank-1 update alone must keep T = Binv A_full
    monkeypatch.setattr(lpmod, "REFACTOR_EVERY", 10**9)
    rng = np.random.default_rng(101)
    pivots = 0
    for _ in range(40):
        sx = _Simplex(_random_lp(rng))
        assert sx.solve().status == "optimal"
        pivots += sx.n_pivots
        expected = np.linalg.solve(sx.A_full[:, sx.basis], sx.A_full)
        np.testing.assert_allclose(sx.T, expected, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(sx.x[sx.basis], _basis_solve(sx),
                                   rtol=0.0, atol=1e-9)
    assert pivots > 0


def test_refresh_pulls_drifted_basics_back():
    rng = np.random.default_rng(101)
    noise = np.random.default_rng(7)
    for _ in range(40):
        sx = _Simplex(_random_lp(rng))
        assert sx.solve().status == "optimal"
        expected = _basis_solve(sx)
        sx.x[sx.basis] += noise.uniform(-1e-6, 1e-6, sx.m)
        sx._refresh_basics()
        np.testing.assert_allclose(sx.x[sx.basis], expected,
                                   rtol=0.0, atol=1e-9)


def test_singular_refactor_reported_as_numerical(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lpmod, "REFACTOR_EVERY", 1)
    monkeypatch.setattr(lpmod.np.linalg, "solve", singular)
    sol = lp_solve(make_lp([1.0], [[1.0]], [">="], [1.0], [0.0], [10.0]))
    assert sol.status == "numerical"


def test_deterministic_pivot_sequence():
    rng = np.random.default_rng(13)
    lp = _random_lp(rng)
    a = lp_solve(lp)
    b = lp_solve(lp)
    assert a.n_pivots == b.n_pivots
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_iteration_limit_reported(monkeypatch):
    monkeypatch.setattr(lpmod, "MAX_PIVOTS", 1)
    rng = np.random.default_rng(2)
    lp = _random_lp(rng)
    sol = lp_solve(lp)
    assert sol.status in ("iteration_limit", "optimal", "infeasible")
    monkeypatch.setattr(lpmod, "MAX_PIVOTS", 0)
    sol = lp_solve(lp)
    assert sol.status == "iteration_limit"


def test_infinite_bounds_rejected():
    with pytest.raises(ValueError):
        lp_solve(make_lp([1.0], np.zeros((0, 1)), [], [], [0.0], [np.inf]))


def test_solving_loads_no_scipy():
    # scipy bundles a second BLAS whose threads would contend with numpy's
    script = (
        "import sys\n"
        "from gdpkit import LinearProgram, lp_solve\n"
        "sol = lp_solve(LinearProgram(c=[1.0, 1.0], A=[[1.0, 2.0]],\n"
        "    senses=['>='], b=[2.0], lo=[0.0, 0.0], hi=[4.0, 4.0]))\n"
        "assert sol.status == 'optimal', sol.status\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(gdpkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
