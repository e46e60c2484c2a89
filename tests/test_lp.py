import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import gdpkit
import gdpkit.lp as lpmod
from gdpkit import (ApproxPolicy, apply_approximation, bigm_transform,
                    build_wtn_gdp, load_wtn_data, parse_wtn_data)
from gdpkit.lp import LinearProgram, _Simplex, lp_solve
from gdpkit.model import BINARY
from gdpkit.relax import build_lp_relaxation

import test_wtn

REPO = Path(__file__).resolve().parent.parent
INSTANCE = REPO / "instances" / "wtn_small.json"


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


def test_lp_without_rows_or_columns_is_optimal_at_its_constant():
    sol = lp_solve(make_lp([], np.zeros((0, 0)), [], [], [], [],
                           obj_const=2.5))
    assert sol.status == "optimal"
    assert sol.x.shape == (0,)
    assert sol.objective == 2.5
    assert sol.n_pivots == 0


def test_bound_only_minimization():
    sol = lp_solve(make_lp([-1.0, 2.0], np.zeros((0, 2)), [], [],
                           [2.0, -3.0], [5.0, 4.0]))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([5.0, -3.0])


@pytest.mark.parametrize("senses", [[">="], [">=", "<=", "="]])
def test_senses_must_match_rows(senses):
    with pytest.raises(ValueError, match=f"{len(senses)} row senses for 2 rows"):
        make_lp([1.0], [[1.0], [2.0]], senses, [1.0, 2.0], [0.0], [10.0])


def test_mis_shaped_matrix_rejected():
    # one row and two columns: a 2x1 A is not read as [[1, 2]]
    with pytest.raises(ValueError, match=r"A has shape \(2, 1\), "
                                         r"expected \(1, 2\)"):
        LinearProgram(c=[1.0, 1.0], A=[[1.0], [2.0]], senses=["<="],
                      b=[1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])


@pytest.mark.parametrize("name", ["lo", "hi"])
def test_bound_length_must_match_columns(name):
    args = dict(c=[1.0, 1.0], A=[[1.0, 2.0]], senses=["<="], b=[1.0],
                lo=[0.0, 0.0], hi=[1.0, 1.0])
    args[name] = [0.5]
    with pytest.raises(ValueError, match=rf"{name} has shape \(1,\), "
                                         rf"expected \(2,\)"):
        LinearProgram(**args)


def test_unknown_sense_rejected():
    with pytest.raises(ValueError, match="bad row sense '<'"):
        lp_solve(make_lp([1.0], [[1.0]], ["<"], [1.0], [0.0], [10.0]))


@pytest.mark.parametrize("name, c, A, b", [
    ("A", [1.0, 1.0], [[1.0, np.nan]], [1.0]),
    ("b", [1.0, 1.0], [[1.0, 1.0]], [np.nan]),
    ("A", [1.0, 1.0], [[1.0, np.inf]], [1.0]),
    ("c", [np.nan, 1.0], [[1.0, 1.0]], [1.0]),
])
def test_non_finite_data_rejected(name, c, A, b):
    # each of these was once solved as optimal
    with pytest.raises(ValueError, match=f"^{name} holds a non-finite"):
        make_lp(c, A, [">="], b, [0.0, 0.0], [2.0, 2.0])


def test_nan_violation_is_not_optimal(monkeypatch):
    monkeypatch.setattr(_Simplex, "_violation", lambda self, x: np.nan)
    sol = lp_solve(make_lp([1.0], [[1.0]], [">="], [1.0], [0.0], [10.0]))
    assert sol.status == "numerical"


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


def _highs(lp):
    """The same LP through scipy's HiGHS, the independent reference."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, s, rhs in zip(lp.A, lp.senses, lp.b):
        if s == "<=":
            A_ub.append(row); b_ub.append(rhs)
        elif s == ">=":
            A_ub.append(-row); b_ub.append(-rhs)
        else:
            A_eq.append(row); b_eq.append(rhs)
    return linprog(lp.c, A_ub=np.array(A_ub) if A_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(A_eq) if A_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=list(zip(lp.lo, lp.hi)), method="highs")


def test_agrees_with_reference_solver_on_random_lps():
    rng = np.random.default_rng(101)
    solved = 0
    for _ in range(40):
        lp = _random_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.max_violation <= 1e-7
        ref = _highs(lp)
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
        A = sx._standard_matrix()
        B = A[:, sx.basis]
        y = np.linalg.solve(B.T, cost[sx.basis])
        d = cost - A.T @ y
        at_lower = sx.where == 0
        at_upper = sx.where == 1
        movable = (sx.hi - sx.lo) > 0
        assert not np.any(at_lower & movable & (d < -1e-9))
        assert not np.any(at_upper & movable & (d > 1e-9))


def _basis_solve(sx):
    """Basic values from a fresh factorization of the final basis."""
    A = sx._standard_matrix()
    nonbasic = np.setdiff1d(np.arange(sx.n_total), sx.basis)
    rhs = sx.b_std - A[:, nonbasic] @ sx.x[nonbasic]
    return np.linalg.solve(A[:, sx.basis], rhs)


def _shipped_network_boxes(policy):
    """The shipped network flattened under policy (None keeps its power
    terms), and its root box, then the same box with each binary fixed
    to 0 and to 1 in turn, then with each variable of a nonlinear term
    cut to either half of its range."""
    model = build_wtn_gdp(load_wtn_data(INSTANCE))
    if policy is not None:
        model, _ = apply_approximation(model, policy)
    flat = bigm_transform(model)
    lo = np.array([v.lower for v in flat.variables])
    hi = np.array([v.upper for v in flat.variables])
    boxes = [(lo, hi)]
    for v in flat.variables:
        if v.kind != BINARY:
            continue
        for value in (0.0, 1.0):
            lo_k, hi_k = lo.copy(), hi.copy()
            lo_k[v.id] = hi_k[v.id] = value
            boxes.append((lo_k, hi_k))
    split = sorted({vid for expr in [flat.objective]
                    + [c.body for c in flat.constraints]
                    for kind, _, v, arg in expr.terms
                    for vid in ((v, arg) if kind == "bil" else (v,))})
    for vid in split:
        lo_k, hi_k = lo.copy(), hi.copy()
        lo_k[vid] = hi_k[vid] = 0.5 * (lo[vid] + hi[vid])
        boxes += [(lo, hi_k), (lo_k, hi)]
    return flat, boxes


def _shipped_network_lps(policy):
    """The relaxation over each of _shipped_network_boxes."""
    flat, boxes = _shipped_network_boxes(policy)
    return [build_lp_relaxation(flat, lo, hi) for lo, hi in boxes]


def test_tableau_matches_basis_solve_without_refactor(monkeypatch):
    # the rank-1 update restricted to the pivot column's nonzero rows and
    # the pivot row's nonzero columns must alone keep T = Binv A;
    # the network's root relaxation is sparse enough that most cells are
    # skipped, the random LPs are dense
    monkeypatch.setattr(lpmod, "REFACTOR_EVERY", 10**9)
    rng = np.random.default_rng(101)
    network_root = _shipped_network_lps(
        ApproxPolicy(method="pwl", n_segments=21))[0]
    assert network_root.A.shape == (164, 62)
    pivots = 0
    for lp in [_random_lp(rng) for _ in range(40)] + [network_root]:
        sx = _Simplex(lp)
        assert sx.solve().status == "optimal"
        pivots += sx.n_pivots
        A = sx._standard_matrix()
        expected = np.linalg.solve(A[:, sx.basis], A)
        np.testing.assert_allclose(sx.T, expected, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(sx.x[sx.basis], _basis_solve(sx),
                                   rtol=0.0, atol=1e-9)
    assert pivots > 0


def _full_row_eliminate(self, r, q, _colq=None):
    """Reference pivot: every row with a nonzero pivot-column entry is
    rewritten across all columns. It copies the pivot column itself
    rather than take the one the ratio test copied."""
    colq = self.T[:, q].copy()
    trow = self.T[r] / self.T[r, q]
    rows = np.flatnonzero(colq)
    self.T[rows] -= np.multiply.outer(colq[rows], trow)
    self.T[r] = trow
    return trow, np.arange(trow.size)


def test_restricted_update_walks_the_full_row_update_path(monkeypatch):
    # skipped cells would only have subtracted zero, so both updates take
    # the same pivots to the same point and the same tableau
    lps = (_shipped_network_lps(ApproxPolicy(method="quad"))
           + _shipped_network_lps(ApproxPolicy(method="pwl", n_segments=21)))
    assert len(lps) == 162
    rng = np.random.default_rng(101)
    lps += [_random_lp(rng) for _ in range(40)]
    statuses = set()
    for lp in lps:
        sx = _Simplex(lp)
        sol = sx.solve()
        with monkeypatch.context() as patch:
            patch.setattr(_Simplex, "_eliminate", _full_row_eliminate)
            ref_sx = _Simplex(lp)
            ref = ref_sx.solve()
        assert sol.status == ref.status
        assert sol.n_pivots == ref.n_pivots
        assert sol.objective == ref.objective
        if ref.x is None:
            assert sol.x is None
        else:
            assert np.array_equal(sol.x, ref.x)
        assert np.array_equal(sx.T, ref_sx.T)
        statuses.add(sol.status)
    assert "optimal" in statuses


def _zero_basic_artificial_row(sx):
    """Whether a basic artificial sits at 0 in a row whose structural
    part is nonzero: phase 2 has to pivot it out on its own."""
    rows = np.flatnonzero(sx.basis >= sx.first_art)
    at_zero = rows[np.abs(sx.x[sx.basis[rows]]) <= 1e-12]
    return bool(np.any(np.abs(sx.T[at_zero, :sx.n_struct]) > 1e-7))


def test_shipped_network_lps_match_highs(monkeypatch):
    # phase 2 starts from the basis phase 1 ends with; HiGHS is the
    # independent oracle on every node LP of the shipped network's
    # one-binary and one-split boxes, including those where phase 1
    # leaves a basic artificial at 0
    lps = (_shipped_network_lps(ApproxPolicy(method="quad"))
           + _shipped_network_lps(ApproxPolicy(method="pwl", n_segments=21)))
    assert len(lps) == 162
    run_phase = _Simplex._run_phase
    after_phase1 = []

    def recording(self, cost):
        status = run_phase(self, cost)
        if cost[self.first_art:].any():
            after_phase1.append(_zero_basic_artificial_row(self))
        return status

    monkeypatch.setattr(_Simplex, "_run_phase", recording)
    for lp in lps:
        sol = lp_solve(lp)
        ref = _highs(lp)
        assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if ref.status == 0:
            assert sol.objective == pytest.approx(ref.fun + lp.obj_const,
                                                  rel=1e-9)
    assert any(after_phase1)


def test_frequent_refactors_keep_the_reference_answers(monkeypatch):
    # with the tableau rebuilt every 8 pivots and the basics refreshed
    # every 4, the solves go on past many refactors to the same answers
    monkeypatch.setattr(lpmod, "REFACTOR_EVERY", 8)
    monkeypatch.setattr(lpmod, "REFRESH_EVERY", 4)
    refactor = _Simplex._refactor_tableau
    refactors = []

    def counting(self):
        refactors.append(self.n_pivots)
        refactor(self)

    monkeypatch.setattr(_Simplex, "_refactor_tableau", counting)
    lps = (_shipped_network_lps(ApproxPolicy(method="quad"))
           + _shipped_network_lps(ApproxPolicy(method="pwl", n_segments=21)))
    for lp in lps:
        sol = lp_solve(lp)
        ref = _highs(lp)
        assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if ref.status == 0:
            assert sol.objective == pytest.approx(ref.fun + lp.obj_const,
                                                  rel=1e-9)
    rng = np.random.default_rng(101)
    for _ in range(40):
        lp = _random_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.max_violation <= 1e-7
        assert sol.objective == pytest.approx(_highs(lp).fun, abs=1e-6)
    assert len(refactors) > 100


def _all_202_lps():
    """40 random LPs and the 162 shipped-network LPs."""
    rng = np.random.default_rng(101)
    lps = [_random_lp(rng) for _ in range(40)]
    lps += (_shipped_network_lps(ApproxPolicy(method="quad"))
            + _shipped_network_lps(ApproxPolicy(method="pwl", n_segments=21)))
    assert len(lps) == 202
    return lps


def test_start_basis_is_the_identity():
    # the start rows are signed so that the starting basis is I, which
    # makes T = A at the start and T[:, start_basis] Binv after
    for lp in _all_202_lps():
        sx = _Simplex(lp)
        A = sx._standard_matrix()
        assert np.array_equal(A[:, sx.start_basis], np.eye(sx.m))
        assert np.array_equal(sx.T, A)
        resid = np.abs(A @ sx.x - sx.b_std)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(sx.b_std)))
        assert np.all((sx.lo <= sx.x) & (sx.x <= sx.hi))


def test_tableau_is_the_only_m_by_k_array():
    # the standard matrix is kept as its nonzeros, (row, col, value)
    # triplets; the residual built from them matches the rebuilt matrix,
    # at the start and at the end
    for lp in _all_202_lps():
        sx = _Simplex(lp)
        two_d = sorted(name for name, value in vars(sx).items()
                       if isinstance(value, np.ndarray) and value.ndim > 1)
        assert two_d == ["T"]
        assert sx.nz_row.shape == sx.nz_col.shape == sx.nz_val.shape
        assert np.all(sx.nz_val != 0.0)
        for _ in range(2):
            expected = sx.b_std - sx._standard_matrix() @ sx.x
            np.testing.assert_allclose(sx._residual(), expected,
                                       rtol=0.0, atol=1e-12)
            sx.solve()


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


def _large_network_root_lp():
    flat = bigm_transform(apply_approximation(
        build_wtn_gdp(parse_wtn_data(test_wtn.large_network())),
        ApproxPolicy(method="quad"))[0])
    lo = np.array([v.lower for v in flat.variables])
    hi = np.array([v.upper for v in flat.variables])
    return build_lp_relaxation(flat, lo, hi)


def test_passed_deadline_stops_the_solve():
    lp = _large_network_root_lp()
    sol = lp_solve(lp, deadline=time.monotonic() - 1.0)
    assert sol.status == "time_limit"
    assert sol.x is None
    assert sol.n_pivots <= lpmod.REFRESH_EVERY
    assert lp_solve(lp, deadline=time.monotonic() + 600).status == "optimal"


class _Clock:
    """A time module whose monotonic() reads 0 once and then 1."""

    def __init__(self):
        self.calls = 0

    def monotonic(self):
        self.calls += 1
        return 0.0 if self.calls == 1 else 1.0


def test_deadline_is_read_at_the_refresh_cadence(monkeypatch):
    # the deadline passes after the phase-1 start check, so the solve
    # runs on to its first refresh and stops there
    lp = _large_network_root_lp()
    assert lp_solve(lp).n_pivots > 16
    monkeypatch.setattr(lpmod, "REFRESH_EVERY", 16)
    clock = _Clock()
    monkeypatch.setattr(lpmod, "time", clock)
    sol = lp_solve(lp, deadline=0.5)
    assert sol.status == "time_limit"
    assert 0 < sol.n_pivots <= 16
    assert clock.calls == 2


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


def test_rows_are_scaled_as_negate_then_divide():
    # one division by flip * scale equals negating the >= rows and then
    # dividing by the scale, to the bit and to the sign of zero
    rng = np.random.default_rng(103)
    lps = (_shipped_network_lps(ApproxPolicy(method="quad"))
           + [_random_lp(rng) for _ in range(40)])
    lps.append(make_lp([1.0, 1.0], [[0.0, 0.0], [0.0, -2.0]], [">=", ">="],
                       [0.0, -1.0], [0.0, 0.0], [1.0, 1.0]))
    for lp in lps:
        flip = np.where(np.asarray(lp.senses) == ">=", -1.0, 1.0)
        A = lp.A * flip[:, None]
        b = lp.b * flip
        scale = np.abs(A).max(axis=1, initial=0.0)
        scale[scale <= 0.0] = 1.0
        A /= scale[:, None]
        b /= scale
        negative = b - A @ lp.lo < 0.0
        A[negative] *= -1.0
        b[negative] *= -1.0
        sx = _Simplex(lp)
        # every nonzero cell of the scaled block is a triplet, to the bit
        block = sx.nz_col < sx.n_struct
        row, col, val = (sx.nz_row[block], sx.nz_col[block],
                         sx.nz_val[block])
        assert np.array_equal(np.sort(row * sx.n_struct + col),
                              np.flatnonzero(A))
        for got, want in ((val, A[row, col]), (sx.b_std, b)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_reduced_costs_from_costed_basics_match_the_full_product(
        monkeypatch):
    # pricing multiplies only the basic rows with a cost: in phase 1 the
    # artificials, in phase 2 the costed structurals
    reduced_costs = _Simplex._reduced_costs
    calls = {"phase 1": 0, "phase 2": 0}

    def checked(self, cost):
        got = reduced_costs(self, cost)
        want = cost - cost[self.basis] @ self.T
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        calls["phase 1" if cost[self.first_art:].any() else "phase 2"] += 1
        return got

    monkeypatch.setattr(_Simplex, "_reduced_costs", checked)
    for lp in _all_202_lps():
        lp_solve(lp)
    assert calls["phase 1"] > 0 and calls["phase 2"] > 0


def _full_refresh(sx):
    """The basic values after two residual corrections through all of
    T's logical block, the residual from the rebuilt matrix."""
    n = sx.n_struct
    x = sx.x.copy()
    z = np.zeros(sx.n_total - n)
    for _ in range(2):
        z[sx.start_basis - n] = sx.b_std - sx._standard_matrix() @ x
        x[sx.basis] += sx.T[:, n:] @ z
    return x


@pytest.mark.parametrize("case", ["pivots", "refactors", "full rows"])
def test_refresh_over_rewritten_columns_matches_the_full_product(
        monkeypatch, case):
    # a start column no pivot has marked rewritten is still the unit
    # column of its row, so the refresh may add its residual directly;
    # a refactor marks every column, and so does the reference pivot
    # that rewrites whole rows
    refactored = []
    if case == "refactors":
        monkeypatch.setattr(lpmod, "REFACTOR_EVERY", 8)
        monkeypatch.setattr(lpmod, "REFRESH_EVERY", 4)
        refactor = _Simplex._refactor_tableau

        def recording(self):
            refactor(self)
            refactored.append(self)

        monkeypatch.setattr(_Simplex, "_refactor_tableau", recording)
    if case == "full rows":
        monkeypatch.setattr(_Simplex, "_eliminate", _full_row_eliminate)
    refresh = _Simplex._refresh_basics
    mixed, after_refactor = [], []

    def checked(self):
        rows = np.flatnonzero(~self.rewritten[self.start_basis])
        fresh = self.start_basis[rows]
        assert np.array_equal(self.T[:, fresh], np.eye(self.m)[:, rows])
        want = _full_refresh(self)
        refresh(self)
        np.testing.assert_allclose(self.x, want, rtol=0.0, atol=1e-12)
        mixed.append(0 < fresh.size < self.m)
        after_refactor.append(any(sx is self for sx in refactored))

    monkeypatch.setattr(_Simplex, "_refresh_basics", checked)
    for lp in _all_202_lps():
        lp_solve(lp)
    assert len(mixed) > 200
    assert any(mixed) == (case != "full rows")
    assert any(after_refactor) == (case == "refactors")
