"""Dense bounded-variable primal simplex.

All structural variables carry finite bounds (relaxations guarantee
this), so every auxiliary column can be boxed as well and unboundedness
cannot occur. Two phases: artificial columns drive the start feasible,
then the true costs take over from the basis phase 1 ends with, each
artificial frozen at its phase-1 value. Dantzig pricing by default,
Bland's rule after a run of degenerate pivots. The tableau T = Binv A
is the only factorization: rows are negated where needed so that the
starting basis is the identity, so T's columns at that basis are Binv
at every pivot. A pivot rewrites only the block of T where the pivot
column's rows and the pivot row's columns are both nonzero; every other
cell would only subtract zero.

T is the only 2-D array a solve keeps. The standard-form matrix A is
kept as its nonzeros, (row, column, value) triplets: the row block's,
each divided once by its row's sign flip times the row's largest
magnitude, then one per slack or artificial column. Set-up sums and
residuals run over them, and A itself is rebuilt only when T is
refactored. Reduced costs are priced from the costed basic rows alone.
A refresh corrects the basics through Binv, T's start-basis columns; a
column no pivot has rewritten is still its row's unit column and is
not multiplied. Every LP starts cold: nothing carries over from the
parent node's solve.

The simplex uses numpy alone: a second BLAS library (scipy bundles its
own OpenBLAS) would run its threads against numpy's on every pivot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

RCOST_TOL = 1e-9
RATIO_TOL = 1e-9
PIVOT_TOL = 1e-11
DEGEN_EPS = 1e-12
FEAS_TOL = 1e-7
MAX_PIVOTS = 1_000_000
REFRESH_EVERY = 128
REFACTOR_EVERY = 512
MOVEMENT_BUDGET = 1e5

AT_LOWER, AT_UPPER, IN_BASIS = 0, 1, 2


@dataclass
class LinearProgram:
    c: np.ndarray
    A: np.ndarray
    senses: list[str]
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    obj_const: float = 0.0

    def __post_init__(self):
        if len(self.senses) != len(self.b):
            raise ValueError(f"{len(self.senses)} row senses for "
                             f"{len(self.b)} rows")
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        shape = (len(self.b), len(self.c))
        if self.A.shape != shape:
            raise ValueError(f"A has shape {self.A.shape}, expected {shape} "
                             f"for {shape[0]} rows and {shape[1]} columns")
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if bound.shape != (shape[1],):
                raise ValueError(f"{name} has shape {bound.shape}, expected "
                                 f"({shape[1]},) for {shape[1]} columns")
        for name, data in (("c", self.c), ("A", self.A), ("b", self.b)):
            if not np.isfinite(data).all():
                raise ValueError(f"{name} holds a non-finite value")


@dataclass
class LpSolution:
    # optimal | infeasible | iteration_limit | numerical | time_limit
    status: str
    x: np.ndarray | None
    objective: float | None
    max_violation: float
    n_pivots: int


class _Simplex:
    def __init__(self, lp: LinearProgram, deadline: float | None = None):
        self.lp = lp
        self.deadline = math.inf if deadline is None else deadline
        m, n = lp.A.shape
        self.n_struct = n
        self.m = m

        # the senses are decoded once; _violation reads the same masks
        senses = np.asarray(lp.senses, dtype=str)
        self.ge = senses == ">="
        self.eq = senses == "="
        bad = ~(self.ge | self.eq | (senses == "<="))
        if bad.any():
            first = lp.senses[int(np.argmax(bad))]
            raise ValueError(f"bad row sense {first!r}")

        # the row block's nonzeros, read once in row-major order, are
        # normalized: >= rows negated, so rows are <= or =; row
        # equilibration keeps big-M rows from amplifying pivot noise.
        # One division does both: a / (flip * scale) equals
        # (a * flip) / scale exactly, as flip is +1 or -1
        row, col = np.divmod(np.flatnonzero(lp.A != 0.0), n)
        val = lp.A[row, col]
        starts = np.flatnonzero(row != np.concatenate(([-1], row[:-1])))
        scale = np.ones(m)
        scale[row[starts]] = np.maximum.reduceat(np.abs(val), starts)
        scale[self.ge] *= -1.0
        val /= scale[row]
        b = lp.b / scale

        # start: structurals at lower bound. Each row is one of two kinds:
        # its slack basic where the residual is nonnegative, or an
        # artificial basic. A slack's bound is b minus the row's least
        # value over the box, or its start value where rounding puts
        # that higher.
        resid = b - np.bincount(row, val * lp.lo[col], minlength=m)
        least = np.where(val > 0.0, lp.lo[col], lp.hi[col])
        row_min = np.bincount(row, val * least, minlength=m)
        slack_up = np.maximum(np.maximum(0.0, b - row_min), resid)
        ineq = ~self.eq
        art = self.eq | (resid < 0.0)
        negative = resid < 0.0

        self.first_art = n + int(ineq.sum())
        k = self.first_art + int(art.sum())
        slack_col = np.full(m, -1)
        slack_col[ineq] = np.arange(n, self.first_art)
        basis = slack_col.copy()
        basis[art] = np.arange(self.first_art, k)
        beta = np.abs(resid)

        # rows whose artificial starts from a negative residual are
        # negated, so the starting basis is the identity: a slack is
        # +1 or -1 in its row, an artificial +1
        val[negative[row]] *= -1.0
        b[negative] *= -1.0
        logical_val = np.ones(k - n)
        logical_val[:self.first_art - n] = np.where(negative[ineq], -1.0, 1.0)
        self.nz_row = np.concatenate([row, np.flatnonzero(ineq),
                                      np.flatnonzero(art)])
        self.nz_col = np.concatenate([col, np.arange(n, k)])
        self.nz_val = np.concatenate([val, logical_val])

        self.lo = np.zeros(k)
        self.hi = np.zeros(k)
        self.lo[:n] = lp.lo
        self.hi[:n] = lp.hi
        self.hi[slack_col[ineq]] = slack_up[ineq]
        self.hi[basis[art]] = np.maximum(1.0, beta[art])

        self.n_total = k
        self.b_std = b

        self.x = np.zeros(k)
        self.x[:n] = lp.lo
        self.where = np.full(k, AT_LOWER, dtype=np.int8)
        self.basis = basis
        self.where[basis] = IN_BASIS
        self.x[basis] = beta

        # T = Binv A, and Binv is T's start columns at every pivot;
        # a column no pivot has rewritten is still its start column
        self.start_basis = basis.copy()
        self.T = self._standard_matrix()
        self.rewritten = np.zeros(k, dtype=bool)
        self.n_pivots = 0

    # -- pivoting machinery -------------------------------------------

    def _standard_matrix(self) -> np.ndarray:
        """The m x k standard-form matrix A, rebuilt from its nonzeros."""
        A = np.zeros((self.m, self.n_total))
        A[self.nz_row, self.nz_col] = self.nz_val
        return A

    def _residual(self) -> np.ndarray:
        """b - A x, without forming A."""
        return self.b_std - np.bincount(
            self.nz_row, self.nz_val * self.x[self.nz_col], minlength=self.m)

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """cost - cost[basis] @ T, over the basic rows with a cost."""
        cb = cost[self.basis]
        costed = cb.nonzero()[0]
        return cost - cb[costed] @ self.T[costed]

    def _refresh_basics(self):
        """Pull the incrementally updated basic values back onto the
        rows with two residual corrections through Binv. Binv's columns
        are T's start-basis columns; one that no pivot has rewritten is
        still the unit column of its row, so its residual is added
        directly and only the rewritten columns are multiplied."""
        moved = self.rewritten[self.start_basis]
        binv = self.T[:, self.start_basis[moved]]
        for _ in range(2):
            resid = self._residual()
            self.x[self.basis] += (binv @ resid[moved]
                                   + np.where(moved, 0.0, resid))

    def _refactor_tableau(self):
        """Rebuild T = Binv A from scratch to purge elimination error.
        Raises LinAlgError when the basis matrix is singular."""
        A = self._standard_matrix()
        # C order, so _eliminate's flat view writes into T itself
        self.T = np.ascontiguousarray(np.linalg.solve(A[:, self.basis], A))
        self.rewritten[:] = True

    def _eliminate(self, r: int, q: int, colq: np.ndarray):
        """Pivot on (r, q); colq is a copy of T's column q."""
        T = self.T
        trow = T[r] / T[r, q]
        # node tableaus are sparse: a cell changes only where both the
        # pivot column and the pivot row are nonzero, so the update
        # rewrites that block and no other cell, through flat indices
        rows = colq.nonzero()[0]
        cols = trow.nonzero()[0]
        cells = (rows * T.shape[1])[:, None] + cols
        flat = T.reshape(-1)
        flat[cells] -= colq[rows, None] * trow[cols]
        T[r] = trow
        return trow, cols

    def _run_phase(self, cost: np.ndarray) -> str:
        """Pivot to optimality for one cost vector. The loop keeps the
        basics' values and bounds in basis order (xb, blo, bhi) and
        writes xb back to x before each refresh, so x is whole again
        after an optimal return; on any other status it is dropped."""
        m = self.m
        lo, hi, x, where = self.lo, self.hi, self.x, self.where
        basis, rewritten = self.basis, self.rewritten
        movable = (hi - lo) > 0.0
        # pricing sign: +1 at lower, -1 at upper, 0 for basic or fixed,
        # so sign * d < 0 marks exactly the attractive columns
        sign = np.where(where == AT_LOWER, 1.0, -1.0)
        sign[(where == IN_BASIS) | ~movable] = 0.0
        xb, blo, bhi = x[basis], lo[basis], hi[basis]
        num = np.empty(m)
        ratios = np.empty(m)
        d = self._reduced_costs(cost)
        bland = False
        degen_run = 0
        since_refresh = 0
        since_refactor = 0
        moved = 0.0

        while True:
            if self.n_pivots >= MAX_PIVOTS:
                return "iteration_limit"
            if since_refresh == 0 and time.monotonic() > self.deadline:
                return "time_limit"

            s = sign * d
            if bland:
                attract = s < -RCOST_TOL
                q = int(attract.argmax())
                done = not attract[q]
            else:
                q = int(s.argmin())
                if math.isnan(s[q]):  # a NaN reduced cost never attracts
                    s[np.isnan(s)] = 0.0
                    q = int(s.argmin())
                done = not s[q] < -RCOST_TOL
            if done:
                x[basis] = xb
                self._refresh_basics()
                return "optimal"

            direction = sign[q]
            colq = self.T[:, q].copy()
            deltas = direction * colq

            t_flip = hi[q] - lo[q]
            up = deltas > RATIO_TOL
            dn = deltas < -RATIO_TOL
            np.subtract(xb, blo, out=num, where=up)
            np.subtract(xb, bhi, out=num, where=dn)
            ratios.fill(np.inf)
            np.divide(num, deltas, out=ratios, where=up | dn)
            np.maximum(ratios, 0.0, out=ratios)
            t_rows = float(np.minimum.reduce(ratios, initial=np.inf))

            if t_flip <= t_rows:
                t = t_flip
                x[q] = hi[q] if direction > 0.0 else lo[q]
                where[q] = AT_UPPER if direction > 0.0 else AT_LOWER
                sign[q] = -direction
                xb -= deltas * t
            else:
                t = t_rows
                tied = (np.abs(ratios - t) <= 1e-10).nonzero()[0]
                if bland:
                    r = int(tied[np.argmin(basis[tied])])
                else:
                    r = int(tied[0])
                piv = self.T[r, q]
                if abs(piv) < PIVOT_TOL:
                    return "numerical"

                leaving = int(basis[r])
                xb -= deltas * t
                to_lower = deltas[r] > 0.0
                where[leaving] = AT_LOWER if to_lower else AT_UPPER
                x[leaving] = lo[leaving] if to_lower else hi[leaving]
                sign[leaving] = (1.0 if to_lower else -1.0) * movable[leaving]
                xb[r] = x[q] + direction * t
                blo[r], bhi[r] = lo[q], hi[q]
                basis[r] = q
                where[q] = IN_BASIS
                sign[q] = 0.0

                trow, cols = self._eliminate(r, q, colq)
                rewritten[cols] = True
                dq = d[q]
                d[cols] -= dq * trow[cols]
                d[q] = 0.0

            self.n_pivots += 1
            since_refresh += 1
            since_refactor += 1
            largest = np.maximum.reduce(np.abs(deltas), initial=0.0)
            moved += abs(t) * (1.0 + float(largest))
            refactor = since_refactor >= REFACTOR_EVERY
            if refactor:
                try:
                    self._refactor_tableau()
                except np.linalg.LinAlgError:
                    return "numerical"
                since_refactor = 0
            if refactor or since_refresh >= REFRESH_EVERY \
                    or moved > MOVEMENT_BUDGET:
                x[basis] = xb
                self._refresh_basics()
                xb = x[basis]
                d = self._reduced_costs(cost)
                since_refresh = 0
                moved = 0.0

            if t <= DEGEN_EPS:
                degen_run += 1
                if degen_run > 5 * (self.m + self.n_total):
                    bland = True
            else:
                degen_run = 0

    # -- driver ---------------------------------------------------------

    def solve(self) -> LpSolution:
        lp = self.lp
        n = self.n_struct

        if self.first_art < self.n_total:
            cost1 = np.zeros(self.n_total)
            cost1[self.first_art:] = 1.0
            status = self._run_phase(cost1)
            if status != "optimal":
                return LpSolution(status, None, None, np.inf, self.n_pivots)
            infeas = float(self.x[self.first_art:].sum())
            if infeas > FEAS_TOL:
                return LpSolution("infeasible", None, None, infeas,
                                  self.n_pivots)
            # phase 2 starts from phase 1's basis, each artificial frozen at
            # its phase-1 value (0 if nonbasic, or the LP was infeasible)
            art = slice(self.first_art, self.n_total)
            self.hi[art] = np.maximum(self.x[art], 0.0)

        cost2 = np.zeros(self.n_total)
        cost2[:n] = lp.c
        status = self._run_phase(cost2) if self.n_total else "optimal"
        if status != "optimal":
            return LpSolution(status, None, None, np.inf, self.n_pivots)

        x = np.clip(self.x[:n], lp.lo, lp.hi)
        viol = self._violation(x)
        if not viol <= FEAS_TOL:  # a NaN violation fails too
            return LpSolution("numerical", None, None, viol,
                              self.n_pivots)
        objective = float(lp.c @ x) + lp.obj_const
        return LpSolution("optimal", x, objective, viol,
                          self.n_pivots)

    def _violation(self, x: np.ndarray) -> float:
        excess = self.lp.A @ x - self.lp.b
        excess = np.where(self.eq, np.abs(excess),
                          np.where(self.ge, -excess, excess))
        return float(excess.max(initial=0.0))


def lp_solve(lp: LinearProgram, deadline: float | None = None) -> LpSolution:
    """Solve to optimality or report infeasible / breakdown.

    Deterministic: identical inputs walk identical pivot sequences.
    Optimal solutions satisfy every row to within 1e-7. With a deadline
    (a time.monotonic() value), the clock is read when each phase starts
    and at every refresh of the basic values; once it has passed, the
    solve stops with status time_limit.
    """
    if np.any(lp.lo > lp.hi + 1e-12):
        return LpSolution("infeasible", None, None,
                          float(np.max(lp.lo - lp.hi)), 0)
    if not (np.all(np.isfinite(lp.lo)) and np.all(np.isfinite(lp.hi))):
        raise ValueError("lp_solve requires finite variable bounds")
    return _Simplex(lp, deadline).solve()
