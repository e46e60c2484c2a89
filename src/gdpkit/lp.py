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

The simplex uses numpy alone: a second BLAS library (scipy bundles its
own OpenBLAS) would run its threads against numpy's on every pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    aux_terms: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.senses) != len(self.b):
            raise ValueError(f"{len(self.senses)} row senses for "
                             f"{len(self.b)} rows")
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(len(self.b), len(self.c))
        self.b = np.asarray(self.b, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | iteration_limit | numerical
    x: np.ndarray | None
    objective: float | None
    max_violation: float
    n_pivots: int


class _Simplex:
    def __init__(self, lp: LinearProgram):
        self.lp = lp
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

        # normalize: >= rows negated, so rows are <= or =
        flip = np.where(self.ge, -1.0, 1.0)
        A = lp.A * flip[:, None]
        b = lp.b * flip

        # row equilibration keeps big-M rows from amplifying pivot noise
        scale = np.abs(A).max(axis=1, initial=0.0)
        scale[scale <= 0.0] = 1.0
        A /= scale[:, None]
        b /= scale

        # start: structurals at lower bound. Each row is one of two kinds:
        # its slack basic where the residual is nonnegative, or an
        # artificial basic. A slack's bound is b minus the row's least
        # value over the box, or its start value where rounding puts
        # that higher.
        resid = b - A @ lp.lo
        row_min = (np.where(A > 0, A, 0.0) @ lp.lo
                   + np.where(A < 0, A, 0.0) @ lp.hi)
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
        # negated, so the starting basis is the identity
        self.A_full = np.zeros((m, k))
        self.A_full[:, :n] = A
        self.A_full[ineq, slack_col[ineq]] = 1.0
        self.A_full[negative] *= -1.0
        self.A_full[art, basis[art]] = 1.0
        b[negative] *= -1.0

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

        # T = Binv @ A_full, and Binv is T's start columns at every pivot
        self.start_basis = basis.copy()
        self.T = self.A_full.copy()
        self.n_pivots = 0

    # -- pivoting machinery -------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - cost[self.basis] @ self.T

    def _refresh_basics(self):
        """Pull the incrementally updated basic values back onto the
        rows with two residual corrections through Binv."""
        binv = self.T[:, self.start_basis]
        for _ in range(2):
            self.x[self.basis] += binv @ (self.b_std - self.A_full @ self.x)

    def _refactor_tableau(self):
        """Rebuild T = Binv A from scratch to purge elimination error.
        Raises LinAlgError when the basis matrix is singular."""
        B = self.A_full[:, self.basis]
        self.T = np.linalg.solve(B, self.A_full)

    def _eliminate(self, r: int, q: int):
        colq = self.T[:, q].copy()
        trow = self.T[r] / self.T[r, q]
        # node tableaus are sparse: a cell changes only where both the
        # pivot column and the pivot row are nonzero, so the update
        # rewrites that block and no other cell
        rows = np.flatnonzero(colq)[:, None]
        cols = np.flatnonzero(trow)
        self.T[rows, cols] -= colq[rows] * trow[cols]
        self.T[r] = trow
        return trow, cols

    def _run_phase(self, cost: np.ndarray) -> str:
        movable = (self.hi - self.lo) > 0.0
        d = self._reduced_costs(cost)
        bland = False
        degen_run = 0
        since_refresh = 0
        since_refactor = 0
        moved = 0.0

        while True:
            if self.n_pivots >= MAX_PIVOTS:
                return "iteration_limit"

            attract = ((self.where == AT_LOWER) & (d < -RCOST_TOL)) | \
                      ((self.where == AT_UPPER) & (d > RCOST_TOL))
            attract &= movable
            if not attract.any():
                self._refresh_basics()
                return "optimal"

            if bland:
                q = int(np.argmax(attract))
            else:
                score = np.where(attract, np.abs(d), -1.0)
                q = int(np.argmax(score))

            direction = 1.0 if self.where[q] == AT_LOWER else -1.0
            deltas = direction * self.T[:, q]

            t_flip = self.hi[q] - self.lo[q]
            ratios = np.full(self.m, np.inf)
            xb = self.x[self.basis]
            blo = self.lo[self.basis]
            bhi = self.hi[self.basis]
            up = deltas > RATIO_TOL
            dn = deltas < -RATIO_TOL
            ratios[up] = (xb[up] - blo[up]) / deltas[up]
            ratios[dn] = (xb[dn] - bhi[dn]) / deltas[dn]
            np.maximum(ratios, 0.0, out=ratios)
            t_rows = float(ratios.min(initial=np.inf))

            if t_flip <= t_rows:
                t = t_flip
                self.x[q] = self.hi[q] if self.where[q] == AT_LOWER else self.lo[q]
                self.where[q] = AT_UPPER if self.where[q] == AT_LOWER else AT_LOWER
                self.x[self.basis] = xb - deltas * t
            else:
                t = t_rows
                tied = np.flatnonzero(np.abs(ratios - t) <= 1e-10)
                if bland:
                    r = int(tied[np.argmin(self.basis[tied])])
                else:
                    r = int(tied[0])
                piv = self.T[r, q]
                if abs(piv) < PIVOT_TOL:
                    return "numerical"

                leaving = int(self.basis[r])
                self.x[self.basis] = xb - deltas * t
                self.x[q] += direction * t
                if deltas[r] > 0.0:
                    self.where[leaving] = AT_LOWER
                    self.x[leaving] = self.lo[leaving]
                else:
                    self.where[leaving] = AT_UPPER
                    self.x[leaving] = self.hi[leaving]
                self.basis[r] = q
                self.where[q] = IN_BASIS

                trow, cols = self._eliminate(r, q)
                dq = d[q]
                d[cols] -= dq * trow[cols]
                d[q] = 0.0

            self.n_pivots += 1
            since_refresh += 1
            since_refactor += 1
            moved += abs(t) * (1.0 + float(np.abs(deltas).max(initial=0.0)))
            if since_refactor >= REFACTOR_EVERY:
                try:
                    self._refactor_tableau()
                except np.linalg.LinAlgError:
                    return "numerical"
                self._refresh_basics()
                d = self._reduced_costs(cost)
                since_refactor = since_refresh = 0
                moved = 0.0
            elif since_refresh >= REFRESH_EVERY or moved > MOVEMENT_BUDGET:
                self._refresh_basics()
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
        status = self._run_phase(cost2)
        if status != "optimal":
            return LpSolution(status, None, None, np.inf, self.n_pivots)

        x = np.clip(self.x[:n], lp.lo, lp.hi)
        viol = self._violation(x)
        if viol > FEAS_TOL:
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


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality or report infeasible / breakdown.

    Deterministic: identical inputs walk identical pivot sequences.
    Optimal solutions satisfy every row to within 1e-7.
    """
    if np.any(lp.lo > lp.hi + 1e-12):
        return LpSolution("infeasible", None, None,
                          float(np.max(lp.lo - lp.hi)), 0)
    if not (np.all(np.isfinite(lp.lo)) and np.all(np.isfinite(lp.hi))):
        raise ValueError("lp_solve requires finite variable bounds")
    return _Simplex(lp).solve()
