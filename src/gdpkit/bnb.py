"""Global solver for flattened models.

Best-bound branch and bound, one node at a time: binaries are branched
to integrality, continuous variables in nonlinear terms are split
spatially so the envelope relaxations tighten. Incumbents come only
from LP points that pass an exact feasibility check against the
original rows. Defaults match a 0.01 % relative gap and a 3600 s wall
clock budget.

A solve compiles its flat model, its LP columns and its root box once
(relax.compile_flat). Each popped node's box is first tightened by
bound propagation (relax.tighten), and the node keeps the tightened
box, so its children inherit it; a node whose box propagation empties
is dropped before its LP and is not counted. Each node then calls
build_lp_relaxation, lp_solve and feasibility_check through this
module's names with those arrays, so a node pays only for what its box
changes: the bounds, the envelope rows and a cold simplex solve.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .lp import LpSolution, lp_solve
from .relax import (CompiledModel, build_lp_relaxation, compile_flat,
                    term_values, tighten)
from .transforms import FlatModel, _negated

logger = logging.getLogger(__name__)

DEFAULT_GAP = 1e-4
DEFAULT_TIME_LIMIT = 3600.0
FEAS_TOL = 1e-6
INT_TOL = 1e-6
MIN_WIDTH = 1e-9


@dataclass
class BnbNode:
    lo: np.ndarray
    hi: np.ndarray
    bound: float
    depth: int
    resplit: bool = False


@dataclass
class SolveResult:
    """Outcome of a global solve.

    status is one of optimal, feasible, infeasible, time_limit (plus
    unknown for the corner where a limit stopped the search before any
    incumbent or infeasibility proof existed). parked counts nodes left
    unexplored, after a failed LP re-split, with nothing to branch on, or
    with its LP stopped by the time limit; their bounds stay in bound.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float
    gap: float
    nodes: int
    parked: int
    wall_time: float


def relative_gap(objective: float | None, bound: float) -> float:
    if objective is None:
        return math.inf
    return abs(objective - bound) / max(1e-10, abs(objective))


def feasibility_check(point, flat: FlatModel, tol: float = FEAS_TOL,
                      compiled: CompiledModel | None = None):
    """Exact check of every original row plus binary integrality.

    Returns (feasible, violations) where violations lists
    (label, amount) for every integrality or row breach beyond tol, in
    variable and then row order. Each row's value is summed as
    Constraint.violation sums it: the constant, then the linear and the
    term entries in Expression order, the terms' values from term_values.
    compiled is compile_flat(flat), made here when not given.
    """
    cm = compile_flat(flat) if compiled is None else compiled
    x = np.asarray(point, dtype=float)
    at = x[cm.binaries]
    err = np.abs(at - np.rint(at))
    bad = err > tol
    violations = [(f"integrality[{flat.variables[v].name}]", float(e))
                  for v, e in zip(cm.binaries[bad], err[bad])]

    # the value of each entry's key: the variable, or the term
    value = np.zeros(cm.n_model + len(cm.keys))
    value[:cm.n_model] = x
    value[cm.n_model + cm.in_rows] = term_values(cm, x, cm.in_rows)
    n_con = cm.rhs.size
    body = np.bincount(np.concatenate([np.arange(n_con), cm.row]),
                       np.concatenate([cm.constant,
                                       cm.coef * value[cm.key]]),
                       minlength=n_con)
    excess = np.where(cm.ge, cm.rhs - body, body - cm.rhs)
    amount = np.where(cm.eq, np.abs(excess), np.maximum(excess, 0.0))
    violations += [(flat.constraints[r].label, float(amount[r]))
                   for r in (amount > tol).nonzero()[0]]
    return not violations, violations


def branch_select(node: BnbNode, sol: LpSolution, compiled: CompiledModel):
    """Pick the branching decision at an unpruned, infeasible LP point.

    Fractional binaries first (most fractional, median index among
    ties); otherwise the variable carrying the largest total envelope
    violation |aux - term value| over the aux columns of compiled.kept,
    split at the LP point clamped to the middle 40 % of its
    interval. Returns ("binary", id), ("spatial", id, point) or None.
    """
    cm = compiled
    x = sol.x
    frac = np.minimum(x[cm.binaries], 1.0 - x[cm.binaries])
    scored = (node.hi[cm.binaries] > node.lo[cm.binaries]) & (frac > INT_TOL)
    if scored.any():
        best = frac[scored].max()
        tied = cm.binaries[scored][frac[scored] >= best - 1e-9]
        return ("binary", int(tied[tied.size // 2]))

    # each kept term's violation goes to var, then to arg for a product,
    # summed in column order
    keys = cm.kept
    amount = np.abs(x[cm.n_model:] - term_values(cm, x, keys))
    take = np.array([np.ones(keys.size, dtype=bool), cm.product[keys]]).T
    weight = np.bincount(np.array([cm.var[keys], cm.arg[keys]]).T[take],
                         np.array([amount, amount]).T[take],
                         minlength=cm.n_model)
    for vid in np.argsort(-weight, kind="stable"):
        vid = int(vid)
        width = node.hi[vid] - node.lo[vid]
        if weight[vid] <= 0.0:
            break
        if width > MIN_WIDTH:
            split = min(max(x[vid], node.lo[vid] + 0.3 * width),
                        node.lo[vid] + 0.7 * width)
            return ("spatial", vid, float(split))
    return None


def _midsplit_decision(node: BnbNode, compiled: CompiledModel):
    """Fallback split for nodes whose LP failed: the widest variable of
    a kept term or binary, the lowest id among ties."""
    cm = compiled
    keys = cm.kept
    # sort, then drop repeats: np.unique would import numpy.ma (~2 MB)
    cand = np.sort(np.concatenate([cm.var[keys], cm.arg[keys], cm.binaries]))
    cand = cand[np.diff(cand, prepend=-1) != 0]
    width = node.hi[cand] - node.lo[cand]
    if not (width > MIN_WIDTH).any():
        return None
    k = int(np.argmax(width))
    best = int(cand[k])
    if best in cm.binaries:
        return ("binary", best)
    return ("spatial", best, node.lo[best] + 0.5 * width[k])


def _children(node: BnbNode, decision) -> list[BnbNode]:
    kids = []
    if decision[0] == "binary":
        vid = decision[1]
        for val in (0.0, 1.0):
            lo, hi = node.lo.copy(), node.hi.copy()
            lo[vid] = hi[vid] = val
            kids.append(BnbNode(lo, hi, node.bound, node.depth + 1))
    else:
        _, vid, split = decision
        lo1, hi1 = node.lo.copy(), node.hi.copy()
        hi1[vid] = split
        lo2, hi2 = node.lo.copy(), node.hi.copy()
        lo2[vid] = split
        kids.append(BnbNode(lo1, hi1, node.bound, node.depth + 1))
        kids.append(BnbNode(lo2, hi2, node.bound, node.depth + 1))
    return kids


def solve_global(flat: FlatModel, gap: float = DEFAULT_GAP,
                 time_limit: float = DEFAULT_TIME_LIMIT,
                 node_limit: int | None = None, workers: int = 1,
                 log_every: int = 100) -> SolveResult:
    """Solve a flattened model to the requested relative gap.

    Maximization is handled by negating the objective on the way in and
    the incumbent/bound on the way out. Every reported incumbent passes
    feasibility_check against the original rows at 1e-6. workers
    accepts only 1; the keyword stays because bench/run.py and
    bench/reference.py still pass workers=1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if not time_limit >= 0.0:
        raise ValueError(f"time_limit must be nonnegative, got {time_limit!r}")
    if not gap >= 0.0:
        raise ValueError(f"gap must be nonnegative, got {gap!r}")
    t0 = time.monotonic()
    maximize = flat.sense == "max"
    work = flat
    if maximize:
        work = replace(flat, sense="min", objective=_negated(flat.objective))

    compiled = compile_flat(work)

    z = math.inf
    best_x: np.ndarray | None = None
    unexplored: list[float] = []
    heap: list[tuple[float, int, int, BnbNode]] = []
    seq = 0
    nodes_done = 0
    next_log = log_every
    stop: str | None = None

    def push(kid: BnbNode) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (kid.bound, -kid.depth, seq, kid))

    def open_bound() -> float:
        vals = [z]
        if heap:
            vals.append(heap[0][0])
        if unexplored:
            vals.append(min(unexplored))
        return min(vals)

    push(BnbNode(compiled.lo, compiled.hi, -math.inf, 0))
    while heap:
        if time.monotonic() - t0 > time_limit:
            stop = "time_limit"
            break
        if node_limit is not None and nodes_done >= node_limit:
            stop = "node_limit"
            break
        if z < math.inf and relative_gap(z, open_bound()) <= gap:
            stop = "gap"
            break

        node = heapq.heappop(heap)[3]
        if node.bound >= z:
            continue
        box = tighten(compiled, node.lo, node.hi)
        if box is None:
            continue
        node.lo, node.hi = box
        sol = lp_solve(build_lp_relaxation(work, node.lo, node.hi, compiled),
                       deadline=t0 + time_limit)
        nodes_done += 1
        if sol.status == "optimal":
            node_bound = max(node.bound, sol.objective)
            point = sol.x[:compiled.n_model]
            if node_bound < z and feasibility_check(point, work, FEAS_TOL,
                                                         compiled)[0]:
                z_point = work.objective.evaluate(point)
                if z_point < z:
                    z = z_point
                    best_x = point.copy()
            if node_bound < z:
                decision = branch_select(node, sol, compiled)
                if decision is None:
                    unexplored.append(node_bound)
                else:
                    for kid in _children(node, decision):
                        kid.bound = node_bound
                        push(kid)
        elif sol.status == "time_limit":
            unexplored.append(node.bound)
            stop = "time_limit"
            break
        elif sol.status != "infeasible":
            decision = _midsplit_decision(node, compiled)
            if node.resplit or decision is None:
                unexplored.append(node.bound)
            else:
                for kid in _children(node, decision):
                    kid.resplit = True
                    push(kid)

        if nodes_done >= next_log:
            next_log += log_every
            logger.info(
                "nodes=%d open=%d bound=%.10g incumbent=%s gap=%.4g elapsed=%.2f",
                nodes_done, len(heap), open_bound(),
                "none" if best_x is None else f"{z:.10g}",
                relative_gap(z if best_x is not None else None, open_bound()),
                time.monotonic() - t0)

    # the heap is empty when the search ends on its own, so this is
    # min(unexplored + [z]) there
    bound = open_bound()
    have_inc = best_x is not None
    if stop is None:
        if have_inc:
            status = "optimal" if relative_gap(z, bound) <= gap else "feasible"
        else:
            status = "unknown" if unexplored else "infeasible"
    elif stop == "gap":
        status = "optimal"
    elif stop == "time_limit":
        status = "time_limit"
    else:  # node_limit
        status = "feasible" if have_inc else "unknown"

    objective = z if have_inc else None
    if maximize:
        objective = -objective if objective is not None else None
        bound = -bound
    return SolveResult(
        status=status,
        x=best_x,
        objective=objective,
        bound=bound,
        gap=relative_gap(objective, bound),
        nodes=nodes_done,
        parked=len(unexplored),
        wall_time=time.monotonic() - t0,
    )
