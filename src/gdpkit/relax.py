"""Linear relaxations of flattened models.

Each nonlinear term gets a fresh auxiliary variable tied down by valid
linear rows over the current box: the four McCormick rows for products
(secant plus endpoint tangents for squares), secant-below /
tangents-above rows for concave powers and logs, and the convex hull
of a concave table's graph for piecewise-linear terms. Shrinking the
box can only tighten the result; a degenerate box forces the auxiliary
to the exact term value. The envelope formulas are defined once, in
the *_lines functions, and build_lp_relaxation is the one way to their
rows: as rows of the LP over a box, which is what the simplex solves
and what the tests certify.

A flat model is compiled once per solve (compile_flat): its distinct
terms in order of first appearance, each row's linear and term entries
as index and coefficient arrays in Expression order, the sense masks,
the right-hand sides, the binaries and each pwl table's segment lines.
The model's bounds fix the LP's columns there: a product with a factor
the model fixes (lower == upper) is a coefficient on the other factor,
with no column and no rows, and kept maps the aux columns to their
terms. A node's box decides only the aux bounds and the envelope rows,
and its LP is emitted from the arrays with numpy alone. term_values
gives the terms' exact values for the check and the brancher. tighten
propagates a box through the same arrays before its LP is built, with
the terms' ranges from term_bounds, which also gives the aux columns'
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (BINARY, SENSE_EQ, SENSE_GE, SENSE_LE, pwl_value,
                    term_interval, term_value)
from .lp import LinearProgram
from .transforms import FlatModel

N_TANGENTS = 3
PROPAGATION_ROUNDS = 5
MIN_MOVE = 1e-3  # the least share of its width a tightened bound removes


# Every envelope row reads w + ax*x (+ ay*y) >= or <= rhs, for the aux
# column w of one term over the node's box. Each family leads with its
# >= rows: 2 for a product or a square, 1 for a pow, log or pwl term.
# The *_lines functions give ax, ay and rhs; build_lp_relaxation is
# their one caller. The McCormick and square ones take arrays, one entry
# per term; the concave and pwl ones take one term's box, wider than
# 1e-12 and inside the term's domain (term_interval has checked it).


def _mccormick_lines(xl, xu, yl, yu):
    """The four McCormick rows for w = x*y: the convex hull over the box."""
    return (np.array([-yl, -yu, -yl, -yu]), np.array([-xl, -xu, -xu, -xl]),
            np.array([-xl * yl, -xu * yu, -xu * yl, -xl * yu]))


def _square_lines(xl, xu):
    """w = x*x: the endpoint tangents below, the chord above."""
    return (np.array([-2.0 * xl, -2.0 * xu, -(xl + xu)]),
            np.array([-xl * xl, -xu * xu, -xl * xu]))


def _concave_lines(kind: str, lo: float, up: float, exponent):
    """Secant below, tangents above, for concave f on [lo, up].

    f lies above its chord and below every tangent, so
    secant(x) <= w <= tangent_i(x) is a valid enclosure of w = f(x).
    N_TANGENTS tangent points are uniform over the domain, ends
    included; a point where f' blows up (x = 0 for powers) is nudged
    inward.
    """
    if kind == "pow":
        p = float(exponent)
        f, fprime = (lambda x: x**p), (lambda x: p * x ** (p - 1.0))
    else:
        f, fprime = math.log, (lambda x: 1.0 / x)
    slope = (f(up) - f(lo)) / (up - lo)
    ax, rhs = [-slope], [f(lo) - slope * lo]
    for t in np.linspace(lo, up, N_TANGENTS):
        if kind == "pow" and t <= 0.0:
            t = lo + (up - lo) * 1e-6
        g = fprime(t)
        ax.append(-g)
        rhs.append(f(t) - g * t)
    return ax, rhs


def _segment_lines(table):
    """Each segment's breakpoints, slope and intercept."""
    xs, ys = (np.array(t, dtype=float) for t in table)
    slope = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    return xs, slope, ys[:-1] - slope * xs[:-1]


def _pwl_lines(table, segments, lo: float, up: float):
    """Convex hull of a concave table's graph over [lo, up]: the chord
    below, and above it the line of each segment that meets (lo, up).

    Once [lo, up] lies inside one segment the chord is that segment's
    line, so the rows pin w to the table.
    """
    f_lo, f_up = pwl_value(table, lo), pwl_value(table, up)
    slope = (f_up - f_lo) / (up - lo)
    xs, g, c = segments
    meets = (xs[:-1] < up) & (xs[1:] > lo)
    ax = np.concatenate([[-slope], -g[meets]])
    rhs = np.concatenate([[f_lo - slope * lo], c[meets]])
    return ax, rhs


# -- whole-model relaxation --------------------------------------------


@dataclass
class CompiledModel:
    """A flat model as arrays, for one solve (see compile_flat).

    keys are the distinct nonlinear terms (kind, var, arg) in order of
    first appearance, the objective's first; var and arg index their
    variables (arg is var for a term of one variable). product marks a
    bil key of two variables, square one of a variable with itself,
    curved lists the pow, log and pwl keys, and segments holds each pwl
    key's segment lines. in_rows lists the keys some row holds.

    Each entry of a row is (row, key, coef) in Expression order. A key
    below n_model is that variable's linear entry; key n_model + t is
    term keys[t]. b is each row's rhs less its constant, the LP's
    right-hand side. lo and hi are the model's bounds, the root box.
    The LP's columns are the model's variables, then an aux column for
    each key of kept. pinned lists the fixed factors the folds read;
    cells, values and c are the model rows' entries of A and the LP's
    objective.
    """

    n_model: int
    keys: list[tuple]
    var: np.ndarray
    arg: np.ndarray
    product: np.ndarray
    square: np.ndarray
    curved: list[int]
    segments: dict[int, tuple]
    in_rows: np.ndarray
    row: np.ndarray
    key: np.ndarray
    coef: np.ndarray
    eq: np.ndarray
    ge: np.ndarray
    rhs: np.ndarray
    constant: np.ndarray
    b: np.ndarray
    binaries: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    kept: np.ndarray
    pinned: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    c: np.ndarray


def compile_flat(flat: FlatModel) -> CompiledModel:
    """Walk a flat model's expressions once into the arrays that
    build_lp_relaxation and bnb's check and brancher read at every node."""
    n0 = len(flat.variables)
    index: dict[tuple, int] = {}

    def entries(exprs):
        # all linear entries, then all term entries: each row's entries
        # keep their Expression order
        found = [(r, v, cf) for r, e in enumerate(exprs) for cf, v in e.linear]
        found += [(r, n0 + index.setdefault((kind, v, arg), len(index)), cf)
                  for r, e in enumerate(exprs) for kind, cf, v, arg in e.terms]
        table = np.array(found, dtype=float).reshape(-1, 3)
        return (table[:, 0].astype(np.intp), table[:, 1].astype(np.intp),
                table[:, 2].copy())

    _, obj_key, obj_coef = entries([flat.objective])
    row, key, coef = entries([c.body for c in flat.constraints])
    keys = list(index)
    var = np.array([v for _, v, _ in keys], dtype=np.intp)
    arg = np.array([a if k == "bil" else v for k, v, a in keys], dtype=np.intp)
    bil = np.array([k == "bil" for k, _, _ in keys], dtype=bool)
    product = bil & (var != arg)
    curved = [t for t, (k, _, _) in enumerate(keys) if k != "bil"]
    in_rows = np.bincount(key[key >= n0] - n0,
                          minlength=len(keys)).nonzero()[0]
    senses = np.array([c.sense for c in flat.constraints], dtype=str)
    rhs = np.array([c.rhs for c in flat.constraints], dtype=float)
    constant = np.array([c.body.constant for c in flat.constraints],
                        dtype=float)

    # a folded product is a coefficient on var (arg's value) if arg is
    # fixed, else on arg (var's value); kept keys take the aux columns
    lo, hi = (np.array(b, dtype=float) for b in flat.bounds_arrays())
    arg_fixed = lo[arg] == hi[arg]
    folded = product & (arg_fixed | (lo[var] == hi[var]))
    kept = (~folded).nonzero()[0]
    n = n0 + kept.size
    key_col = np.concatenate([np.arange(n0), np.where(arg_fixed, var, arg)])
    key_col[n0 + kept] = np.arange(n0, n)
    key_factor = np.ones(n0 + len(keys))
    key_factor[n0:][folded] = np.where(arg_fixed, lo[arg], lo[var])[folded]
    return CompiledModel(
        n_model=n0, keys=keys, var=var, arg=arg, product=product,
        square=bil & (var == arg), curved=curved,
        segments={t: _segment_lines(keys[t][2]) for t in curved
                  if keys[t][0] == "pwl"},
        in_rows=in_rows, row=row, key=key, coef=coef,
        eq=senses == SENSE_EQ, ge=senses == SENSE_GE,
        rhs=rhs, constant=constant, b=rhs - constant,
        binaries=np.array([v.id for v in flat.variables if v.kind == BINARY],
                          dtype=np.intp),
        lo=lo, hi=hi, kept=kept,
        pinned=np.where(arg_fixed, arg, var)[folded],
        cells=row * n + key_col[key], values=coef * key_factor[key],
        c=np.bincount(key_col[obj_key], obj_coef * key_factor[obj_key],
                      minlength=n))


def term_values(cm: CompiledModel, x: np.ndarray, keys) -> np.ndarray:
    """The exact value at x of each term keys indexes: a product or a
    square as one multiply, a pow, log or pwl term through term_value."""
    bil = (cm.product | cm.square)[keys]
    out = np.empty(len(keys))
    out[bil] = x[cm.var[keys[bil]]] * x[cm.arg[keys[bil]]]
    for i in (~bil).nonzero()[0]:
        kind, v, arg = cm.keys[keys[i]]
        out[i] = term_value(kind, x, v, arg)
    return out


def _first(values, better):
    """min or max of values as Python picks it: the first best one."""
    out = values[0]
    for v in values[1:]:
        out = np.where(better(v, out), v, out)
    return out


def term_bounds(cm: CompiledModel, lo, hi, keys) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """The range over the box of arrays [lo, hi] of each term keys
    indexes: a product's or a square's least and greatest corner, a pow,
    log or pwl term's term_interval. These are the aux columns' bounds
    and the terms' share of a row's activity in tighten."""
    bil = (cm.product | cm.square)[keys]
    v, a = cm.var[keys[bil]], cm.arg[keys[bil]]
    xl, xu, yl, yu = lo[v], hi[v], lo[a], hi[a]
    # the check comes before inf * 0 could make a corner nan
    if not np.isfinite(np.concatenate([xl, xu, yl, yu])).all():
        raise ValueError("McCormick rows need finite bounds")
    corners = (xl * yl, xl * yu, xu * yl, xu * yu)
    out_lo = np.empty(len(keys))
    out_hi = np.empty(len(keys))
    out_lo[bil] = _first(corners, np.less)
    out_hi[bil] = _first(corners, np.greater)
    for i in (~bil).nonzero()[0]:
        kind, var, arg = cm.keys[keys[i]]
        out_lo[i], out_hi[i] = term_interval(kind, lo, hi, var, arg)
    return out_lo, out_hi


def tighten(cm: CompiledModel, lo, hi):
    """Feasibility-based bound tightening of the finite box [lo, hi].

    Each round bounds every term by term_bounds and every row's activity
    by its entries' ranges; each linear entry a*x then gets the bound
    the rest of its row leaves it: from above through a <= or = row,
    from below through a >= or = row. A derived bound is widened by
    1e-9 (1 + |bound|), a binary's is rounded inward, and a move is kept
    only if it removes at least MIN_MOVE of the variable's width. Rounds
    stop after PROPAGATION_ROUNDS or once nothing moves. No point that
    meets every row exactly leaves the box.

    Returns the tightened (lo, hi) as new arrays, or None when the rows
    leave the box empty.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("bound propagation needs finite bounds")
    n0, m = cm.n_model, cm.b.size
    lin = cm.key < n0  # Expression.add_linear keeps no zero coefficient
    # a <= or = row bounds a*x from above, a >= or = row from below; a
    # bound from above is an upper bound on x where a > 0, one from
    # below where a < 0
    above = (lin & ~cm.ge[cm.row]).nonzero()[0]
    below = (lin & (cm.ge | cm.eq)[cm.row]).nonzero()[0]
    sides = ((above, cm.coef[above] > 0.0), (below, cm.coef[below] < 0.0))
    row2 = np.concatenate([cm.row, cm.row + m])
    key_lo = np.empty(n0 + len(cm.keys))
    key_hi = np.empty(n0 + len(cm.keys))
    for _ in range(PROPAGATION_ROUNDS):
        key_lo[:n0], key_hi[:n0] = lo, hi
        key_lo[n0 + cm.in_rows], key_hi[n0 + cm.in_rows] = term_bounds(
            cm, lo, hi, cm.in_rows)
        ends = (cm.coef * key_lo[cm.key], cm.coef * key_hi[cm.key])
        least, most = np.minimum(*ends), np.maximum(*ends)
        activity = np.bincount(row2, np.concatenate([least, most]),
                               minlength=2 * m)
        # b less the least (the most) the rest of the row can be
        new_lo, new_hi = np.full(n0, -np.inf), np.full(n0, np.inf)
        for (e, up), rest, own in zip(sides, (activity[:m], activity[m:]),
                                      (least, most)):
            bound = ((cm.b - rest)[cm.row[e]] + own[e]) / cm.coef[e]
            np.minimum.at(new_hi, cm.key[e[up]], bound[up])
            np.maximum.at(new_lo, cm.key[e[~up]], bound[~up])
        new_hi += 1e-9 * (1.0 + np.abs(new_hi))
        new_lo -= 1e-9 * (1.0 + np.abs(new_lo))
        new_hi[cm.binaries] = np.floor(new_hi[cm.binaries])
        new_lo[cm.binaries] = np.ceil(new_lo[cm.binaries])
        step = MIN_MOVE * (hi - lo)
        lower, upper = new_lo > lo + step, new_hi < hi - step
        if not (lower.any() or upper.any()):
            break
        lo[lower], hi[upper] = new_lo[lower], new_hi[upper]
        if (lo > hi).any():
            return None
    return lo, hi


def build_lp_relaxation(flat: FlatModel, lo, hi,
                        compiled: CompiledModel | None = None
                        ) -> LinearProgram:
    """Assemble the LP relaxation of a flattened model over a box.

    The columns are those compile_flat fixed from the model's bounds,
    and the box decides only the bounds and the envelope rows: a factor
    only the box fixes keeps its product's column and McCormick rows,
    exact there, and a box that moves a factor the model fixes raises
    ValueError. compiled is compile_flat(flat), made here when not given.

    Coefficients that meet in one cell are summed in Expression order
    onto +0.0, as a row-by-row build adding each entry in turn would.
    """
    cm = compile_flat(flat) if compiled is None else compiled
    n0 = cm.n_model
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (n0,) or hi.shape != (n0,):
        raise ValueError(f"box has {lo.size} lower and {hi.size} upper "
                         f"bounds for {n0} model variables")
    if ((lo != cm.lo) | (hi != cm.hi))[cm.pinned].any():
        raise ValueError("box moves a factor the model fixes")
    n = cm.c.size

    # aux bounds and each kept term's envelope rows, in column order
    aux_lo, aux_hi = term_bounds(cm, lo, hi, cm.kept)
    n_lines = np.zeros(cm.kept.size, dtype=np.intp)
    groups = []  # (aux positions, ax, ay or None, rhs, >= rows): lines x terms
    for mask, count in ((cm.product, 4), (cm.square, 3)):
        pos = mask[cm.kept].nonzero()[0]
        keys = cm.kept[pos]
        xl, xu = lo[cm.var[keys]], hi[cm.var[keys]]
        n_lines[pos] = count
        if count == 4:
            ax, ay, rhs = _mccormick_lines(xl, xu, lo[cm.arg[keys]],
                                           hi[cm.arg[keys]])
        else:
            (ax, rhs), ay = _square_lines(xl, xu), None
        groups.append((pos, ax, ay, rhs, 2))
    for t in cm.curved:
        kind, v, arg = cm.keys[t]
        pos = cm.kept.searchsorted(t)
        if hi[v] - lo[v] > 1e-12:  # else the aux bounds pin the value
            ax, rhs = (
                _pwl_lines(arg, cm.segments[t], float(lo[v]), float(hi[v]))
                if kind == "pwl" else
                _concave_lines(kind, float(lo[v]), float(hi[v]), arg))
            n_lines[pos] = len(ax)
            groups.append((np.array([pos]), np.asarray(ax)[:, None], None,
                           np.asarray(rhs)[:, None], 1))

    n_con = cm.b.size
    first_line = n_con + np.cumsum(n_lines) - n_lines
    m = n_con + int(n_lines.sum())
    b = np.concatenate([cm.b, np.empty(m - n_con)])
    ge = np.concatenate([cm.ge, np.zeros(m - n_con, dtype=bool)])

    # every cell of A as a flat index and its value, the model rows'
    # entries first; bincount adds them in that order onto +0.0
    cells = [cm.cells]
    values = [cm.values]
    for pos, ax, ay, rhs, n_ge in groups:
        line = first_line[pos] + np.arange(len(ax))[:, None]
        b[line] = rhs
        ge[line[:n_ge]] = True
        cells += [line * n + (n0 + pos), line * n + cm.var[cm.kept[pos]]]
        values += [np.ones(line.shape), ax]
        if ay is not None:
            cells.append(line * n + cm.arg[cm.kept[pos]])
            values.append(ay)
    A = np.bincount(np.concatenate([c.ravel() for c in cells]),
                    np.concatenate([v.ravel() for v in values]),
                    minlength=m * n).reshape(m, n)
    senses = np.where(ge, SENSE_GE, SENSE_LE)
    senses[:n_con][cm.eq] = SENSE_EQ

    return LinearProgram(
        c=cm.c, A=A, senses=senses, b=b,
        lo=np.concatenate([lo, aux_lo]),
        hi=np.concatenate([hi, aux_hi]),
        obj_const=flat.objective.constant,
    )
