"""Linear relaxations of flattened models.

Each nonlinear term gets a fresh auxiliary variable tied down by valid
linear rows over the current box: the four McCormick rows for products
(secant plus endpoint tangents for squares), secant-below /
tangents-above rows for concave powers and logs, and the convex hull
of a concave table's graph for piecewise-linear terms. A product with
a fixed factor (lo == hi) is linear over the box: it becomes a
coefficient on the other factor, with no column and no rows. Shrinking
the box can only tighten the result; a degenerate box forces any other
auxiliary to the exact term value. The envelope formulas are defined
once, in the *_lines functions, and build_lp_relaxation is the one way
to their rows: as rows of the LP over a box, which is what the simplex
solves and what the tests certify.

A flat model is compiled once per solve (compile_flat): its distinct
terms in order of first appearance, each row's linear and term entries
as index and coefficient arrays in Expression order, the senses, the
right-hand sides, the binaries and each pwl table's segment lines. A
node changes only the box, and the box decides which products fold,
the column numbering, the aux bounds and the envelope rows; the node's
LP is emitted from the arrays with numpy alone. relaxed_terms, the keys
a box keeps in column order, is the one map from aux columns to terms;
term_values gives their exact values for the check and the brancher.
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


# Every envelope row reads w + ax*x (+ ay*y) >= or <= rhs, for the aux
# column w of one term over the node's box, its >= rows first. The
# *_lines functions give ax, ay and rhs, the concave and pwl ones the
# senses too; build_lp_relaxation is their one caller. The McCormick and
# square ones take arrays, one entry per term; the concave and pwl ones
# take one term's box, wider than 1e-12 and inside the term's domain
# (term_interval has checked it).

_MCCORMICK_SENSES = (SENSE_GE, SENSE_GE, SENSE_LE, SENSE_LE)
_SQUARE_SENSES = (SENSE_GE, SENSE_GE, SENSE_LE)


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
    return ax, rhs, (SENSE_GE,) + (SENSE_LE,) * N_TANGENTS


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
    return ax, rhs, (SENSE_GE,) + (SENSE_LE,) * (ax.size - 1)


# -- whole-model relaxation --------------------------------------------


@dataclass
class CompiledModel:
    """A flat model as arrays, for one solve (see compile_flat).

    keys are the distinct nonlinear terms (kind, var, arg) in order of
    first appearance, the objective's first; var and arg index their
    variables (arg is var for a term of one variable). product marks a
    bil key of two variables, square one of a variable with itself,
    curved lists the pow, log and pwl keys, and segments holds each pwl
    key's segment lines. in_rows marks the keys some row holds.

    Each entry of a row is (row, key, coef) in Expression order. A key
    below n_model is that variable's linear entry; key n_model + t is
    term keys[t]. The objective's entries are obj_key and obj_coef.
    b is each row's rhs less its constant, the LP's right-hand side.
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
    obj_key: np.ndarray
    obj_coef: np.ndarray
    senses: list[str]
    eq: np.ndarray
    ge: np.ndarray
    rhs: np.ndarray
    constant: np.ndarray
    b: np.ndarray
    binaries: np.ndarray


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
    curved = [t for t, (k, _, _) in enumerate(keys) if k != "bil"]
    in_rows = np.zeros(len(keys), dtype=bool)
    in_rows[key[key >= n0] - n0] = True
    senses = np.array([c.sense for c in flat.constraints], dtype=str)
    rhs = np.array([c.rhs for c in flat.constraints], dtype=float)
    constant = np.array([c.body.constant for c in flat.constraints],
                        dtype=float)
    return CompiledModel(
        n_model=n0, keys=keys, var=var, arg=arg,
        product=bil & (var != arg), square=bil & (var == arg), curved=curved,
        segments={t: _segment_lines(keys[t][2]) for t in curved
                  if keys[t][0] == "pwl"},
        in_rows=in_rows, row=row, key=key, coef=coef, obj_key=obj_key,
        obj_coef=obj_coef, senses=senses.tolist(), eq=senses == SENSE_EQ,
        ge=senses == SENSE_GE,
        rhs=rhs, constant=constant, b=rhs - constant,
        binaries=np.array([v.id for v in flat.variables if v.kind == BINARY],
                          dtype=np.intp))


def relaxed_terms(cm: CompiledModel, lo, hi) -> np.ndarray:
    """The keys that keep an aux column over the box of arrays [lo, hi],
    in column order: every term but a product of two variables one of
    which the box fixes, which is exact as a coefficient on the other."""
    fixed = lo == hi
    return (~(cm.product & (fixed[cm.var] | fixed[cm.arg]))).nonzero()[0]


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


def build_lp_relaxation(flat: FlatModel, lo, hi,
                        compiled: CompiledModel | None = None
                        ) -> LinearProgram:
    """Assemble the LP relaxation of a flattened model over a box.

    Distinct nonlinear terms share one auxiliary column each, in order
    of first appearance: column n_model + k stands in for the key
    relaxed_terms(compiled, lo, hi)[k]. A product of two variables one
    of which the box fixes is exact as a linear coefficient on the other
    (on var when both are fixed), so it gets no column and no rows.
    compiled is compile_flat(flat), made here when not given.

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

    # a folded product lands on var, times arg's value, when arg is
    # fixed, else on arg; a kept term has the next aux column and
    # factor 1.0
    kept = relaxed_terms(cm, lo, hi)
    n = n0 + kept.size
    arg_fixed = lo[cm.arg] == hi[cm.arg]
    term_col = np.where(arg_fixed, cm.var, cm.arg)
    term_col[kept] = np.arange(n0, n)
    key_col = np.concatenate([np.arange(n0), term_col])
    term_factor = np.where(arg_fixed, lo[cm.arg], lo[cm.var])
    term_factor[kept] = 1.0
    factor = np.concatenate([np.ones(n0), term_factor])

    # aux bounds and each kept term's envelope rows, in column order
    aux_lo = np.empty(kept.size)
    aux_hi = np.empty(kept.size)
    n_lines = np.zeros(kept.size, dtype=np.intp)
    groups = []  # (aux positions, ax, ay or None, rhs, senses): lines x terms
    for mask, count in ((cm.product, 4), (cm.square, 3)):
        keys = kept[mask[kept]]
        if not keys.size:
            continue
        pos = term_col[keys] - n0
        xl, xu = lo[cm.var[keys]], hi[cm.var[keys]]
        yl, yu = lo[cm.arg[keys]], hi[cm.arg[keys]]
        if not np.isfinite(np.concatenate([xl, xu, yl, yu])).all():
            raise ValueError("McCormick rows need finite bounds")
        corners = (xl * yl, xl * yu, xu * yl, xu * yu)
        aux_lo[pos] = _first(corners, np.less)
        aux_hi[pos] = _first(corners, np.greater)
        n_lines[pos] = count
        if count == 4:
            ax, ay, rhs = _mccormick_lines(xl, xu, yl, yu)
            groups.append((pos, ax, ay, rhs, _MCCORMICK_SENSES))
        else:
            ax, rhs = _square_lines(xl, xu)
            groups.append((pos, ax, None, rhs, _SQUARE_SENSES))
    for t in cm.curved:
        kind, v, arg = cm.keys[t]
        pos = term_col[t] - n0
        aux_lo[pos], aux_hi[pos] = term_interval(kind, lo, hi, v, arg)
        if hi[v] - lo[v] > 1e-12:  # else the aux bounds pin the value
            ax, rhs, senses = (
                _pwl_lines(arg, cm.segments[t], float(lo[v]), float(hi[v]))
                if kind == "pwl" else
                _concave_lines(kind, float(lo[v]), float(hi[v]), arg))
            n_lines[pos] = len(senses)
            groups.append((np.array([pos]), np.asarray(ax)[:, None], None,
                           np.asarray(rhs)[:, None], senses))

    n_con = len(cm.senses)
    first_line = n_con + np.cumsum(n_lines) - n_lines
    m = n_con + int(n_lines.sum())
    b = np.empty(m)
    b[:n_con] = cm.b
    ge = np.zeros(m, dtype=bool)

    # every cell of A as a flat index and its value, the model rows'
    # entries first; bincount adds them in that order onto +0.0
    cells = [cm.row * n + key_col[cm.key]]
    values = [cm.coef * factor[cm.key]]
    for pos, ax, ay, rhs, senses in groups:
        line = first_line[pos] + np.arange(len(senses))[:, None]
        b[line] = rhs
        ge[line[:senses.count(SENSE_GE)]] = True  # every family lists >= first
        cells += [line * n + (n0 + pos), line * n + cm.var[kept[pos]]]
        values += [np.ones(line.shape), ax]
        if ay is not None:
            cells.append(line * n + cm.arg[kept[pos]])
            values.append(ay)
    A = np.bincount(np.concatenate([c.ravel() for c in cells]),
                    np.concatenate([v.ravel() for v in values]),
                    minlength=m * n).reshape(m, n)

    c = np.bincount(key_col[cm.obj_key], cm.obj_coef * factor[cm.obj_key],
                    minlength=n)
    return LinearProgram(
        c=c, A=A,
        senses=cm.senses + np.where(ge[n_con:], SENSE_GE, SENSE_LE).tolist(),
        b=b,
        lo=np.concatenate([lo, aux_lo]),
        hi=np.concatenate([hi, aux_hi]),
        obj_const=flat.objective.constant,
    )
