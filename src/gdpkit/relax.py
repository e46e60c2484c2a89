"""Linear relaxations of flattened models.

Each nonlinear term gets a fresh auxiliary variable tied down by valid
linear rows over the current box: the four McCormick rows for products
(secant plus endpoint tangents for squares), secant-below /
tangents-above rows for concave powers and logs, and the convex hull
of a concave table's graph for piecewise-linear terms. A product with
a fixed factor (lo == hi) is linear over the box: it becomes a
coefficient on the other factor, with no column and no rows. Shrinking
the box can only tighten the result; a degenerate box forces any other
auxiliary to the exact term value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SENSE_GE, SENSE_LE, DomainError, Expression, pwl_value,
                    term_interval, term_value)
from .lp import LinearProgram
from .transforms import FlatModel

N_TANGENTS = 3


@dataclass
class EnvelopeRow:
    """Linear inequality over the symbols 'w', 'x' and optionally 'y'."""

    coefs: dict[str, float]
    sense: str
    rhs: float

    def residual(self, w: float, x: float, y: float = 0.0) -> float:
        """Nonnegative violation at a point."""
        val = (self.coefs.get("w", 0.0) * w + self.coefs.get("x", 0.0) * x
               + self.coefs.get("y", 0.0) * y)
        if self.sense == SENSE_LE:
            return max(0.0, val - self.rhs)
        if self.sense == SENSE_GE:
            return max(0.0, self.rhs - val)
        return abs(val - self.rhs)


@dataclass
class EnvelopeRows:
    rows: list[EnvelopeRow]


def mccormick_bilinear(x_bounds, y_bounds, square: bool = False) -> EnvelopeRows:
    """Convex hull rows for w = x*y over a box.

    With square=True the factors are the same variable and the rows
    collapse to the chord above and the endpoint tangents below.
    """
    xl, xu = float(x_bounds[0]), float(x_bounds[1])
    yl, yu = float(y_bounds[0]), float(y_bounds[1])
    for v in (xl, xu, yl, yu):
        if not math.isfinite(v):
            raise ValueError("McCormick rows need finite bounds")

    if square:
        rows = [
            EnvelopeRow({"w": 1.0, "x": -2.0 * xl}, SENSE_GE, -xl * xl),
            EnvelopeRow({"w": 1.0, "x": -2.0 * xu}, SENSE_GE, -xu * xu),
            EnvelopeRow({"w": 1.0, "x": -(xl + xu)}, SENSE_LE, -xl * xu),
        ]
        return EnvelopeRows(rows)

    rows = [
        EnvelopeRow({"w": 1.0, "x": -yl, "y": -xl}, SENSE_GE, -xl * yl),
        EnvelopeRow({"w": 1.0, "x": -yu, "y": -xu}, SENSE_GE, -xu * yu),
        EnvelopeRow({"w": 1.0, "x": -yl, "y": -xu}, SENSE_LE, -xu * yl),
        EnvelopeRow({"w": 1.0, "x": -yu, "y": -xl}, SENSE_LE, -xl * yu),
    ]
    return EnvelopeRows(rows)


def _concave_parts(kind: str, exponent: float | None):
    if kind == "pow":
        p = float(exponent)
        return (lambda x: x**p), (lambda x: p * x ** (p - 1.0))
    if kind == "log":
        return math.log, (lambda x: 1.0 / x)
    raise ValueError(f"no concave envelope for term kind {kind!r}")


def concave_envelope(kind: str, bounds, exponent: float | None = None
                     ) -> EnvelopeRows:
    """Secant below, tangents above, for concave f on [L, U].

    f lies above its chord and below every tangent, so
    secant(x) <= w <= tangent_i(x) is a valid enclosure of w = f(x).
    N_TANGENTS tangent points are uniform over the domain, ends
    included; a point where f' blows up (x = 0 for powers) is nudged
    inward.
    """
    lo, up = float(bounds[0]), float(bounds[1])
    if not up - lo > 1e-12:
        raise ValueError(f"degenerate envelope domain [{lo}, {up}]")
    if kind == "log" and lo <= 0.0:
        raise DomainError("log envelope needs a strictly positive lower bound")
    if kind == "pow" and lo < 0.0:
        raise DomainError("power envelope needs a nonnegative lower bound")

    f, fprime = _concave_parts(kind, exponent)
    slope = (f(up) - f(lo)) / (up - lo)
    rows = [EnvelopeRow({"w": 1.0, "x": -slope}, SENSE_GE, f(lo) - slope * lo)]

    for t in np.linspace(lo, up, N_TANGENTS):
        if kind == "pow" and t <= 0.0:
            t = lo + (up - lo) * 1e-6
        g = fprime(t)
        rows.append(EnvelopeRow({"w": 1.0, "x": -g}, SENSE_LE, f(t) - g * t))
    return EnvelopeRows(rows)


def pwl_envelope(table, bounds) -> EnvelopeRows:
    """Convex hull of a concave table's graph over [L, U]: the chord
    below, and above it the line of each segment that meets (L, U).

    Once [L, U] lies inside one segment the chord is that segment's
    line, so the rows pin w to the table.
    """
    lo, up = float(bounds[0]), float(bounds[1])
    if not up - lo > 1e-12:
        raise ValueError(f"degenerate envelope domain [{lo}, {up}]")
    f_lo, f_up = pwl_value(table, lo), pwl_value(table, up)
    slope = (f_up - f_lo) / (up - lo)
    rows = [EnvelopeRow({"w": 1.0, "x": -slope}, SENSE_GE, f_lo - slope * lo)]
    xs, ys = table
    for k in range(len(xs) - 1):
        if xs[k] < up and xs[k + 1] > lo:
            g = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            rows.append(EnvelopeRow({"w": 1.0, "x": -g}, SENSE_LE,
                                    ys[k] - g * xs[k]))
    return EnvelopeRows(rows)


# -- whole-model relaxation --------------------------------------------


@dataclass
class AuxTerm:
    """One relaxed nonlinear term (kind, var, arg), as in
    Expression.terms, and the LP column standing in for it."""

    col: int
    kind: str
    var: int
    arg: int | float | None

    def true_value(self, x) -> float:
        return term_value(self.kind, x, self.var, self.arg)

    def participants(self) -> tuple[int, ...]:
        if self.kind == "bil" and self.var != self.arg:
            return (self.var, self.arg)
        return (self.var,)


def build_lp_relaxation(flat: FlatModel, lo, hi) -> LinearProgram:
    """Assemble the LP relaxation of a flattened model over a box.

    Distinct nonlinear terms share one auxiliary column each, in order
    of first appearance; the map from columns back to terms rides along
    as lp.aux_terms so callers can measure envelope violations at the LP
    point. A product of two variables one of which the box fixes is
    exact as a linear coefficient on the other (on var when both are
    fixed), so it gets no column, no rows and no AuxTerm.
    """
    n0 = len(flat.variables)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (n0,) or hi.shape != (n0,):
        raise ValueError(f"box has {lo.size} lower and {hi.size} upper "
                         f"bounds for {n0} model variables")

    def folds(kind, v, arg) -> bool:
        return (kind == "bil" and v != arg
                and (lo[v] == hi[v] or lo[arg] == hi[arg]))

    order: dict[tuple, int] = {}
    for expr in [flat.objective] + [c.body for c in flat.constraints]:
        for kind, _, v, arg in expr.terms:
            if not folds(kind, v, arg):
                order.setdefault((kind, v, arg), n0 + len(order))
    n_aux = len(order)
    n = n0 + n_aux

    aux_terms = []
    aux_lo = np.empty(n_aux)
    aux_hi = np.empty(n_aux)
    env_rows: list[tuple[EnvelopeRow, dict[str, int]]] = []

    for (kind, v, arg), col in order.items():
        aux_terms.append(AuxTerm(col, kind, v, arg))
        aux_lo[col - n0], aux_hi[col - n0] = term_interval(kind, lo, hi, v, arg)
        if kind == "bil":
            env = mccormick_bilinear((lo[v], hi[v]), (lo[arg], hi[arg]),
                                     square=(v == arg))
            symbol_cols = {"w": col, "x": v, "y": arg}
        elif hi[v] - lo[v] > 1e-12:
            env = (pwl_envelope(arg, (lo[v], hi[v])) if kind == "pwl" else
                   concave_envelope(kind, (lo[v], hi[v]), exponent=arg))
            symbol_cols = {"w": col, "x": v}
        else:
            continue  # a degenerate box: the aux bounds pin the value
        env_rows.extend((row, symbol_cols) for row in env.rows)

    # one row block, filled with += onto zeros: a column that appears
    # twice in a row sums its coefficients
    n_con = len(flat.constraints)
    A = np.zeros((n_con + len(env_rows), n))

    def linearize(expr: Expression, coefs: np.ndarray) -> np.ndarray:
        for cf, v in expr.linear:
            coefs[v] += cf
        for kind, cf, v, arg in expr.terms:
            col = order.get((kind, v, arg))
            if col is not None:
                coefs[col] += cf
            elif lo[arg] == hi[arg]:
                coefs[v] += cf * lo[arg]
            else:
                coefs[arg] += cf * lo[v]
        return coefs

    senses = []
    rhs = []
    for coefs, c in zip(A, flat.constraints):
        linearize(c.body, coefs)
        senses.append(c.sense)
        rhs.append(c.rhs - c.body.constant)
    for coefs, (row, symbol_cols) in zip(A[n_con:], env_rows):
        for sym, cf in row.coefs.items():
            coefs[symbol_cols[sym]] += cf
        senses.append(row.sense)
        rhs.append(row.rhs)

    lp = LinearProgram(
        c=linearize(flat.objective, np.zeros(n)),
        A=A,
        senses=senses,
        b=np.array(rhs, dtype=float),
        lo=np.concatenate([lo, aux_lo]),
        hi=np.concatenate([hi, aux_hi]),
        obj_const=flat.objective.constant,
    )
    lp.aux_terms = aux_terms
    return lp


def envelope_violations(lp: LinearProgram, x: np.ndarray) -> list[float]:
    """Per-term |aux - true value| at an LP point."""
    return [abs(x[t.col] - t.true_value(x)) for t in lp.aux_terms]
