"""Linear relaxations of flattened models.

Each nonlinear term gets a fresh auxiliary variable tied down by valid
linear rows over the current box: the four McCormick rows for products
(secant plus endpoint tangents for squares), and secant-below /
tangents-above rows for concave powers and logs. Shrinking the box can
only tighten the result; a degenerate box forces the auxiliary to the
exact term value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SENSE_GE, SENSE_LE, DomainError, Expression, term_interval
from .lp import LinearProgram
from .transforms import FlatModel


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


def concave_envelope(kind: str, bounds, exponent: float | None = None,
                     n_tangents: int = 3) -> EnvelopeRows:
    """Secant below, tangents above, for concave f on [L, U].

    f lies above its chord and below every tangent, so
    secant(x) <= w <= tangent_i(x) is a valid enclosure of w = f(x).
    Tangent points are uniform over the domain; a point where f' blows
    up (x = 0 for powers) is nudged inward.
    """
    lo, up = float(bounds[0]), float(bounds[1])
    if not up - lo > 1e-12:
        raise ValueError(f"degenerate envelope domain [{lo}, {up}]")
    if kind == "log" and lo <= 0.0:
        raise DomainError("log envelope needs a strictly positive lower bound")
    if kind == "pow" and lo < 0.0:
        raise DomainError("power envelope needs a nonnegative lower bound")
    if n_tangents < 1:
        raise ValueError("need at least one tangent")

    f, fprime = _concave_parts(kind, exponent)
    slope = (f(up) - f(lo)) / (up - lo)
    rows = [EnvelopeRow({"w": 1.0, "x": -slope}, SENSE_GE, f(lo) - slope * lo)]

    if n_tangents == 1:
        points = [0.5 * (lo + up)]
    else:
        points = list(np.linspace(lo, up, n_tangents))
    for t in points:
        if kind == "pow" and t <= 0.0:
            t = lo + (up - lo) * 1e-6
        g = fprime(t)
        rows.append(EnvelopeRow({"w": 1.0, "x": -g}, SENSE_LE, f(t) - g * t))
    return EnvelopeRows(rows)


# -- whole-model relaxation --------------------------------------------


@dataclass
class AuxTerm:
    """One relaxed nonlinear term and the LP column standing in for it."""

    col: int
    kind: str
    var_a: int
    var_b: int | None = None
    exponent: float | None = None

    def true_value(self, x) -> float:
        if self.kind == "bil":
            return x[self.var_a] * x[self.var_b]
        if self.kind == "pow":
            return x[self.var_a] ** self.exponent
        return math.log(x[self.var_a])

    def participants(self) -> tuple[int, ...]:
        if self.kind == "bil" and self.var_a != self.var_b:
            return (self.var_a, self.var_b)
        return (self.var_a,)


def _term_keys(expr: Expression):
    for _, i, j in expr.bilinear:
        yield ("bil", i, j)
    for _, v, p in expr.powers:
        yield ("pow", v, p)
    for _, v in expr.logs:
        yield ("log", v, None)


def build_lp_relaxation(flat: FlatModel, lo, hi) -> LinearProgram:
    """Assemble the LP relaxation of a flattened model over a box.

    Distinct nonlinear terms share one auxiliary column each; the map
    from columns back to terms rides along as lp.aux_terms so callers
    can measure envelope violations at the LP point.
    """
    n0 = len(flat.variables)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    order: dict[tuple, int] = {}
    for key in _term_keys(flat.objective):
        order.setdefault(key, n0 + len(order))
    for c in flat.constraints:
        for key in _term_keys(c.body):
            order.setdefault(key, n0 + len(order))
    n_aux = len(order)
    n = n0 + n_aux

    aux_terms = []
    aux_lo = np.empty(n_aux)
    aux_hi = np.empty(n_aux)
    env_rows: list[tuple[np.ndarray, str, float]] = []

    for key, col in order.items():
        kind = key[0]
        if kind == "bil":
            _, i, j = key
            aux_terms.append(AuxTerm(col, "bil", i, j))
            aux_lo[col - n0], aux_hi[col - n0] = term_interval(
                "bil", lo, hi, i, j)
            env = mccormick_bilinear((lo[i], hi[i]), (lo[j], hi[j]),
                                     square=(i == j))
            symbol_cols = {"w": col, "x": i, "y": j}
        else:
            _, v, p = key
            aux_terms.append(AuxTerm(col, kind, v, exponent=p))
            aux_lo[col - n0], aux_hi[col - n0] = term_interval(
                kind, lo, hi, v, exponent=p)
            if hi[v] - lo[v] > 1e-12:
                env = concave_envelope(kind, (lo[v], hi[v]), exponent=p)
            else:
                env = None
            symbol_cols = {"w": col, "x": v}
        if env is not None:
            for row in env.rows:
                coefs = np.zeros(n)
                for sym, cf in row.coefs.items():
                    coefs[symbol_cols[sym]] += cf
                env_rows.append((coefs, row.sense, row.rhs))

    def linearize(expr: Expression) -> np.ndarray:
        coefs = np.zeros(n)
        for cf, v in expr.linear:
            coefs[v] += cf
        for cf, i, j in expr.bilinear:
            coefs[order[("bil", i, j)]] += cf
        for cf, v, p in expr.powers:
            coefs[order[("pow", v, p)]] += cf
        for cf, v in expr.logs:
            coefs[order[("log", v, None)]] += cf
        return coefs

    rows = []
    senses = []
    rhs = []
    for c in flat.constraints:
        rows.append(linearize(c.body))
        senses.append(c.sense)
        rhs.append(c.rhs - c.body.constant)
    for coefs, sense, r in env_rows:
        rows.append(coefs)
        senses.append(sense)
        rhs.append(r)

    lp = LinearProgram(
        c=linearize(flat.objective),
        A=np.array(rows, dtype=float).reshape(len(rows), n),
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
