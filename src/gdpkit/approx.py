"""Reformulation of concave power/log terms into quadratic or
piecewise-linear form.

Two strategies are offered per term: a least-squares quadratic fit
(model size unchanged, the term becomes a*x**2 + b*x + c) and an
incremental piecewise-linear encoding (exact at breakpoints, adds one
output variable, segment fill variables and ordering binaries). Both
carry a certified max error measured on a dense uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_LE,
    Constraint,
    Expression,
    GdpModel,
    model_from_json,
    model_to_json,
)

ERROR_GRID = 10_001


@dataclass
class QuadFit:
    """q(x) = a*x**2 + b*x + c on [lower, upper], with grid-certified errors."""

    a: float
    b: float
    c: float
    lower: float
    upper: float
    max_abs_error: float
    rms_error: float
    normal_residual: float

    def __call__(self, x):
        return self.a * x * x + self.b * x + self.c


@dataclass
class PwlTable:
    """Uniform-breakpoint interpolation table; exact at every breakpoint."""

    breakpoints: np.ndarray
    values: np.ndarray

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) - 1

    def interpolate(self, x):
        return np.interp(x, self.breakpoints, self.values)

    def max_grid_error(self, f: Callable, n_points: int = ERROR_GRID) -> float:
        grid = np.linspace(self.breakpoints[0], self.breakpoints[-1], n_points)
        return float(np.max(np.abs(self.interpolate(grid) - f(grid))))


@dataclass
class PwlEncoding:
    """Incremental-model rows for one table.

    Fill variables delta_1..delta_N trace the segments in order; binaries
    z_1..z_{N-1} force the filling order delta_{k+1} <= z_k <= delta_k.
    """

    deltas: list[int]
    binaries: list[int]
    rows: list[Constraint]
    x_var: int
    out_var: int


@dataclass
class ApproxPolicy:
    method: str = "quad"  # "quad" or "pwl"
    n_segments: int = 101
    n_samples: int = 1000

    def __post_init__(self):
        if self.method not in ("quad", "pwl"):
            raise ValueError(f"unknown approximation method {self.method!r}")


def _term_function(kind: str, exponent: float | None) -> Callable:
    if kind == "pow":
        return lambda x: np.asarray(x, dtype=float) ** exponent
    if kind == "log":
        return np.log
    raise ValueError(f"no approximation for term kind {kind!r}")


def fit_quadratic(f: Callable, lower: float, upper: float,
                  n_samples: int = 1000) -> QuadFit:
    """Least-squares quadratic through n_samples uniform samples of f.

    Solves the 3x3 normal equations directly; the relative residual of
    the solve is recorded and must come out tiny for any sane input.
    """
    if not upper - lower > 1e-12:
        raise ValueError(f"degenerate fit domain [{lower}, {upper}]")
    if n_samples < 3:
        raise ValueError("need at least 3 samples for a quadratic fit")
    x = np.linspace(lower, upper, n_samples)
    y = np.asarray(f(x), dtype=float)
    powers = np.array([x**4, x**3, x**2, x, np.ones_like(x)])
    s4, s3, s2, s1, s0 = powers.sum(axis=1)
    normal = np.array([[s4, s3, s2], [s3, s2, s1], [s2, s1, s0]])
    target = np.array([(y * x**2).sum(), (y * x).sum(), y.sum()])
    coeffs = np.linalg.solve(normal, target)
    residual = float(np.linalg.norm(normal @ coeffs - target))
    residual /= max(1.0, float(np.linalg.norm(target)))

    grid = np.linspace(lower, upper, ERROR_GRID)
    err = (coeffs[0] * grid**2 + coeffs[1] * grid + coeffs[2]) - f(grid)
    return QuadFit(
        a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]),
        lower=float(lower), upper=float(upper),
        max_abs_error=float(np.max(np.abs(err))),
        rms_error=float(np.sqrt(np.mean(err**2))),
        normal_residual=residual,
    )


def build_pwl(f: Callable, lower: float, upper: float, n_segments: int) -> PwlTable:
    """Interpolation table with n_segments uniform intervals
    (n_segments + 1 breakpoints), values evaluated exactly."""
    if not upper - lower > 1e-12:
        raise ValueError(f"degenerate table domain [{lower}, {upper}]")
    if n_segments < 1:
        raise ValueError("need at least one segment")
    xs = np.linspace(lower, upper, n_segments + 1)
    return PwlTable(breakpoints=xs, values=np.asarray(f(xs), dtype=float))


def encode_pwl_incremental(table: PwlTable, x_var: int, out_var: int,
                           model, prefix: str) -> PwlEncoding:
    """Materialize the incremental rows for a table in a model.

    The model must expose add_variable(); x_var's bounds must equal the
    table domain. Adds N fill variables and N-1 ordering binaries, the
    ordering rows, and the two linking equalities for x and the output.
    """
    var = model.variables[x_var]
    if abs(var.lower - table.breakpoints[0]) > 1e-12 or \
            abs(var.upper - table.breakpoints[-1]) > 1e-12:
        raise ValueError(
            f"bound mismatch: {var.name!r} spans [{var.lower}, {var.upper}] "
            f"but the table spans [{table.breakpoints[0]}, {table.breakpoints[-1]}]")

    n = table.n_segments
    deltas = [model.add_variable(f"{prefix}.d{k}", 0.0, 1.0, CONTINUOUS)
              for k in range(1, n + 1)]
    binaries = [model.add_variable(f"{prefix}.z{k}", 0.0, 1.0, BINARY)
                for k in range(1, n)]

    rows: list[Constraint] = []
    for k in range(n - 1):
        # delta_{k+2} <= z_{k+1} <= delta_{k+1} in 1-based segment terms
        lower_row = Expression().add_linear(1.0, deltas[k + 1]).add_linear(-1.0, binaries[k])
        rows.append(Constraint(lower_row, SENSE_LE, 0.0, f"{prefix}.ord{k + 1}:lo"))
        upper_row = Expression().add_linear(1.0, binaries[k]).add_linear(-1.0, deltas[k])
        rows.append(Constraint(upper_row, SENSE_LE, 0.0, f"{prefix}.ord{k + 1}:hi"))

    widths = np.diff(table.breakpoints)
    x_row = Expression().add_linear(1.0, x_var)
    for k, w in enumerate(widths):
        x_row.add_linear(-float(w), deltas[k])
    rows.append(Constraint(x_row, SENSE_EQ, float(table.breakpoints[0]),
                           f"{prefix}.x"))

    rises = np.diff(table.values)
    out_row = Expression().add_linear(1.0, out_var)
    for k, r in enumerate(rises):
        out_row.add_linear(-float(r), deltas[k])
    rows.append(Constraint(out_row, SENSE_EQ, float(table.values[0]),
                           f"{prefix}.out"))

    return PwlEncoding(deltas=deltas, binaries=binaries, rows=rows,
                       x_var=x_var, out_var=out_var)


def _clone(model: GdpModel) -> GdpModel:
    if not isinstance(model, GdpModel):
        raise TypeError(f"expected GdpModel, got {type(model).__name__}")
    return model_from_json(model_to_json(model))


def _approx_sites(model: GdpModel):
    """Yield (expression, site label, owning disjunct or None)."""
    yield model.objective, "objective", None
    for c in model.globals:
        yield c.body, c.label or "global", None
    for dj in model.disjunctions:
        for d in dj.disjuncts:
            for c in d.constraints:
                yield c.body, c.label or d.guard, d


def apply_approximation(model: GdpModel, policy: ApproxPolicy):
    """Replace every power/log term under the chosen policy.

    Terms are replaced in the disjunctive model, before it is flattened,
    so only a GdpModel is accepted. Returns (new model, report). The
    report carries one record per replaced term: kind, variable, domain,
    certified errors and added counts. Linear and bilinear content is
    untouched. Rows for a term found inside a disjunct are added to that
    disjunct, so the encoding is relaxed together with the rest of the
    unit.
    """
    out = _clone(model)
    report: list[dict] = []
    counter = 0

    # materialized up front: processing appends rows to the model
    for expr, site, owner in list(_approx_sites(out)):
        if not (expr.powers or expr.logs):
            continue
        terms = [("pow", c, v, p) for c, v, p in expr.powers]
        terms += [("log", c, v, None) for c, v in expr.logs]
        expr.powers = []
        expr.logs = []
        for kind, coef, vid, exponent in terms:
            var = out.variables[vid]
            if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
                raise ValueError(f"cannot approximate over unbounded variable "
                                 f"{var.name!r}")
            f = _term_function(kind, exponent)
            entry = {
                "site": site, "kind": kind, "var": var.name,
                "exponent": exponent, "domain": [var.lower, var.upper],
                "policy": policy.method,
            }
            if policy.method == "quad":
                fit = fit_quadratic(f, var.lower, var.upper, policy.n_samples)
                expr.constant += coef * fit.c
                expr.add_linear(coef * fit.b, vid)
                expr.add_bilinear(coef * fit.a, vid, vid)
                entry.update(max_abs_error=fit.max_abs_error,
                             rms_error=fit.rms_error,
                             added_continuous=0, added_binary=0,
                             added_constraints=0)
            else:
                table = build_pwl(f, var.lower, var.upper, policy.n_segments)
                prefix = f"pwl{counter}[{var.name}]"
                flo = float(table.values.min())
                fhi = float(table.values.max())
                w = out.add_variable(f"{prefix}.f", flo, fhi, CONTINUOUS)
                enc = encode_pwl_incremental(table, vid, w, out, prefix)
                expr.add_linear(coef, w)
                if owner is not None:
                    owner.constraints.extend(enc.rows)
                else:
                    for row in enc.rows:
                        out.add_global(row)
                grid = np.linspace(var.lower, var.upper, ERROR_GRID)
                resid = table.interpolate(grid) - f(grid)
                entry.update(max_abs_error=float(np.max(np.abs(resid))),
                             rms_error=float(np.sqrt(np.mean(resid**2))),
                             added_continuous=len(enc.deltas) + 1,
                             added_binary=len(enc.binaries),
                             added_constraints=len(enc.rows))
            counter += 1
            report.append(entry)

    return out, report
