"""Reformulation of concave power/log terms into quadratic or
piecewise-linear form.

Two strategies are offered per term: a least-squares quadratic fit
(the term becomes a*x**2 + b*x + c) and a piecewise-linear table (the
term becomes a "pwl" term over its interpolation table, exact at the
breakpoints). Neither adds variables or rows; the relaxation bounds a
table by its convex hull and spatial branching refines it. Both carry a
certified max error measured on a dense uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import GdpModel, model_from_json, model_to_json

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


@dataclass
class PwlTable:
    """Uniform-breakpoint interpolation table; exact at every breakpoint."""

    breakpoints: np.ndarray
    values: np.ndarray

    def interpolate(self, x):
        return np.interp(x, self.breakpoints, self.values)


@dataclass
class ApproxPolicy:
    method: str = "quad"  # "quad" or "pwl"
    n_segments: int = 101

    def __post_init__(self):
        if self.method not in ("quad", "pwl"):
            raise ValueError(f"unknown approximation method {self.method!r}")


def _grid_errors(approx: Callable, f: Callable, lower: float,
                 upper: float) -> tuple[float, float]:
    """Max and RMS of approx - f over ERROR_GRID uniform points of
    [lower, upper]."""
    grid = np.linspace(lower, upper, ERROR_GRID)
    err = approx(grid) - f(grid)
    return float(np.max(np.abs(err))), float(np.sqrt(np.mean(err**2)))


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

    max_abs, rms = _grid_errors(
        lambda x: coeffs[0] * x**2 + coeffs[1] * x + coeffs[2], f, lower, upper)
    return QuadFit(
        a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]),
        lower=float(lower), upper=float(upper),
        max_abs_error=max_abs, rms_error=rms, normal_residual=residual,
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


def _clone(model: GdpModel) -> GdpModel:
    if not isinstance(model, GdpModel):
        raise TypeError(f"expected GdpModel, got {type(model).__name__}")
    return model_from_json(model_to_json(model))


def _approx_sites(model: GdpModel):
    """Yield (expression, site label)."""
    yield model.objective, "objective"
    for c in model.globals:
        yield c.body, c.label or "global"
    for dj in model.disjunctions:
        for d in dj.disjuncts:
            for c in d.constraints:
                yield c.body, c.label or d.guard


def apply_approximation(model: GdpModel, policy: ApproxPolicy):
    """Replace every power/log term under the chosen policy.

    Terms are replaced in the disjunctive model, before it is flattened,
    so only a GdpModel is accepted. Returns (new model, report). The
    report carries one record per replaced term: kind, variable, domain
    and certified errors. Every other term, pwl ones included, is
    untouched, and each replacement stays in the row it came from. A
    term of the same kind and exponent over the same domain is fitted
    and certified once per call. A domain too narrow to fit (the fits'
    own 1e-12 test) makes the term the constant coef * f(lower).
    """
    out = _clone(model)
    report: list[dict] = []
    fits: dict[tuple, tuple] = {}

    for expr, site in _approx_sites(out):
        concave = [t for t in expr.terms if t[0] in ("pow", "log")]
        expr.terms = [t for t in expr.terms if t[0] not in ("pow", "log")]
        for kind, coef, vid, exponent in concave:
            var = out.variables[vid]
            if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
                raise ValueError(f"cannot approximate over unbounded variable "
                                 f"{var.name!r}")
            # float.hex keeps -0.0 and 0.0 apart, as the table would
            key = (kind, exponent, var.lower.hex(), var.upper.hex())
            if key not in fits:
                fits[key] = _fit(_term_function(kind, exponent), var.lower,
                                 var.upper, policy)
            approx, max_abs, rms = fits[key]
            if isinstance(approx, float):
                expr.constant += coef * approx
            elif policy.method == "quad":
                expr.constant += coef * approx.c
                expr.add_linear(coef * approx.b, vid)
                expr.add_bilinear(coef * approx.a, vid, vid)
            else:
                expr.add_pwl(coef, vid, approx.breakpoints, approx.values)
            report.append({
                "site": site, "kind": kind, "var": var.name,
                "exponent": exponent, "domain": [var.lower, var.upper],
                "policy": policy.method, "max_abs_error": max_abs,
                "rms_error": rms,
            })

    return out, report


def _fit(f: Callable, lower: float, upper: float, policy: ApproxPolicy):
    """The policy's QuadFit or PwlTable for f on [lower, upper], with
    its grid-certified max and RMS errors; on a domain too narrow to
    fit, the value f(lower), off by at most |f(upper) - f(lower)|."""
    if not upper - lower > 1e-12:
        value = float(f(lower))
        error = abs(float(f(upper)) - value)
        return value, error, error
    if policy.method == "quad":
        fit = fit_quadratic(f, lower, upper)
        return fit, fit.max_abs_error, fit.rms_error
    table = build_pwl(f, lower, upper, policy.n_segments)
    return (table, *_grid_errors(table.interpolate, f, lower, upper))
