"""Flattening of disjunctive models into plain constraint systems.

Disjunctions become indicator binaries with big-M relaxed rows, logic
clauses become covering rows, and fix-to-zero lists become bound-times-
binary rows, none for a zero bound. Every generated row keeps a
provenance record naming its source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Expression,
    GdpModel,
    LogicClause,
    Variable,
    interval_eval,
)


class BigMError(ValueError):
    """A relaxation constant came out non-finite (missing bounds)."""


@dataclass
class FlatModel:
    """Disjunction-free model: only plain rows over continuous + binary
    variables. Nonlinear content is whatever the source model carried."""

    sense: str
    variables: list[Variable] = field(default_factory=list)
    objective: Expression = field(default_factory=Expression)
    constraints: list[Constraint] = field(default_factory=list)
    provenance: list[dict] = field(default_factory=list)
    binary_of_guard: dict[str, int] = field(default_factory=dict)

    def add_variable(self, name: str, lower: float, upper: float,
                     kind: str = CONTINUOUS) -> int:
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, float(lower), float(upper), kind))
        return vid

    def add_constraint(self, constraint: Constraint, provenance: dict) -> None:
        self.constraints.append(constraint)
        self.provenance.append(provenance)

    def bounds_arrays(self):
        lo = [v.lower for v in self.variables]
        hi = [v.upper for v in self.variables]
        return lo, hi

    def counts(self) -> dict:
        nbin = sum(1 for v in self.variables if v.kind == BINARY)
        nl = sum(1 for c in self.constraints if not c.body.is_linear())
        return {
            "continuous_vars": len(self.variables) - nbin,
            "binary_vars": nbin,
            "constraints": len(self.constraints),
            "nonlinear_constraints": nl,
        }


def _negated(expr: Expression) -> Expression:
    out = Expression(-expr.constant)
    out.linear = [(-c, v) for c, v in expr.linear]
    out.terms = [(kind, -c, v, arg) for kind, c, v, arg in expr.terms]
    return out


def to_leq_forms(c: Constraint) -> list[Constraint]:
    """Rewrite a row as one or two <=-rows with identical feasible set."""
    if c.sense == SENSE_LE:
        return [c]
    if c.sense == SENSE_GE:
        return [Constraint(_negated(c.body), SENSE_LE, -c.rhs, c.label)]
    return [
        Constraint(c.body.copy(), SENSE_LE, c.rhs, c.label + ":ub"),
        Constraint(_negated(c.body), SENSE_LE, -c.rhs, c.label + ":lb"),
    ]


def compute_bigm(c: Constraint, lo, hi) -> float:
    """Valid relaxation constant for a <=-row over a box.

    M = max(0, sup(body - rhs)) by interval evaluation, so body - rhs <= M
    holds at every point of the box.
    """
    if c.sense != SENSE_LE:
        raise ValueError("compute_bigm expects a <=-form constraint")
    _, upper = interval_eval(c.body, lo, hi)
    m = max(0.0, upper - c.rhs)
    if not math.isfinite(m):
        raise BigMError(f"non-finite big-M for row {c.label!r}; "
                        f"a participating variable is missing finite bounds")
    return m


def logic_to_linear(clauses: list[LogicClause], binary_of_guard: dict[str, int]
                    ) -> list[Constraint]:
    """CNF clauses to covering rows: sum of satisfied literals >= 1."""
    rows = []
    for k, clause in enumerate(clauses):
        body = Expression()
        n_neg = 0
        for name, polarity in clause.literals:
            if name not in binary_of_guard:
                raise ValueError(f"unknown Boolean {name!r} in logic clause {k}")
            if polarity:
                body.add_linear(1.0, binary_of_guard[name])
            else:
                body.add_linear(-1.0, binary_of_guard[name])
                n_neg += 1
        rows.append(Constraint(body, SENSE_GE, 1.0 - n_neg, f"logic[{k}]"))
    return rows


def bigm_transform(model: GdpModel) -> FlatModel:
    """Flatten a validated model: one binary per disjunct, exactly-one
    rows per disjunction, big-M relaxed disjunct rows, fix-to-zero rows,
    and logic covering rows."""
    report = model.validate()
    if not report.ok:
        raise ValueError("model failed validation: " + "; ".join(report.problems))

    flat = FlatModel(sense=model.sense)
    for v in model.variables:
        flat.add_variable(v.name, v.lower, v.upper, v.kind)
    flat.objective = model.objective.copy()

    for dj in model.disjunctions:
        for d in dj.disjuncts:
            flat.binary_of_guard[d.guard] = flat.add_variable(
                f"y[{d.guard}]", 0.0, 1.0, BINARY)

    lo, hi = flat.bounds_arrays()

    for c in model.globals:
        flat.add_constraint(
            Constraint(c.body.copy(), c.sense, c.rhs, c.label),
            {"kind": "global", "label": c.label},
        )

    for k, dj in enumerate(model.disjunctions):
        dj_name = dj.label or f"disjunction[{k}]"
        one = Expression()
        for d in dj.disjuncts:
            one.add_linear(1.0, flat.binary_of_guard[d.guard])
        flat.add_constraint(
            Constraint(one, SENSE_EQ, 1.0, f"{dj_name}:one"),
            {"kind": "exactly_one", "disjunction": dj_name},
        )
        for d in dj.disjuncts:
            y = flat.binary_of_guard[d.guard]
            for c in d.constraints:
                for leq in to_leq_forms(c):
                    m = compute_bigm(leq, lo, hi)
                    body = leq.body.copy()
                    body.add_linear(m, y)
                    flat.add_constraint(
                        Constraint(body, SENSE_LE, leq.rhs + m,
                                   f"{leq.label}[bigm:{d.guard}]"),
                        {"kind": "disjunct", "guard": d.guard,
                         "label": c.label, "row": leq.label, "bigm": m},
                    )
            for vid in d.fix_to_zero:
                var = model.variables[vid]
                # x <= ub*y and x >= lb*y; a zero bound is the box itself
                for bound, sense, side, tag in (
                        (var.upper, SENSE_LE, "upper", "ub"),
                        (var.lower, SENSE_GE, "lower", "lb")):
                    if bound == 0.0:
                        continue
                    row = Expression().add_linear(1.0, vid).add_linear(-bound, y)
                    flat.add_constraint(
                        Constraint(row, sense, 0.0,
                                   f"fix[{var.name}:{d.guard}]:{tag}"),
                        {"kind": "fix_to_zero", "guard": d.guard,
                         "var": var.name, "side": side},
                    )

    for row, clause in zip(logic_to_linear(model.logic, flat.binary_of_guard),
                           range(len(model.logic))):
        flat.add_constraint(row, {"kind": "logic", "clause": clause})

    return flat
