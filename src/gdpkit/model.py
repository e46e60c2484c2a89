"""Algebraic core: bounded variables, expressions, disjunctive models.

Expressions admit exactly four nonlinearity kinds: bilinear products,
concave powers x**p with 0 < p < 1, and natural logs, on top of an
affine part. Anything else is rejected at validation time.

Models are treated as immutable once validated; all downstream passes
build fresh objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

CONTINUOUS = "continuous"
BINARY = "binary"

SENSE_LE = "<="
SENSE_EQ = "="
SENSE_GE = ">="

_SENSES = (SENSE_LE, SENSE_EQ, SENSE_GE)


class DomainError(ValueError):
    """A term was evaluated or bounded outside its mathematical domain."""


@dataclass
class Variable:
    id: int
    name: str
    lower: float
    upper: float
    kind: str = CONTINUOUS


class Expression:
    """constant + sum of linear, bilinear, power and log terms.

    Bilinear factor pairs are stored with the lower variable id first, so
    structurally equal expressions compare equal regardless of the order
    the caller supplied the factors in.
    """

    __slots__ = ("constant", "linear", "bilinear", "powers", "logs")

    def __init__(self, constant: float = 0.0):
        self.constant = float(constant)
        self.linear: list[tuple[float, int]] = []
        self.bilinear: list[tuple[float, int, int]] = []
        self.powers: list[tuple[float, int, float]] = []
        self.logs: list[tuple[float, int]] = []

    def add_linear(self, coef: float, var: int) -> "Expression":
        if coef != 0.0:
            self.linear.append((float(coef), int(var)))
        return self

    def add_bilinear(self, coef: float, var_a: int, var_b: int) -> "Expression":
        if coef != 0.0:
            i, j = (var_a, var_b) if var_a <= var_b else (var_b, var_a)
            self.bilinear.append((float(coef), int(i), int(j)))
        return self

    def add_power(self, coef: float, var: int, exponent: float) -> "Expression":
        if not 0.0 < exponent < 1.0:
            raise ValueError(f"power exponent must lie in (0, 1), got {exponent}")
        if coef != 0.0:
            self.powers.append((float(coef), int(var), float(exponent)))
        return self

    def add_log(self, coef: float, var: int) -> "Expression":
        if coef != 0.0:
            self.logs.append((float(coef), int(var)))
        return self

    def is_linear(self) -> bool:
        return not (self.bilinear or self.powers or self.logs)

    def variables(self) -> set[int]:
        out = {v for _, v in self.linear}
        for _, i, j in self.bilinear:
            out.add(i)
            out.add(j)
        for _, v, _ in self.powers:
            out.add(v)
        out.update(v for _, v in self.logs)
        return out

    def copy(self) -> "Expression":
        e = Expression(self.constant)
        e.linear = list(self.linear)
        e.bilinear = list(self.bilinear)
        e.powers = list(self.powers)
        e.logs = list(self.logs)
        return e

    def evaluate(self, point) -> float:
        """Exact value at a point indexable by variable id."""
        val = self.constant
        for c, v in self.linear:
            val += c * point[v]
        for c, i, j in self.bilinear:
            val += c * point[i] * point[j]
        for c, v, p in self.powers:
            x = point[v]
            if x < 0.0:
                raise DomainError(f"power term evaluated at negative value {x}")
            val += c * x**p
        for c, v in self.logs:
            x = point[v]
            if x <= 0.0:
                raise DomainError(f"log term evaluated at non-positive value {x}")
            val += c * math.log(x)
        return val

    def __repr__(self) -> str:
        parts = [f"{self.constant:g}"] if self.constant else []
        parts += [f"{c:+g}*x{v}" for c, v in self.linear]
        parts += [f"{c:+g}*x{i}*x{j}" for c, i, j in self.bilinear]
        parts += [f"{c:+g}*x{v}^{p:g}" for c, v, p in self.powers]
        parts += [f"{c:+g}*ln(x{v})" for c, v in self.logs]
        return "Expr(" + (" ".join(parts) or "0") + ")"


@dataclass
class Constraint:
    body: Expression
    sense: str
    rhs: float
    label: str = ""

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"bad constraint sense {self.sense!r}")
        self.rhs = float(self.rhs)

    def violation(self, point) -> float:
        """Nonnegative amount by which the row is violated at a point."""
        val = self.body.evaluate(point)
        if self.sense == SENSE_LE:
            return max(0.0, val - self.rhs)
        if self.sense == SENSE_GE:
            return max(0.0, self.rhs - val)
        return abs(val - self.rhs)


@dataclass
class Disjunct:
    """One guarded alternative of a disjunction.

    When the guard is true the active constraints hold; when it is false
    every variable in fix_to_zero is driven to zero.
    """

    guard: str
    constraints: list[Constraint] = field(default_factory=list)
    fix_to_zero: list[int] = field(default_factory=list)


@dataclass
class Disjunction:
    disjuncts: list[Disjunct]
    label: str = ""


@dataclass
class LogicClause:
    """Disjunction of guard literals: [(name, polarity), ...]."""

    literals: list[tuple[str, bool]]


@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


class GdpModel:
    """Disjunctive program: objective, globals, disjunctions, logic clauses."""

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.variables: list[Variable] = []
        self.objective = Expression()
        self.globals: list[Constraint] = []
        self.disjunctions: list[Disjunction] = []
        self.logic: list[LogicClause] = []
        self._names: dict[str, int] = {}

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, lower: float, upper: float,
                     kind: str = CONTINUOUS) -> int:
        """Register a variable and return its id (insertion order)."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"bad variable kind {kind!r}")
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, float(lower), float(upper), kind))
        self._names[name] = vid
        return vid

    def var_id(self, name: str) -> int:
        return self._names[name]

    def add_global(self, constraint: Constraint) -> None:
        self.globals.append(constraint)

    def add_disjunction(self, disjunction: Disjunction) -> None:
        self.disjunctions.append(disjunction)

    def add_logic(self, clause: LogicClause) -> None:
        self.logic.append(clause)

    # -- introspection ------------------------------------------------

    def bounds_arrays(self):
        lo = [v.lower for v in self.variables]
        hi = [v.upper for v in self.variables]
        return lo, hi

    def guard_names(self) -> list[str]:
        return [d.guard for dj in self.disjunctions for d in dj.disjuncts]

    # -- validation ---------------------------------------------------

    def validate(self) -> ValidationReport:
        """Collect every structural violation; the model is accepted iff
        the report comes back empty."""
        report = ValidationReport()
        add = report.problems.append
        n = len(self.variables)

        for v in self.variables:
            if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
                add(f"unbounded variable: {v.name!r} has non-finite bounds")
            elif v.lower > v.upper:
                add(f"bound order: {v.name!r} has lower {v.lower} > upper {v.upper}")
            if v.kind == BINARY and not (0.0 <= v.lower and v.upper <= 1.0):
                add(f"binary bounds: {v.name!r} bounds not within [0, 1]")

        def check_expr(expr: Expression, where: str):
            for vid in expr.variables():
                if not 0 <= vid < n:
                    add(f"unknown variable: id {vid} referenced by {where}")
            for _, vid, p in expr.powers:
                if not 0.0 < p < 1.0:
                    add(f"power exponent: {p} outside (0, 1) in {where}")
                if 0 <= vid < n and self.variables[vid].lower < 0.0:
                    add(f"power domain: {self.variables[vid].name!r} admits "
                        f"negative values in {where}")
            for _, vid in expr.logs:
                if 0 <= vid < n and self.variables[vid].lower <= 0.0:
                    add(f"log domain: {self.variables[vid].name!r} lower bound "
                        f"must be > 0 in {where}")

        check_expr(self.objective, "objective")
        for c in self.globals:
            check_expr(c.body, f"global {c.label or '?'}")
            if not math.isfinite(c.rhs):
                add(f"non-finite rhs in global {c.label or '?'}")

        guards: list[str] = []
        for k, dj in enumerate(self.disjunctions):
            where = dj.label or f"disjunction {k}"
            if len(dj.disjuncts) < 2:
                add(f"empty disjunction: {where} has fewer than 2 disjuncts")
            for d in dj.disjuncts:
                guards.append(d.guard)
                for c in d.constraints:
                    check_expr(c.body, f"disjunct {d.guard}")
                    if not math.isfinite(c.rhs):
                        add(f"non-finite rhs in disjunct {d.guard}")
                for vid in d.fix_to_zero:
                    if not 0 <= vid < n:
                        add(f"unknown variable: id {vid} in fix list of {d.guard}")
                    elif not (self.variables[vid].lower <= 0.0 <= self.variables[vid].upper):
                        add(f"fix-to-zero: {self.variables[vid].name!r} cannot "
                            f"reach zero within its bounds")
        dup = {g for g in guards if guards.count(g) > 1}
        for g in sorted(dup):
            add(f"duplicate guard: {g!r}")

        known = set(guards)
        for k, clause in enumerate(self.logic):
            if not clause.literals:
                add(f"empty logic clause at index {k}")
            for name, _ in clause.literals:
                if name not in known:
                    add(f"unknown Boolean: {name!r} in logic clause {k}")
        return report


# -- interval arithmetic ----------------------------------------------


def term_interval(kind: str, lo, hi, var: int, other: int | None = None,
                  exponent: float | None = None) -> tuple[float, float]:
    """Exact range over a box of one term: "bil" var*other, "pow"
    var**exponent or "log" log(var).

    lo/hi are indexable by variable id. Raises DomainError if a log
    term's box reaches values <= 0 or a power term's box reaches
    negative values.
    """
    if kind == "bil":
        corners = (lo[var] * lo[other], lo[var] * hi[other],
                   hi[var] * lo[other], hi[var] * hi[other])
        return min(corners), max(corners)
    if kind == "pow":
        if lo[var] < 0.0:
            raise DomainError(f"power term over box reaching negative values "
                              f"(var id {var}, lower {lo[var]})")
        return lo[var] ** exponent, hi[var] ** exponent
    if lo[var] <= 0.0:
        raise DomainError(f"log term over box reaching values <= 0 "
                          f"(var id {var}, lower {lo[var]})")
    return math.log(lo[var]), math.log(hi[var])


def interval_eval(expr: Expression, lo, hi) -> tuple[float, float]:
    """Sound enclosure of an expression's range over a box.

    lo/hi are indexable by variable id. Bilinear terms use the exact
    four-corner product interval; powers and logs use monotonicity.
    Raises DomainError if a log term's box reaches values <= 0 or a
    power term's box reaches negative values.
    """
    out_lo = expr.constant
    out_hi = expr.constant
    for c, v in expr.linear:
        a, b = c * lo[v], c * hi[v]
        out_lo += min(a, b)
        out_hi += max(a, b)
    for c, i, j in expr.bilinear:
        tlo, thi = term_interval("bil", lo, hi, i, j)
        a, b = c * tlo, c * thi
        out_lo += min(a, b)
        out_hi += max(a, b)
    for c, v, p in expr.powers:
        tlo, thi = term_interval("pow", lo, hi, v, exponent=p)
        a, b = c * tlo, c * thi
        out_lo += min(a, b)
        out_hi += max(a, b)
    for c, v in expr.logs:
        tlo, thi = term_interval("log", lo, hi, v)
        a, b = c * tlo, c * thi
        out_lo += min(a, b)
        out_hi += max(a, b)
    return out_lo, out_hi


# -- JSON schema ------------------------------------------------------
#
# Top-level keys: variables, objective, sense, globals, disjunctions,
# logic. Expressions are term lists tagged lin/bil/pow/log. Saving a
# just-loaded model reproduces the file byte for byte (modulo the
# whitespace conventions of the writer, which are fixed).


def expr_to_json(expr: Expression) -> dict:
    terms: list[dict] = []
    for c, v in expr.linear:
        terms.append({"kind": "lin", "coef": c, "var": v})
    for c, i, j in expr.bilinear:
        terms.append({"kind": "bil", "coef": c, "vars": [i, j]})
    for c, v, p in expr.powers:
        terms.append({"kind": "pow", "coef": c, "var": v, "exponent": p})
    for c, v in expr.logs:
        terms.append({"kind": "log", "coef": c, "var": v})
    return {"constant": expr.constant, "terms": terms}


def expr_from_json(obj: dict) -> Expression:
    e = Expression(obj.get("constant", 0.0))
    for t in obj.get("terms", []):
        kind = t["kind"]
        if kind == "lin":
            e.add_linear(t["coef"], t["var"])
        elif kind == "bil":
            i, j = t["vars"]
            e.add_bilinear(t["coef"], i, j)
        elif kind == "pow":
            e.add_power(t["coef"], t["var"], t["exponent"])
        elif kind == "log":
            e.add_log(t["coef"], t["var"])
        else:
            raise ValueError(f"unknown term kind {kind!r}")
    return e


def constraint_to_json(c: Constraint) -> dict:
    return {"label": c.label, "body": expr_to_json(c.body),
            "sense": c.sense, "rhs": c.rhs}


def constraint_from_json(obj: dict) -> Constraint:
    return Constraint(expr_from_json(obj["body"]), obj["sense"],
                      obj["rhs"], obj.get("label", ""))


def variables_to_json(variables: list[Variable]) -> list[dict]:
    return [{"id": v.id, "name": v.name, "lower": v.lower,
             "upper": v.upper, "kind": v.kind} for v in variables]


def model_to_json(model: GdpModel) -> dict:
    return {
        "sense": model.sense,
        "variables": variables_to_json(model.variables),
        "objective": expr_to_json(model.objective),
        "globals": [constraint_to_json(c) for c in model.globals],
        "disjunctions": [
            {
                "label": dj.label,
                "disjuncts": [
                    {
                        "guard": d.guard,
                        "constraints": [constraint_to_json(c) for c in d.constraints],
                        "fix_to_zero": list(d.fix_to_zero),
                    }
                    for d in dj.disjuncts
                ],
            }
            for dj in model.disjunctions
        ],
        "logic": [
            [{"bool": name, "polarity": pol} for name, pol in cl.literals]
            for cl in model.logic
        ],
    }


def model_from_json(obj: dict) -> GdpModel:
    model = GdpModel(obj["sense"])
    for v in obj["variables"]:
        vid = model.add_variable(v["name"], v["lower"], v["upper"], v["kind"])
        if vid != v["id"]:
            raise ValueError(f"variable ids must be 0..n-1 in order; got {v['id']}")
    model.objective = expr_from_json(obj["objective"])
    for c in obj.get("globals", []):
        model.add_global(constraint_from_json(c))
    for dj in obj.get("disjunctions", []):
        disjuncts = [
            Disjunct(
                d["guard"],
                [constraint_from_json(c) for c in d.get("constraints", [])],
                list(d.get("fix_to_zero", [])),
            )
            for d in dj["disjuncts"]
        ]
        model.add_disjunction(Disjunction(disjuncts, dj.get("label", "")))
    for cl in obj.get("logic", []):
        model.add_logic(LogicClause([(lit["bool"], bool(lit["polarity"])) for lit in cl]))
    return model


def save_model(model: GdpModel) -> str:
    return json.dumps(model_to_json(model), indent=2) + "\n"


def load_model(text: str) -> GdpModel:
    return model_from_json(json.loads(text))
