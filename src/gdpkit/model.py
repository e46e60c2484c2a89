"""Algebraic core: bounded variables, expressions, disjunctive models.

Expressions admit exactly four nonlinearity kinds, on top of an affine
part: bilinear products, concave powers x**p with 0 < p < 1, natural
logs, and concave piecewise-linear tables. Anything else is rejected
at validation time.

Models are treated as immutable once validated; all downstream passes
build fresh objects.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

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
    """constant + sum of linear terms and nonlinear terms.

    Linear terms are (coef, var) pairs. Nonlinear terms are
    (kind, coef, var, arg) tuples kept in insertion order:

    - ("bil", c, i, j): c * x_i * x_j, stored with i <= j, so structurally
      equal expressions compare equal regardless of the order the caller
      supplied the factors in;
    - ("pow", c, v, p): c * x_v**p with 0 < p < 1;
    - ("log", c, v, None): c * ln(x_v);
    - ("pwl", c, v, (xs, ys)): c * the linear interpolant of the table
      through the points (xs[k], ys[k]), a concave table over
      [xs[0], xs[-1]]; the table is a tuple of two float tuples, so the
      term stays hashable.

    term_value and term_interval give each kind's value and range.
    """

    __slots__ = ("constant", "linear", "terms")

    def __init__(self, constant: float = 0.0):
        self.constant = float(constant)
        self.linear: list[tuple[float, int]] = []
        self.terms: list[tuple[str, float, int, int | float | tuple | None]] = []

    def add_linear(self, coef: float, var: int) -> "Expression":
        if coef != 0.0:
            self.linear.append((float(coef), int(var)))
        return self

    def add_bilinear(self, coef: float, var_a: int, var_b: int) -> "Expression":
        if coef != 0.0:
            i, j = (var_a, var_b) if var_a <= var_b else (var_b, var_a)
            self.terms.append(("bil", float(coef), int(i), int(j)))
        return self

    def add_power(self, coef: float, var: int, exponent: float) -> "Expression":
        if not 0.0 < exponent < 1.0:
            raise ValueError(f"power exponent must lie in (0, 1), got {exponent}")
        if coef != 0.0:
            self.terms.append(("pow", float(coef), int(var), float(exponent)))
        return self

    def add_log(self, coef: float, var: int) -> "Expression":
        if coef != 0.0:
            self.terms.append(("log", float(coef), int(var), None))
        return self

    def add_pwl(self, coef: float, var: int, breakpoints, values) -> "Expression":
        table = (tuple(map(float, breakpoints)), tuple(map(float, values)))
        problem = pwl_table_problem(table)
        if problem:
            raise ValueError(problem)
        if coef != 0.0:
            self.terms.append(("pwl", float(coef), int(var), table))
        return self

    def is_linear(self) -> bool:
        return not self.terms

    def variables(self) -> set[int]:
        out = {v for _, v in self.linear}
        for kind, _, v, arg in self.terms:
            out.add(v)
            if kind == "bil":
                out.add(arg)
        return out

    def copy(self) -> "Expression":
        e = Expression(self.constant)
        e.linear = list(self.linear)
        e.terms = list(self.terms)
        return e

    def evaluate(self, point) -> float:
        """Exact value at a point indexable by variable id."""
        val = self.constant
        for c, v in self.linear:
            val += c * point[v]
        for kind, c, v, arg in self.terms:
            val += c * term_value(kind, point, v, arg)
        return val

    def __repr__(self) -> str:
        parts = [f"{self.constant:g}"] if self.constant else []
        parts += [f"{c:+g}*x{v}" for c, v in self.linear]
        for kind, c, v, arg in self.terms:
            if kind == "bil":
                parts.append(f"{c:+g}*x{v}*x{arg}")
            elif kind == "pow":
                parts.append(f"{c:+g}*x{v}^{arg:g}")
            elif kind == "pwl":
                parts.append(f"{c:+g}*pwl{len(arg[0]) - 1}(x{v})")
            else:
                parts.append(f"{c:+g}*ln(x{v})")
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

        lo, hi = self.bounds_arrays()

        def check_expr(expr: Expression, where: str):
            unknown = [vid for vid in expr.variables() if not 0 <= vid < n]
            for vid in unknown:
                add(f"unknown variable: id {vid} referenced by {where}")
            for kind, _, vid, arg in expr.terms:
                table_problem = kind == "pwl" and pwl_table_problem(arg)
                if kind == "pow" and not 0.0 < arg < 1.0:
                    add(f"power exponent: {arg} outside (0, 1) in {where}")
                elif table_problem:
                    name = repr(self.variables[vid].name) if 0 <= vid < n \
                        else f"id {vid}"
                    add(f"pwl table: {name}: {table_problem} in {where}")
                elif not unknown:
                    try:
                        term_interval(kind, lo, hi, vid, arg)
                    except DomainError as exc:
                        add(f"{kind} domain: {self.variables[vid].name!r}: "
                            f"{exc} in {where}")

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


# -- term values and ranges -------------------------------------------


def pwl_table_problem(table) -> str | None:
    """What makes a (breakpoints, values) table unfit for a pwl term, or
    None: it needs 2 or more strictly increasing breakpoints, as many
    values, and slopes that do not increase (a concave table)."""
    xs, ys = table
    if len(xs) < 2:
        return f"needs at least 2 breakpoints, got {len(xs)}"
    if len(xs) != len(ys):
        return f"{len(xs)} breakpoints but {len(ys)} values"
    if not all(a < b for a, b in zip(xs, xs[1:])):
        return "breakpoints must strictly increase"
    slopes = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
              for k in range(len(xs) - 1)]
    for k, (s, t) in enumerate(zip(slopes, slopes[1:])):
        if t - s > 1e-9 * max(1.0, abs(s), abs(t)):
            return f"slopes increase at breakpoint {k + 1}: the table is not concave"
    return None


def pwl_value(table, x: float) -> float:
    """The table's linear interpolant at x; DomainError outside
    [xs[0], xs[-1]]."""
    xs, ys = table
    if not xs[0] <= x <= xs[-1]:
        raise DomainError(f"pwl term evaluated at {x}, outside its table "
                          f"[{xs[0]}, {xs[-1]}]")
    k = min(bisect_right(xs, x), len(xs) - 1)
    return ys[k - 1] + (ys[k] - ys[k - 1]) * (x - xs[k - 1]) / (xs[k] - xs[k - 1])


def term_value(kind: str, point, var: int, arg) -> float:
    """Exact value at a point of one term: "bil" var*arg, "pow" var**arg,
    "pwl" the table arg at var, or "log" log(var).

    point is indexable by variable id. Raises DomainError if a log term
    is evaluated at a value <= 0, a power term at a negative value or a
    pwl term outside its table.
    """
    x = point[var]
    if kind == "bil":
        return x * point[arg]
    if kind == "pow":
        if x < 0.0:
            raise DomainError(f"power term evaluated at negative value {x}")
        return x**arg
    if kind == "pwl":
        return pwl_value(arg, x)
    if x <= 0.0:
        raise DomainError(f"log term evaluated at non-positive value {x}")
    return math.log(x)


def term_interval(kind: str, lo, hi, var: int, arg) -> tuple[float, float]:
    """Exact range over a box of one term: "bil" var*arg, "pow" var**arg,
    "pwl" the table arg at var, or "log" log(var).

    lo/hi are indexable by variable id. Raises DomainError if a log
    term's box reaches values <= 0, a power term's box reaches negative
    values or a pwl term's box leaves its table.
    """
    if kind == "bil":
        corners = (lo[var] * lo[arg], lo[var] * hi[arg],
                   hi[var] * lo[arg], hi[var] * hi[arg])
        return min(corners), max(corners)
    if kind == "pow":
        if lo[var] < 0.0:
            raise DomainError(f"power term over box reaching negative values "
                              f"(var id {var}, lower {lo[var]})")
        return lo[var] ** arg, hi[var] ** arg
    if kind == "pwl":
        # concave: the least value at an end of the box, the greatest at
        # an end or at a breakpoint inside it
        xs, ys = arg
        ends = (pwl_value(arg, lo[var]), pwl_value(arg, hi[var]))
        inside = ys[bisect_right(xs, lo[var]):bisect_right(xs, hi[var])]
        return min(ends), max(ends + inside)
    if lo[var] <= 0.0:
        raise DomainError(f"log term over box reaching values <= 0 "
                          f"(var id {var}, lower {lo[var]})")
    return math.log(lo[var]), math.log(hi[var])


def interval_eval(expr: Expression, lo, hi) -> tuple[float, float]:
    """Sound enclosure of an expression's range over a box: the sum of
    each term's exact range (term_interval) times its coefficient.

    lo/hi are indexable by variable id. Raises DomainError if a log
    term's box reaches values <= 0 or a power term's box reaches
    negative values.
    """
    out_lo = expr.constant
    out_hi = expr.constant
    for c, v in expr.linear:
        a, b = c * lo[v], c * hi[v]
        out_lo += min(a, b)
        out_hi += max(a, b)
    for kind, c, v, arg in expr.terms:
        tlo, thi = term_interval(kind, lo, hi, v, arg)
        a, b = c * tlo, c * thi
        out_lo += min(a, b)
        out_hi += max(a, b)
    return out_lo, out_hi


# -- JSON schema ------------------------------------------------------
#
# Top-level keys: variables, objective, sense, globals, disjunctions,
# logic. Expressions are term lists tagged lin/bil/pow/log/pwl. Saving a
# just-loaded model reproduces the file byte for byte (modulo the
# whitespace conventions of the writer, which are fixed).


def expr_to_json(expr: Expression) -> dict:
    terms = [{"kind": "lin", "coef": c, "var": v} for c, v in expr.linear]
    for kind, c, v, arg in expr.terms:
        term = {"kind": kind, "coef": c}
        if kind == "bil":
            term["vars"] = [v, arg]
        else:
            term["var"] = v
        if kind == "pow":
            term["exponent"] = arg
        elif kind == "pwl":
            term["breakpoints"], term["values"] = map(list, arg)
        terms.append(term)
    return {"constant": expr.constant, "terms": terms}


def _read(where: str, k: int | None, read, item, *args):
    """read(item, *args) for item k (None if alone) of a model file; a
    malformed item raises ValueError "where k: <what is wrong>"."""
    try:
        return read(item, *args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if not isinstance(item, dict):
            exc = f"must be an object, got {type(item).__name__}"
        elif isinstance(exc, KeyError):
            exc = f"missing field {exc.args[0]!r}"
        where = where if k is None else f"{where} {k}"
        raise ValueError(f"{where}: {exc}") from None


def _add_term(t: dict, e: Expression) -> None:
    kind = t["kind"]
    if kind == "lin":
        e.add_linear(t["coef"], t["var"])
    elif kind == "bil":
        if not (isinstance(t["vars"], list) and len(t["vars"]) == 2):
            raise ValueError(f"vars must hold two ids, got {t['vars']!r}")
        e.add_bilinear(t["coef"], *t["vars"])
    elif kind == "pow":
        e.add_power(t["coef"], t["var"], t["exponent"])
    elif kind == "log":
        e.add_log(t["coef"], t["var"])
    elif kind == "pwl":
        e.add_pwl(t["coef"], t["var"], t["breakpoints"], t["values"])
    else:
        raise ValueError(f"unknown term kind {kind!r}")


def expr_from_json(obj: dict) -> Expression:
    e = Expression(obj.get("constant", 0.0))
    for k, t in enumerate(obj.get("terms", [])):
        _read("term", k, _add_term, t, e)
    return e


def constraint_to_json(c: Constraint) -> dict:
    return {"label": c.label, "body": expr_to_json(c.body),
            "sense": c.sense, "rhs": c.rhs}


def constraint_from_json(obj: dict) -> Constraint:
    return Constraint(_read("body", None, expr_from_json, obj["body"]),
                      obj["sense"], obj["rhs"], obj.get("label", ""))


def model_to_json(model: GdpModel) -> dict:
    return {
        "sense": model.sense,
        "variables": [{"id": v.id, "name": v.name, "lower": v.lower,
                       "upper": v.upper, "kind": v.kind}
                      for v in model.variables],
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


def _add_variable(v: dict, model: GdpModel) -> None:
    vid = model.add_variable(v["name"], v["lower"], v["upper"], v["kind"])
    if vid != v["id"]:
        raise ValueError(f"variable ids must be 0..n-1 in order; got {v['id']}")


def _disjunct_from_json(d: dict) -> Disjunct:
    return Disjunct(d["guard"],
                    [_read("constraint", r, constraint_from_json, c)
                     for r, c in enumerate(d.get("constraints", []))],
                    list(d.get("fix_to_zero", [])))


def _literal(lit: dict) -> tuple[str, bool]:
    if not isinstance(lit["polarity"], bool):
        raise ValueError(f"polarity must be true or false, "
                         f"got {lit['polarity']!r}")
    return lit["bool"], lit["polarity"]


def model_from_json(obj: dict) -> GdpModel:
    model = GdpModel(obj["sense"])
    for k, v in enumerate(obj["variables"]):
        _read("variable", k, _add_variable, v, model)
    model.objective = _read("objective", None, expr_from_json, obj["objective"])
    for k, c in enumerate(obj.get("globals", [])):
        model.add_global(_read("global", k, constraint_from_json, c))
    for k, dj in enumerate(obj.get("disjunctions", [])):
        disjuncts = _read("disjunction", k, itemgetter("disjuncts"), dj)
        model.add_disjunction(Disjunction(
            [_read(f"disjunction {k}: disjunct", i, _disjunct_from_json, d)
             for i, d in enumerate(disjuncts)], dj.get("label", "")))
    for k, cl in enumerate(obj.get("logic", [])):
        model.add_logic(LogicClause([_read(f"logic clause {k}: literal", i,
                                           _literal, lit)
                                     for i, lit in enumerate(cl)]))
    return model


def save_model(model: GdpModel) -> str:
    return json.dumps(model_to_json(model), indent=2) + "\n"


def load_model(text: str) -> GdpModel:
    """A malformed file raises ValueError naming the items and the field
    at fault: "model: disjunction 0: disjunct 1: missing field 'guard'"."""
    return _read("model", None, model_from_json, json.loads(text))
