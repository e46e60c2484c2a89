"""Water treatment network design models.

Feeds carrying contaminants are routed through optional fixed-recovery
treatment units to a discharge point with per-contaminant mass limits.
Selecting a unit activates its mixer/splitter balances, minimum flow
and cost row (linear + fixed + concave power term); deselecting it
zeroes every stream touching the unit. The objective is the total
treatment cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Disjunct,
    Disjunction,
    Expression,
    GdpModel,
)

COST_EXPONENT = 0.7
DISCHARGE = "discharge"


@dataclass
class WtnUnit:
    alpha: dict[str, float]
    min_flow: float
    beta: float
    gamma: float
    theta: float


@dataclass
class WtnData:
    contaminants: list[str]
    feed_flow: dict[str, float]
    feed_conc: dict[str, dict[str, float]]
    units: dict[str, WtnUnit]
    limits: dict[str, float]
    self_recycle: bool = False

    @property
    def total_feed(self) -> float:
        return sum(self.feed_flow.values())

    def max_conc(self, j: str) -> float:
        return max(c[j] for c in self.feed_conc.values())


def parse_wtn_data(obj: dict) -> WtnData:
    """Validate a raw instance dict; raises ValueError naming the first
    offending field."""

    def section(value, where):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, "
                             f"got {type(value).__name__}")
        return value

    def need(mapping, key, where):
        if key not in mapping:
            raise ValueError(f"missing field {key!r} in {where}")
        return mapping[key]

    def number(value, where, upper=math.inf):
        # bool is an int subclass, but true is not a number in JSON
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where} must be a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} for {where}")
        if value < 0.0:
            raise ValueError(f"negative value {value} for {where}")
        if value > upper:
            raise ValueError(f"{where} = {value} outside [0, {upper:g}]")
        return value

    section(obj, "instance")
    contaminants = need(obj, "contaminants", "instance")
    if not (isinstance(contaminants, list)
            and all(isinstance(j, str) for j in contaminants)):
        raise ValueError(f"contaminants must be a list of names, "
                         f"got {contaminants!r}")
    if not contaminants:
        raise ValueError("instance declares no contaminants")

    feed_flow: dict[str, float] = {}
    feed_conc: dict[str, dict[str, float]] = {}
    for name, feed in section(need(obj, "feeds", "instance"), "feeds").items():
        where = f"feed {name!r}"
        section(feed, where)
        feed_flow[name] = number(need(feed, "flow", where), f"{where} flow")
        conc = section(need(feed, "conc", where), f"{where} conc")
        feed_conc[name] = {
            j: number(need(conc, j, f"{where} conc"), f"conc[{j},{name}]")
            for j in contaminants
        }

    units: dict[str, WtnUnit] = {}
    for name, unit in section(need(obj, "units", "instance"), "units").items():
        where = f"unit {name!r}"
        section(unit, where)
        alpha_map = section(need(unit, "alpha", where), f"{where} alpha")
        units[name] = WtnUnit(
            alpha={j: number(need(alpha_map, j, f"{where} alpha"),
                             f"alpha[{j},{name}]", upper=1.0)
                   for j in contaminants},
            min_flow=number(need(unit, "L", where), f"L[{name}]"),
            beta=number(need(unit, "beta", where), f"beta[{name}]"),
            gamma=number(need(unit, "gamma", where), f"gamma[{name}]"),
            theta=number(need(unit, "theta", where), f"theta[{name}]"),
        )
    if not units:
        raise ValueError("instance declares no treatment units")

    limits = section(need(obj, "limits", "instance"), "limits")
    limits = {j: number(need(limits, j, "limits"), f"limit[{j}]")
              for j in contaminants}
    options = section(obj.get("options", {}), "options")
    self_recycle = options.get("self_recycle", False)
    if not isinstance(self_recycle, bool):
        raise ValueError(f"options.self_recycle must be true or false, "
                         f"got {self_recycle!r}")
    return WtnData(contaminants, feed_flow, feed_conc, units, limits,
                   self_recycle=self_recycle)


def load_wtn_data(path) -> WtnData:
    return parse_wtn_data(json.loads(Path(path).read_text()))


def synthetic_instance() -> dict:
    """Shipped 2-feed / 2-contaminant / 2-unit instance.

    Both contaminants exceed their discharge budget untreated, the
    first unit is the only one that can meet the first limit, and the
    second limit leaves slack, so the optimum selects one unit and
    bypasses part of the cleaner feed."""
    return {
        "contaminants": ["A", "B"],
        "feeds": {
            "f1": {"flow": 20.0, "conc": {"A": 1.0, "B": 0.3}},
            "f2": {"flow": 15.0, "conc": {"A": 0.2, "B": 0.9}},
        },
        "units": {
            "u1": {"alpha": {"A": 0.95, "B": 0.5}, "L": 2.0,
                   "beta": 1.0, "gamma": 20.0, "theta": 4.0},
            "u2": {"alpha": {"A": 0.1, "B": 0.9}, "L": 2.0,
                   "beta": 1.2, "gamma": 15.0, "theta": 3.0},
        },
        "limits": {"A": 4.0, "B": 12.0},
        "options": {"self_recycle": False},
    }


@dataclass
class WtnStreams:
    """Arc lists plus the model ids of every stream/unit variable."""

    arcs: list[tuple[str, str]] = field(default_factory=list)
    flow: dict[tuple[str, str], int] = field(default_factory=dict)
    conc: dict[tuple[str, str, str], int] = field(default_factory=dict)
    unit_in_flow: dict[str, int] = field(default_factory=dict)
    unit_in_conc: dict[tuple[str, str], int] = field(default_factory=dict)
    unit_out_flow: dict[str, int] = field(default_factory=dict)
    unit_out_conc: dict[tuple[str, str], int] = field(default_factory=dict)
    cost: dict[str, int] = field(default_factory=dict)

    def into(self, node: str):
        return [a for a in self.arcs if a[1] == node]

    def out_of(self, node: str):
        return [a for a in self.arcs if a[0] == node]


def build_wtn_gdp(data: WtnData) -> GdpModel:
    """Assemble the design model for one instance.

    Topology: every feed reaches every unit and the discharge; every
    unit reaches every other unit (itself only with self_recycle) and
    the discharge. Concentrations on a feed's outgoing arcs are fixed
    at the feed's quality by their bounds; the others are bounded by
    the worst feed. Every flow, unit inflow included, is bounded by the
    total feed, so relaxation boxes stay finite. That bound excludes
    designs whose inter-unit recycle pushes a unit's inflow above the
    total feed (a generated 2-feed, 1-contaminant, 2-unit instance has
    a feasible design with Fin = 30.8 against a total feed of 19.84).
    """
    model = GdpModel(sense="min")
    streams = WtnStreams()
    ftot = data.total_feed
    cmax = {j: data.max_conc(j) for j in data.contaminants}
    cost_cap = {
        t: u.beta * ftot + u.gamma + u.theta * ftot**COST_EXPONENT
        for t, u in data.units.items()
    }

    for f in data.feed_flow:
        for dst in list(data.units) + [DISCHARGE]:
            streams.arcs.append((f, dst))
    for t in data.units:
        for dst in [u for u in data.units if u != t or data.self_recycle]:
            streams.arcs.append((t, dst))
        streams.arcs.append((t, DISCHARGE))

    for a in streams.arcs:
        streams.flow[a] = model.add_variable(f"F[{a[0]}->{a[1]}]", 0.0, ftot)
    for a in streams.arcs:
        for j in data.contaminants:
            # a feed's outgoing arcs carry the feed's quality
            feed = data.feed_conc.get(a[0])
            lo, hi = (feed[j], feed[j]) if feed else (0.0, cmax[j])
            streams.conc[(j, *a)] = model.add_variable(
                f"C[{j},{a[0]}->{a[1]}]", lo, hi)
    for t, unit in data.units.items():
        streams.unit_in_flow[t] = model.add_variable(f"Fin[{t}]", 0.0, ftot)
        streams.unit_out_flow[t] = model.add_variable(f"Fout[{t}]", 0.0, ftot)
        streams.cost[t] = model.add_variable(f"CTU[{t}]", 0.0, cost_cap[t])
        for j in data.contaminants:
            streams.unit_in_conc[(j, t)] = model.add_variable(
                f"Cin[{j},{t}]", 0.0, cmax[j])
            streams.unit_out_conc[(j, t)] = model.add_variable(
                f"Cout[{j},{t}]", 0.0, cmax[j])

    for t in data.units:
        model.objective.add_linear(1.0, streams.cost[t])

    # feed splitters: flows add up
    for f, flow in data.feed_flow.items():
        bal = Expression()
        for a in streams.out_of(f):
            bal.add_linear(1.0, streams.flow[a])
        model.add_global(Constraint(bal, SENSE_EQ, flow, f"feedbal[{f}]"))

    # discharge mass limits over every arc into the sink
    for j in data.contaminants:
        mass = Expression()
        for a in streams.into(DISCHARGE):
            mass.add_bilinear(1.0, streams.flow[a], streams.conc[(j, *a)])
        model.add_global(Constraint(mass, SENSE_LE, data.limits[j],
                                    f"limit[{j}]"))

    for t, unit in data.units.items():
        inlet = streams.into(t)
        outlet = streams.out_of(t)
        fin = streams.unit_in_flow[t]
        fout = streams.unit_out_flow[t]
        rows: list[Constraint] = []

        for j in data.contaminants:
            treat = Expression()
            treat.add_linear(1.0, streams.unit_out_conc[(j, t)])
            treat.add_linear(-(1.0 - unit.alpha[j]), streams.unit_in_conc[(j, t)])
            rows.append(Constraint(treat, SENSE_EQ, 0.0, f"treat[{j},{t}]"))

            mix = Expression()
            mix.add_bilinear(1.0, fin, streams.unit_in_conc[(j, t)])
            for a in inlet:
                mix.add_bilinear(-1.0, streams.flow[a], streams.conc[(j, *a)])
            rows.append(Constraint(mix, SENSE_EQ, 0.0, f"mixcomp[{j},{t}]"))

        mixflow = Expression().add_linear(1.0, fin)
        for a in inlet:
            mixflow.add_linear(-1.0, streams.flow[a])
        rows.append(Constraint(mixflow, SENSE_EQ, 0.0, f"mixflow[{t}]"))

        for a in outlet:
            for j in data.contaminants:
                eq = Expression()
                eq.add_linear(1.0, streams.conc[(j, *a)])
                eq.add_linear(-1.0, streams.unit_out_conc[(j, t)])
                rows.append(Constraint(eq, SENSE_EQ, 0.0,
                                       f"splitconc[{j},{a[0]}->{a[1]}]"))

        splitflow = Expression().add_linear(1.0, fout)
        for a in outlet:
            splitflow.add_linear(-1.0, streams.flow[a])
        rows.append(Constraint(splitflow, SENSE_EQ, 0.0, f"splitflow[{t}]"))

        through = Expression().add_linear(1.0, fin).add_linear(-1.0, fout)
        rows.append(Constraint(through, SENSE_EQ, 0.0, f"through[{t}]"))

        rows.append(Constraint(Expression().add_linear(1.0, fin),
                               SENSE_GE, unit.min_flow, f"minflow[{t}]"))

        cost = Expression()
        cost.add_linear(1.0, streams.cost[t])
        cost.add_linear(-unit.beta, fin)
        cost.add_power(-unit.theta, fin, COST_EXPONENT)
        rows.append(Constraint(cost, SENSE_EQ, unit.gamma, f"cost[{t}]"))

        zeroed = [fin, fout, streams.cost[t]]
        zeroed += [streams.flow[a] for a in inlet]
        zeroed += [streams.flow[a] for a in outlet]

        # the off alternative needs no rows: Y's fix list zeroes the unit
        model.add_disjunction(Disjunction(
            [Disjunct(f"Y[{t}]", rows, zeroed), Disjunct(f"N[{t}]")],
            label=f"unit[{t}]"))

    model.streams = streams
    return model


def relative_error(z_approx: float, z_ref: float) -> float:
    """Percent deviation of an approximate optimum from a reference."""
    if z_ref == 0.0:
        raise ValueError("relative error needs a nonzero reference objective")
    return 100.0 * abs(z_approx - z_ref) / abs(z_ref)


def check_solution(data: WtnData, streams: WtnStreams, point,
                   active: dict[str, bool]) -> dict:
    """Physical diagnostics of a solved network at a point.

    Returns per-contaminant mass-balance residuals (feed mass equals
    discharge mass plus mass removed in active units, relative), worst
    discharge-limit overshoot, worst inlet flow / cost left nonzero on
    an inactive unit, and the worst concentration spread across an
    active splitter's outlets.
    """
    mass_residual = {}
    for j in data.contaminants:
        fed = sum(data.feed_flow[f] * data.feed_conc[f][j] for f in data.feed_flow)
        discharged = sum(point[streams.flow[a]] * point[streams.conc[(j, *a)]]
                         for a in streams.into(DISCHARGE))
        removed = sum(
            data.units[t].alpha[j] * point[streams.unit_in_flow[t]]
            * point[streams.unit_in_conc[(j, t)]]
            for t in data.units if active[t])
        mass_residual[j] = abs(fed - discharged - removed) / max(1.0, abs(fed))

    limit_excess = max(
        (sum(point[streams.flow[a]] * point[streams.conc[(j, *a)]]
             for a in streams.into(DISCHARGE)) - data.limits[j])
        for j in data.contaminants)

    inactive_residual = 0.0
    for t in data.units:
        if active[t]:
            continue
        worst = max(point[streams.flow[a]] for a in streams.into(t))
        inactive_residual = max(inactive_residual, worst,
                                point[streams.cost[t]])

    split_spread = 0.0
    for t in data.units:
        if not active[t]:
            continue
        for j in data.contaminants:
            outs = [point[streams.conc[(j, *a)]] for a in streams.out_of(t)]
            split_spread = max(split_spread, max(outs) - min(outs))

    return {
        "mass_residual": mass_residual,
        "limit_excess": limit_excess,
        "inactive_residual": inactive_residual,
        "split_spread": split_spread,
    }
