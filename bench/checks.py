"""Correctness checks computed apart from the program.

Every function here reads only the instance dict, the values the
program reported and, for the root-bound check, the LP the program
built. Nothing calls gdpkit's own diagnostics (wtn.check_solution,
bnb.feasibility_check). Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-6
COST_EXPONENT = 0.7
QUAD_SAMPLES = 1000  # ApproxPolicy's default sample count
LOCAL_STARTS = 2  # SLSQP starts per on/off unit choice
DISCHARGE = "discharge"


def _close(residual: float, *terms: float) -> bool:
    """|residual| within TOL relative to the magnitude of its terms."""
    scale = max(1.0, sum(abs(t) for t in terms))
    return abs(residual) <= TOL * scale


class Network:
    """Topology and data of an instance, derived from the raw dict."""

    def __init__(self, inst: dict):
        self.contaminants = list(inst["contaminants"])
        self.feeds = inst["feeds"]
        self.units = inst["units"]
        self.limits = inst["limits"]
        recycle = bool(inst.get("options", {}).get("self_recycle", False))
        self.total_feed = sum(f["flow"] for f in self.feeds.values())
        self.arcs = [(f, d) for f in self.feeds
                     for d in list(self.units) + [DISCHARGE]]
        self.arcs += [(t, d) for t in self.units
                      for d in [u for u in self.units if u != t or recycle]
                      + [DISCHARGE]]

    def into(self, node):
        return [a for a in self.arcs if a[1] == node]

    def out_of(self, node):
        return [a for a in self.arcs if a[0] == node]

    def unit_cost(self, t: str, fin: float, g=None) -> float:
        """beta*F + gamma + theta*g(F); g defaults to the exact F**0.7."""
        u = self.units[t]
        value = fin ** COST_EXPONENT if g is None else g(fin)
        return u["beta"] * fin + u["gamma"] + u["theta"] * value


# -- designs solved to the gap ------------------------------------------


def design_values(variables, x) -> dict[str, float]:
    """Map variable names of the solved model to reported values."""
    return {v.name: float(x[v.id]) for v in variables}


def check_physics(net: Network, values: dict[str, float]) -> list[str]:
    """Balances, limits and on/off logic of a design, at TOL relative to
    the magnitude of each balance's terms."""
    problems: list[str] = []

    def val(name):
        if name not in values:
            raise KeyError(f"design has no value for {name}")
        return values[name]

    def flow(a):
        return val(f"F[{a[0]}->{a[1]}]")

    def conc(j, a):
        return val(f"C[{j},{a[0]}->{a[1]}]")

    try:
        active = {}
        for t in net.units:
            y = val(f"y[Y[{t}]]")
            if abs(y - round(y)) > TOL:
                problems.append(f"unit {t} indicator {y} is not integral")
            active[t] = y > 0.5

        for f, feed in net.feeds.items():
            out = [flow(a) for a in net.out_of(f)]
            if not _close(sum(out) - feed["flow"], feed["flow"], *out):
                problems.append(f"feed {f} balance off by {sum(out) - feed['flow']:.3g}")
            for a in net.out_of(f):
                for j in net.contaminants:
                    if flow(a) > TOL and not _close(conc(j, a) - feed["conc"][j],
                                                    feed["conc"][j]):
                        problems.append(f"arc {a} carries {j} at {conc(j, a)}, "
                                        f"feed has {feed['conc'][j]}")

        removed = {j: 0.0 for j in net.contaminants}
        for t, unit in net.units.items():
            inlet, outlet = net.into(t), net.out_of(t)
            fin, fout = val(f"Fin[{t}]"), val(f"Fout[{t}]")
            if not active[t]:
                worst = max([abs(flow(a)) for a in inlet + outlet]
                            + [abs(fin), abs(fout), abs(val(f"CTU[{t}]"))])
                if worst > TOL:
                    problems.append(f"inactive unit {t} carries {worst:.3g}")
                continue
            ins = [flow(a) for a in inlet]
            outs = [flow(a) for a in outlet]
            if not _close(fin - sum(ins), fin, *ins):
                problems.append(f"unit {t} mixer flow off by {fin - sum(ins):.3g}")
            if not _close(fout - sum(outs), fout, *outs):
                problems.append(f"unit {t} splitter flow off by {fout - sum(outs):.3g}")
            if not _close(fin - fout, fin, fout):
                problems.append(f"unit {t} loses flow {fin - fout:.3g}")
            if fin < unit["L"] - TOL * max(1.0, unit["L"]):
                problems.append(f"unit {t} runs at {fin:.6g} below its minimum "
                                f"{unit['L']}")
            for j in net.contaminants:
                cin, cout = val(f"Cin[{j},{t}]"), val(f"Cout[{j},{t}]")
                masses = [flow(a) * conc(j, a) for a in inlet]
                if not _close(fin * cin - sum(masses), fin * cin, *masses):
                    problems.append(f"unit {t} mixer mass of {j} off by "
                                    f"{fin * cin - sum(masses):.3g}")
                want = (1.0 - unit["alpha"][j]) * cin
                if not _close(cout - want, cout, want):
                    problems.append(f"unit {t} outlet {j} is {cout}, recovery "
                                    f"gives {want}")
                for a in outlet:
                    if flow(a) > TOL and not _close(conc(j, a) - cout, cout):
                        problems.append(f"arc {a} carries {j} at {conc(j, a)}, "
                                        f"unit outlet is {cout}")
                removed[j] += unit["alpha"][j] * fin * cin

        for j in net.contaminants:
            discharged = [flow(a) * conc(j, a) for a in net.into(DISCHARGE)]
            if sum(discharged) > net.limits[j] + TOL * max(1.0, net.limits[j]):
                problems.append(f"discharge of {j} is {sum(discharged):.6g} over "
                                f"its limit {net.limits[j]}")
            fed = [f["flow"] * f["conc"][j] for f in net.feeds.values()]
            resid = sum(fed) - sum(discharged) - removed[j]
            if not _close(resid, *fed, *discharged, removed[j]):
                problems.append(f"mass of {j} not conserved: off by {resid:.3g}")
    except KeyError as err:
        problems.append(str(err))
    return problems


def check_cost(net: Network, values: dict[str, float], objective: float,
               term_errors: dict[str, float]) -> list[str]:
    """The exact cost of the design lies within the certified error
    budget, sum of theta * max_abs_error over active units, of the
    reported objective. term_errors maps a unit to the max_abs_error
    certified for its F**0.7 term."""
    exact = 0.0
    budget = 0.0
    for t, unit in net.units.items():
        if values.get(f"y[Y[{t}]]", 0.0) > 0.5:
            exact += net.unit_cost(t, values[f"Fin[{t}]"])
            budget += unit["theta"] * term_errors[t]
    if abs(exact - objective) > budget + TOL * max(1.0, abs(objective)):
        return [f"exact cost {exact:.8g} is {abs(exact - objective):.3g} from "
                f"the objective {objective:.8g}, over the budget {budget:.3g}"]
    return []


def check_gap(objective, bound, gap: float) -> list[str]:
    """Bound at most the objective and relative gap within the target."""
    if objective is None:
        return ["no objective reported"]
    problems = []
    if bound > objective + 1e-9 * max(1.0, abs(objective)):
        problems.append(f"bound {bound!r} above objective {objective!r}")
    rel = abs(objective - bound) / max(1e-10, abs(objective))
    if rel > gap * (1.0 + 1e-9):
        problems.append(f"relative gap {rel:.3g} over {gap:g}")
    return problems


def approx_function(method: str, segments: int, upper: float):
    """The reformulated F**0.7 on [0, upper], computed here from the
    method's definition: a least-squares quadratic through QUAD_SAMPLES
    uniform samples, or interpolation on segments uniform intervals."""
    if method == "quad":
        xs = np.linspace(0.0, upper, QUAD_SAMPLES)
        a, b, c = np.polyfit(xs, xs ** COST_EXPONENT, 2)
        return lambda f: a * f * f + b * f + c
    xs = np.linspace(0.0, upper, segments + 1)
    ys = xs ** COST_EXPONENT
    return lambda f: float(np.interp(f, xs, ys))


class _Choice:
    """Continuous design space for one on/off choice: the arc flows
    among active units; concentrations follow from the mass balances."""

    def __init__(self, net: Network, active: tuple[str, ...]):
        self.net = net
        self.active = active
        keep = set(net.feeds) | set(active) | {DISCHARGE}
        self.arcs = [a for a in net.arcs if a[0] in keep and a[1] in keep]
        self.col = {a: k for k, a in enumerate(self.arcs)}

    def fin(self, x, t):
        return sum(x[self.col[a]] for a in self.arcs if a[1] == t)

    def inlet_conc(self, x) -> np.ndarray:
        """Cin[t, j] from the linear mixer balances of the active units."""
        net, units = self.net, self.active
        n = len(units)
        cin = np.zeros((n, len(net.contaminants)))
        for k, j in enumerate(net.contaminants):
            mat = np.zeros((n, n))
            rhs = np.zeros(n)
            for r, t in enumerate(units):
                mat[r, r] += self.fin(x, t) + 1e-12
                for (src, dst), col in self.col.items():
                    if dst != t:
                        continue
                    if src in net.feeds:
                        rhs[r] += x[col] * net.feeds[src]["conc"][j]
                    else:
                        s = units.index(src)
                        mat[r, s] -= x[col] * (1.0 - net.units[src]["alpha"][j])
            cin[:, k] = np.linalg.solve(mat, rhs)
        return cin

    def discharge(self, x, cin) -> np.ndarray:
        net = self.net
        mass = np.zeros(len(net.contaminants))
        for (src, dst), col in self.col.items():
            if dst != DISCHARGE:
                continue
            for k, j in enumerate(net.contaminants):
                if src in net.feeds:
                    mass[k] += x[col] * net.feeds[src]["conc"][j]
                else:
                    s = self.active.index(src)
                    mass[k] += x[col] * (1.0 - net.units[src]["alpha"][j]) * cin[s, k]
        return mass

    def equalities(self, x) -> np.ndarray:
        net = self.net
        out = [sum(x[self.col[a]] for a in self.arcs if a[0] == f) - feed["flow"]
               for f, feed in net.feeds.items()]
        out += [self.fin(x, t) - sum(x[self.col[a]] for a in self.arcs if a[0] == t)
                for t in self.active]
        return np.array(out)

    def inequalities(self, x) -> np.ndarray:
        net = self.net
        mins = [self.fin(x, t) - net.units[t]["L"] for t in self.active]
        limits = [net.limits[j] for j in net.contaminants]
        mass = self.discharge(x, self.inlet_conc(x)) if self.active else \
            self.discharge(x, np.zeros((0, len(net.contaminants))))
        return np.concatenate([mins, np.array(limits) - mass])

    def cost(self, x, g) -> float:
        return sum(self.net.unit_cost(t, self.fin(x, t), g) for t in self.active)

    def feasible(self, x) -> bool:
        scale = max(1.0, self.net.total_feed)
        return (np.all(np.abs(self.equalities(x)) <= TOL * scale)
                and np.all(self.inequalities(x) >= -TOL * scale)
                and np.all(x >= -TOL))

    def start(self, rng: np.random.Generator) -> np.ndarray:
        """Feeds split at random; units pass on a random share of their
        inflow to other active units and the rest to the discharge."""
        x = np.zeros(len(self.arcs))
        for f, feed in self.net.feeds.items():
            cols = [self.col[a] for a in self.arcs if a[0] == f]
            x[cols] = feed["flow"] * rng.dirichlet(np.ones(len(cols)))
        for t in self.active:
            cols = [self.col[a] for a in self.arcs if a[0] == t]
            x[cols] = self.fin(x, t) * rng.dirichlet(np.ones(len(cols)))
        return x


def local_search(net: Network, g, rng: np.random.Generator
                 ) -> list[tuple[float, tuple[str, ...]]]:
    """LOCAL_STARTS seeded SLSQP starts on every on/off unit choice.
    Returns the cost and active units of each feasible local optimum."""
    from scipy.optimize import minimize  # loaded after peak memory is read

    found = []
    units = list(net.units)
    for k in range(len(units) + 1):
        for active in itertools.combinations(units, k):
            choice = _Choice(net, active)
            if not active:
                # nothing to choose: every feed goes to the discharge
                x = np.array([net.feeds[a[0]]["flow"] for a in choice.arcs])
                if choice.feasible(x):
                    found.append((0.0, active))
                continue
            bounds = [(0.0, net.total_feed)] * len(choice.arcs)
            for _ in range(LOCAL_STARTS):
                res = minimize(
                    lambda x: choice.cost(x, g), choice.start(rng),
                    method="SLSQP", bounds=bounds,
                    constraints=[{"type": "eq", "fun": choice.equalities},
                                 {"type": "ineq", "fun": choice.inequalities}],
                    options={"maxiter": 200, "ftol": 1e-10})
                x = np.clip(res.x, 0.0, net.total_feed)
                if choice.feasible(x):
                    found.append((choice.cost(x, g), active))
    return found


def check_local_search(net: Network, g, objective: float, gap: float,
                       rng: np.random.Generator) -> list[str]:
    """No local optimum of the reformulated model undercuts the reported
    objective by more than the gap."""
    floor = objective - gap * abs(objective) - TOL * max(1.0, abs(objective))
    return [f"local search found cost {cost:.8g} with units {list(active)}, "
            f"below the objective {objective:.8g}"
            for cost, active in local_search(net, g, rng)
            if cost < floor]


# -- bounds at a node cap ---------------------------------------------


def highs_value(lp) -> tuple[str, float | None]:
    """Optimal value of a gdpkit LinearProgram by scipy's HiGHS."""
    from scipy import sparse  # loaded after peak memory is read
    from scipy.optimize import linprog

    A = sparse.csr_matrix(lp.A)
    senses = np.array(lp.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A_ub = sparse.vstack([A[le], -A[ge]]).tocsr()
    b_ub = np.concatenate([lp.b[le], -lp.b[ge]])
    res = linprog(lp.c, A_ub=A_ub if A_ub.shape[0] else None,
                  b_ub=b_ub if A_ub.shape[0] else None,
                  A_eq=A[eq] if eq.any() else None,
                  b_eq=lp.b[eq] if eq.any() else None,
                  bounds=np.column_stack([lp.lo, lp.hi]), method="highs")
    if res.status != 0:
        return res.message, None
    return "optimal", float(res.fun) + lp.obj_const


def check_root_value(lp_status: str, lp_value, highs_status: str,
                     highs) -> list[str]:
    """The program's root LP is solved and agrees with HiGHS."""
    if lp_status != "optimal":
        return [f"root LP status {lp_status}"]
    if highs is None:
        return [f"HiGHS failed on the root LP: {highs_status}"]
    if abs(lp_value - highs) > TOL * max(1.0, abs(highs)):
        return [f"root LP value {lp_value!r} differs from HiGHS {highs!r}"]
    return []


def check_capped_bound(bound: float, root: float) -> list[str]:
    """Branching never loses bound: the capped bound is at least the root."""
    if not math.isfinite(bound) or bound < root - TOL * max(1.0, abs(root)):
        return [f"bound {bound!r} after the node cap is below the root "
                f"relaxation {root!r}"]
    return []
