"""Spans around the calls between gdpkit's modules, recorded from outside.

Tracer.install() swaps the module attributes that gdpkit.bnb,
gdpkit.approx and gdpkit.transforms look up at call time for wrappers
that record a span (name, start, end, parent) and a few counts taken
from the returned values. The benchmark opens the top-level spans
itself around the four pipeline calls. Spans stay in memory until the
run writes them out; per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import gdpkit.approx
import gdpkit.bnb
import gdpkit.transforms


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _lp_counts(lp) -> dict:
    rows, cols = lp.A.shape
    return {"rows": rows, "cols": cols, "nonzeros": int(np.count_nonzero(lp.A))}


def _solution_counts(sol) -> dict:
    return {"pivots": sol.n_pivots, "status": sol.status}


def _feasibility_counts(result) -> dict:
    return {"accepted": bool(result[0])}


def _branch_counts(decision) -> dict:
    return {"kind": "none" if decision is None else decision[0]}


# (module, attribute, span name, counts from the returned value)
PATCHES = [
    (gdpkit.bnb, "build_lp_relaxation", "relax.build", _lp_counts),
    (gdpkit.bnb, "lp_solve", "lp.solve", _solution_counts),
    (gdpkit.bnb, "feasibility_check", "bnb.feas", _feasibility_counts),
    (gdpkit.bnb, "branch_select", "bnb.branch", _branch_counts),
    (gdpkit.approx, "model_to_json", "approx.to_json", None),
    (gdpkit.approx, "model_from_json", "approx.from_json", None),
    (gdpkit.transforms, "interval_eval", "transforms.interval_eval", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(out))
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap every patched attribute; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        try:
            for mod, attr, name, counts in PATCHES:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), counts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [{"name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, **s.counts} for s in self.spans]))


def layer_metrics(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index first on (one round).

    Self time of bnb is the solve_global span minus the spans it caused;
    with one worker they never overlap, so the layer times of a solve add
    up to its span exactly.
    """
    solve_ids = [k for k in range(first, len(spans))
                 if spans[k].name == "bnb.solve"]
    first_incumbent = sum(_first_incumbent_node(spans, k) for k in solve_ids)
    spans = spans[first:]
    total = {}
    count = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        count[s.name] = count.get(s.name, 0) + 1

    def secs(name):
        return total.get(name, 0.0)

    def calls(name):
        return count.get(name, 0)

    relax = [s.counts for s in spans if s.name == "relax.build"]
    lps = [s.counts for s in spans if s.name == "lp.solve"]
    feas = [s.counts for s in spans if s.name == "bnb.feas"]
    kinds = [s.counts["kind"] for s in spans if s.name == "bnb.branch"]
    solves = [s for s in spans if s.name == "bnb.solve"]

    pivots = sum(c["pivots"] for c in lps)
    statuses = [c["status"] for c in lps]
    optimal = statuses.count("optimal")
    infeasible = statuses.count("infeasible")
    children = sum(secs(n) for n in ("relax.build", "lp.solve", "bnb.feas",
                                     "bnb.branch"))
    cells = sum(c["rows"] * c["cols"] for c in relax)

    metrics = {
        "wtn.build_s": secs("wtn.build"),
        "approx.apply_s": secs("approx.apply"),
        "approx.clone_s": secs("approx.to_json") + secs("approx.from_json"),
        "approx.added_vars": sum(s.counts["added_vars"] for s in spans
                                 if s.name == "approx.apply"),
        "approx.added_binaries": sum(s.counts["added_binaries"] for s in spans
                                     if s.name == "approx.apply"),
        "transforms.bigm_s": secs("transforms.bigm"),
        "transforms.interval_evals": calls("transforms.interval_eval"),
        "transforms.rows": sum(s.counts["rows"] for s in spans
                               if s.name == "transforms.bigm"),
        "relax.build_s": secs("relax.build"),
        "relax.calls": len(relax),
        "relax.lp_rows": (sum(c["rows"] for c in relax) / len(relax)
                          if relax else 0.0),
        "relax.lp_cols": (sum(c["cols"] for c in relax) / len(relax)
                          if relax else 0.0),
        "relax.nonzero_frac": (sum(c["nonzeros"] for c in relax) / cells
                               if cells else 0.0),
        "lp.solve_s": secs("lp.solve"),
        "lp.calls": len(lps),
        "lp.pivots": pivots,
        "lp.pivots_per_call": pivots / len(lps) if lps else 0.0,
        "lp.us_per_pivot": 1e6 * secs("lp.solve") / pivots if pivots else 0.0,
        "lp.optimal": optimal,
        "lp.infeasible": infeasible,
        "lp.failed": len(lps) - optimal - infeasible,
        "lp.optimal_frac": optimal / len(lps) if lps else 0.0,
        "bnb.solve_s": secs("bnb.solve"),
        "bnb.self_s": secs("bnb.solve") - children,
        "bnb.nodes": sum(s.counts["nodes"] for s in solves),
        "bnb.feas_s": secs("bnb.feas"),
        "bnb.feas_calls": len(feas),
        "bnb.feas_accepted": sum(c["accepted"] for c in feas),
        "bnb.branch_s": secs("bnb.branch"),
        "bnb.branch_binary": kinds.count("binary"),
        "bnb.branch_spatial": kinds.count("spatial"),
        "bnb.branch_none": kinds.count("none"),
        "bnb.first_incumbent_node": first_incumbent,
    }
    return metrics


def _first_incumbent_node(spans: list[Span], solve: int) -> int:
    """Nodes solved when the solve first accepted a point (one LP per
    node with one worker); the node count when it never did."""
    nodes = 0
    for s in spans[solve + 1:]:
        if s.parent != solve:
            if s.start >= spans[solve].end:
                break
            continue
        if s.name == "lp.solve":
            nodes += 1
        elif s.name == "bnb.feas" and s.counts["accepted"]:
            return nodes
    return spans[solve].counts["nodes"]
