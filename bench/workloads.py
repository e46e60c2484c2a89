"""Seeded network instances and the operations each workload runs.

An operation is one pass of an instance through the public pipeline:
build, reformulate, flatten and solve. A design operation solves to the
1e-4 gap and its design is checked; a bound operation stops at a node
cap and its bound is checked against the root relaxation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

GAP = 1e-4


@dataclass(frozen=True)
class Operation:
    name: str
    instance: dict
    method: str  # "quad" or "pwl"
    segments: int  # pwl segments; unused under quad
    node_limit: int | None  # None: solve to the gap

    @property
    def kind(self) -> str:
        return "design" if self.node_limit is None else "bound"


def generate_network(seed: int, n_feeds: int, n_contaminants: int,
                     n_units: int) -> dict:
    """Random feeds and units; each discharge limit is 30-70 % of the
    untreated mass of its contaminant, so some treatment is needed."""
    rng = np.random.default_rng(seed)
    contaminants = [chr(ord("A") + k) for k in range(n_contaminants)]
    feeds = {
        f"f{i}": {"flow": float(rng.uniform(5, 20)),
                  "conc": {j: float(rng.uniform(0.1, 1.0))
                           for j in contaminants}}
        for i in range(n_feeds)
    }
    units = {
        f"u{i}": {"alpha": {j: float(rng.uniform(0.2, 0.99))
                            for j in contaminants},
                  "L": float(rng.uniform(1, 3)),
                  "beta": float(rng.uniform(0.5, 1.5)),
                  "gamma": float(rng.uniform(5, 20)),
                  "theta": float(rng.uniform(2, 5))}
        for i in range(n_units)
    }
    raw = {j: sum(f["flow"] * f["conc"][j] for f in feeds.values())
           for j in contaminants}
    limits = {j: float(raw[j] * rng.uniform(0.3, 0.7)) for j in contaminants}
    return {"contaminants": contaminants, "feeds": feeds, "units": units,
            "limits": limits, "options": {"self_recycle": False}}


def large_network() -> dict:
    """The 5-feed / 4-contaminant / 4-unit network of tests/test_wtn.py."""
    rng = np.random.default_rng(4)
    contaminants = ["A", "B", "C", "D"]
    return {
        "contaminants": contaminants,
        "feeds": {
            f"f{i}": {"flow": float(rng.uniform(5, 20)),
                      "conc": {j: float(rng.uniform(0.1, 1.0))
                               for j in contaminants}}
            for i in range(5)
        },
        "units": {
            f"u{i}": {"alpha": {j: float(rng.uniform(0.2, 0.99))
                                for j in contaminants},
                      "L": 1.0, "beta": 1.0, "gamma": 10.0, "theta": 3.0}
            for i in range(4)
        },
        "limits": {j: 10.0 for j in contaminants},
    }


# (instance seed, feeds, contaminants, units) of each workload's networks
WTN_QUAD = [(0, 2, 1, 2), (12, 2, 1, 2)]
WTN_PWL = [(18, 2, 1, 2)]
PWL_SEGMENTS = 21
LARGE_SEGMENTS = 101
LARGE_NODE_LIMIT = 2

WORKLOADS = ("wtn-quad", "wtn-pwl", "large-root")


def operations(workload: str) -> list[Operation]:
    """The operations of one round of a workload, in a fixed order."""
    if workload == "wtn-quad":
        return [Operation(f"net{s}-{f}x{c}x{u}-quad",
                          generate_network(s, f, c, u), "quad", 0, None)
                for s, f, c, u in WTN_QUAD]
    if workload == "wtn-pwl":
        return [Operation(f"net{s}-{f}x{c}x{u}-pwl{PWL_SEGMENTS}",
                          generate_network(s, f, c, u), "pwl", PWL_SEGMENTS,
                          None)
                for s, f, c, u in WTN_PWL]
    if workload == "large-root":
        big = large_network()
        return [Operation("large-5x4x4-quad", big, "quad", 0,
                          LARGE_NODE_LIMIT),
                Operation(f"large-5x4x4-pwl{LARGE_SEGMENTS}", big, "pwl",
                          LARGE_SEGMENTS, LARGE_NODE_LIMIT)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")


def round_order(ops: list[Operation], rng: random.Random) -> list[Operation]:
    """One round: every operation once, in an order drawn from the seed."""
    order = list(ops)
    rng.shuffle(order)
    return order
