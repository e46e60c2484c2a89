import numpy as np
import pytest

from gdpkit.approx import ApproxPolicy, apply_approximation
from gdpkit.bnb import solve_global
from gdpkit.transforms import bigm_transform
from gdpkit.wtn import (
    build_wtn_gdp,
    check_solution,
    load_wtn_data,
    parse_wtn_data,
    relative_error,
    synthetic_instance,
)


def minimal_instance():
    return {
        "contaminants": ["A"],
        "feeds": {"f1": {"flow": 10.0, "conc": {"A": 1.0}}},
        "units": {"u1": {"alpha": {"A": 0.9}, "L": 0.0,
                         "beta": 1.0, "gamma": 5.0, "theta": 2.0}},
        "limits": {"A": 2.0},
    }


def test_minimal_instance_loads():
    data = parse_wtn_data(minimal_instance())
    assert data.contaminants == ["A"]
    assert data.total_feed == 10.0
    assert data.units["u1"].alpha["A"] == 0.9


def test_load_from_file(tmp_path):
    import json
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(minimal_instance()))
    data = load_wtn_data(path)
    assert data.feed_flow == {"f1": 10.0}


def test_alpha_out_of_range_rejected():
    raw = minimal_instance()
    raw["units"]["u1"]["alpha"]["A"] = 1.2
    with pytest.raises(ValueError, match="alpha"):
        parse_wtn_data(raw)


def test_negative_value_rejected():
    raw = minimal_instance()
    raw["feeds"]["f1"]["flow"] = -1.0
    with pytest.raises(ValueError, match="negative"):
        parse_wtn_data(raw)


def test_missing_field_rejected():
    raw = minimal_instance()
    del raw["units"]["u1"]["theta"]
    with pytest.raises(ValueError, match="theta"):
        parse_wtn_data(raw)


def large_network():
    """A 5-feed / 4-contaminant / 4-unit instance."""
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


def test_five_feed_four_contaminant_four_unit_instance():
    data = parse_wtn_data(large_network())
    assert len(data.feed_flow) == 5
    assert len(data.contaminants) == 4
    assert len(data.units) == 4
    model = build_wtn_gdp(data)
    assert model.validate().ok
    assert len(model.disjunctions) == 4


def test_structure_single_unit():
    data = parse_wtn_data(minimal_instance())
    model = build_wtn_gdp(data)
    assert len(model.disjunctions) == 1
    assert len(model.disjunctions[0].disjuncts) == 2
    # feed -> unit, feed -> discharge, unit -> discharge
    assert len(model.streams.arcs) == 3
    assert model.validate().ok


def test_self_recycle_toggle_adds_arcs():
    raw = minimal_instance()
    base = build_wtn_gdp(parse_wtn_data(raw))
    raw["options"] = {"self_recycle": True}
    recycled = build_wtn_gdp(parse_wtn_data(raw))
    assert len(recycled.streams.arcs) == len(base.streams.arcs) + 1


def test_full_recovery_zeroes_outlet_concentration():
    raw = minimal_instance()
    raw["units"]["u1"]["alpha"]["A"] = 1.0
    raw["units"]["u1"]["L"] = 2.0
    data = parse_wtn_data(raw)
    model = build_wtn_gdp(data)
    approxed, _ = apply_approximation(model, ApproxPolicy(method="quad"))
    flat = bigm_transform(approxed)
    res = solve_global(flat, gap=1e-4, time_limit=300)
    assert res.status == "optimal"
    streams = model.streams
    y_on = res.x[flat.binary_of_guard["Y[u1]"]]
    assert y_on == pytest.approx(1.0, abs=1e-6)  # limit forces treatment
    assert res.x[streams.unit_out_conc[("A", "u1")]] == pytest.approx(0.0,
                                                                      abs=1e-6)
    assert res.x[streams.unit_in_flow["u1"]] >= 2.0 - 1e-6


def test_relative_error_reference_values():
    assert round(relative_error(349556, 348337), 2) == 0.35
    assert round(relative_error(348337, 348337), 2) == 0.00
    assert round(relative_error(1.043, 1.013), 4) == 2.9615


def test_relative_error_zero_reference():
    with pytest.raises(ValueError):
        relative_error(1.0, 0.0)


def test_synthetic_instance_shape():
    data = parse_wtn_data(synthetic_instance())
    assert len(data.feed_flow) == 2
    assert len(data.contaminants) == 2
    assert len(data.units) == 2
    model = build_wtn_gdp(data)
    assert model.validate().ok
    # untreated discharge busts both limits, so doing nothing is not an option
    for j in data.contaminants:
        raw_mass = sum(data.feed_flow[f] * data.feed_conc[f][j]
                       for f in data.feed_flow)
        assert raw_mass > data.limits[j]


def test_check_solution_flags_phantom_flow():
    data = parse_wtn_data(synthetic_instance())
    model = build_wtn_gdp(data)
    streams = model.streams
    point = np.zeros(len(model.variables))
    # all feeds dumped straight to discharge at feed quality
    for f in data.feed_flow:
        arc = (f, "discharge")
        point[streams.flow[arc]] = data.feed_flow[f]
        for j in data.contaminants:
            point[streams.conc[(j, *arc)]] = data.feed_conc[f][j]
    report = check_solution(data, streams, point,
                            active={"u1": False, "u2": False})
    assert max(report["mass_residual"].values()) <= 1e-9
    assert report["limit_excess"] > 0  # raw discharge violates the limits
    # now inject flow out of an idle unit: the inactive check must fire
    point[streams.flow[("u1", "discharge")]] = 3.0
    point[streams.flow[("f1", "u1")]] = 3.0
    report = check_solution(data, streams, point,
                            active={"u1": False, "u2": False})
    assert report["inactive_residual"] >= 3.0


def test_bounds_are_stated_once():
    data = parse_wtn_data(synthetic_instance())
    model = build_wtn_gdp(data)
    streams = model.streams
    # feed qualities are bounds of the feed-arc concentrations, not rows
    for f, conc in data.feed_conc.items():
        for a in streams.out_of(f):
            for j in data.contaminants:
                var = model.variables[streams.conc[(j, *a)]]
                assert var.lower == var.upper == conc[j]
    assert not [c for c in model.globals if c.label.startswith("feedconc[")]
    # the off alternative is empty: Y[t]'s fix list already zeroes the unit
    for dj in model.disjunctions:
        off = dj.disjuncts[1]
        assert off.guard.startswith("N[")
        assert off.constraints == [] and off.fix_to_zero == []
    # every fixed variable has lower bound 0, so only its :ub row is written
    flat = bigm_transform(model)
    assert len(flat.constraints) == 72
    assert not [c for c in flat.constraints if c.label.endswith(":lb")
                and c.label.startswith("fix[")]


@pytest.mark.parametrize("method, segments, objective", [
    ("quad", 101, 90.56532),
    ("pwl", 21, 90.37302),
])
def test_shipped_network_optimum(method, segments, objective):
    model = build_wtn_gdp(parse_wtn_data(synthetic_instance()))
    approxed, _ = apply_approximation(
        model, ApproxPolicy(method=method, n_segments=segments))
    res = solve_global(bigm_transform(approxed), gap=1e-4, time_limit=300)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(objective, rel=1e-4)
