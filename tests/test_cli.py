import json
import math
from pathlib import Path

import pytest

import gdpkit.cli as cli
from gdpkit.cli import build_parser, main, run_pipeline
from gdpkit.model import (Constraint, Disjunct, Disjunction, Expression,
                          GdpModel, load_model, model_to_json,
                          save_model)

import test_wtn

REPO = Path(__file__).resolve().parent.parent
INSTANCE = REPO / "instances" / "wtn_small.json"


def run(argv):
    return run_pipeline(build_parser().parse_args(argv))


def bilinear_model_file(tmp_path) -> Path:
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    y = m.add_variable("y", 0.0, 1.0)
    m.objective.add_bilinear(-1.0, x, y)
    m.add_global(Constraint(
        Expression().add_linear(1.0, x).add_linear(1.0, y), "<=", 1.0, "cap"))
    path = tmp_path / "model.json"
    path.write_text(save_model(m))
    return path


def test_model_pipeline_without_approximation(tmp_path):
    model = bilinear_model_file(tmp_path)
    out = tmp_path / "report.json"
    code = run(["--model", str(model), "--approx", "none", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["status"] == "optimal"
    assert report["result"]["objective"] == pytest.approx(-0.25, rel=1e-3)
    assert report["result"]["parked"] == 0
    assert report["sizes"]["original"] == report["sizes"]["solved"]
    assert report["approximation"] == []


def test_model_without_variables_reports_its_constant(tmp_path):
    m = GdpModel()
    m.objective = Expression(2.5)
    path = tmp_path / "model.json"
    path.write_text(save_model(m))
    out = tmp_path / "report.json"
    assert run(["--model", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["status"] == "optimal"
    assert result["objective"] == 2.5
    assert result["incumbent"] == {}


def test_reference_produces_relative_error(tmp_path):
    model = bilinear_model_file(tmp_path)
    out = tmp_path / "report.json"
    code = run(["--model", str(model), "--approx", "none",
                "--reference", "-0.25", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["relative_error_pct"] == pytest.approx(0.0, abs=0.05)


def test_wtn_solves_its_power_terms_without_approximation(tmp_path):
    # pow terms are relaxed by their own envelopes, and the incumbent
    # passes the exact 1e-6 check on the original rows
    out = tmp_path / "report.json"
    code = run(["--wtn", str(INSTANCE), "--approx", "none",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["sizes"]["original"] == report["sizes"]["solved"]
    assert report["approximation"] == []
    result = report["result"]
    assert result["status"] == "optimal"
    assert result["objective"] == pytest.approx(90.374830, rel=1e-4)
    assert result["original_violation"] <= 1e-6


def test_pwl_report_states_its_exact_row_violation(tmp_path):
    # a table interpolates the concave power from below, so the pwl-21
    # optimum is at most the exact one (within the gap) and its design
    # misses the exact cost rows by the table's error there
    out = tmp_path / "report.json"
    assert run(["--wtn", str(INSTANCE), "--approx", "pwl", "--segments", "21",
                "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["objective"] <= 90.374830 * (1 + 1e-4)
    assert result["original_violation"] == pytest.approx(1.81e-3, rel=0.01)


def test_term_on_a_fixed_variable_solves_under_every_policy(tmp_path):
    # quad and pwl make the term its value; none relaxes it exactly
    m = GdpModel()
    x = m.add_variable("x", 2.0, 2.0)
    m.objective.add_power(-1.0, x, 0.7)
    model = tmp_path / "model.json"
    model.write_text(save_model(m))
    objectives = {}
    for approx in ("none", "quad", "pwl"):
        out = tmp_path / f"{approx}.json"
        assert run(["--model", str(model), "--approx", approx,
                    "--out", str(out)]) == 0
        objectives[approx] = json.loads(out.read_text())["result"]["objective"]
    assert objectives["none"] == pytest.approx(-(2.0**0.7), abs=1e-9)
    for approx in ("quad", "pwl"):
        assert objectives[approx] == pytest.approx(objectives["none"],
                                                   abs=1e-9)


def _no_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "solve_global", lambda *a, **k: solves.append(a))
    return solves


def test_unwritable_report_is_usage_error(tmp_path, capsys, monkeypatch):
    # the path is checked before the solve, and nothing is created
    solves = _no_solve(monkeypatch)
    out = tmp_path / "missing" / "report.json"
    assert run(["--model", str(bilinear_model_file(tmp_path)),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"gdpkit: error: cannot write {str(out)!r}: No such file or directory")
    assert not out.parent.exists()
    assert solves == []


@pytest.mark.parametrize("where, reason", [
    ("dir", "Is a directory"), ("under_file", "Not a directory")])
def test_report_path_a_write_would_reject_fails_before_the_solve(
        tmp_path, capsys, monkeypatch, where, reason):
    solves = _no_solve(monkeypatch)
    model = bilinear_model_file(tmp_path)
    out = tmp_path if where == "dir" else model / "report.json"
    assert run(["--model", str(model), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"gdpkit: error: cannot write {str(out)!r}: {reason}")
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [model.name]


def test_invalid_model_is_usage_error(tmp_path, capsys):
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    m.add_variable("upside_down", 2.0, 1.0)
    m.objective.add_linear(1.0, x)
    path = tmp_path / "model.json"
    path.write_text(save_model(m))
    assert run(["--model", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gdpkit: error:")
    assert "'upside_down'" in err[0]


def test_missing_file_is_usage_error(tmp_path):
    assert run(["--model", str(tmp_path / "nope.json")]) == 1


def test_directory_input_is_usage_error(tmp_path, capsys):
    for flag in ("--model", "--wtn"):
        assert run([flag, str(tmp_path), "--approx", "quad"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gdpkit: error: cannot read")


def _unit(**changes):
    # a valid unit 'u' with some fields replaced
    unit = {"alpha": {"A": 0.5}, "L": 0.0, "beta": 1.0, "gamma": 1.0,
            "theta": 1.0}
    unit.update(changes)
    return {"u": unit}


def _instance(**changes):
    # a valid instance with one section replaced
    obj = {"contaminants": ["A"],
           "feeds": {"f": {"flow": 1.0, "conc": {"A": 1.0}}},
           "units": _unit(),
           "limits": {"A": 1.0}}
    obj.update(changes)
    return obj


@pytest.mark.parametrize("flag, content, field", [
    ("--wtn", _instance(units={}), "units"),
    ("--wtn", _instance(feeds=[1, 2]), "feeds"),
    ("--wtn", _instance(feeds={"f": 5}), "feed 'f'"),
    ("--wtn", _instance(options=[]), "options"),
    ("--wtn", [1, 2], "instance"),
    ("--model", [1, 2], "model"),
    ("--wtn", _instance(contaminants="A"), "contaminants"),
    ("--wtn", _instance(contaminants=5), "contaminants"),
    ("--wtn", _instance(feeds={"f": {"flow": "x", "conc": {"A": 1.0}}}),
     "feed 'f' flow"),
    ("--wtn", _instance(limits={"A": None}), "limit[A]"),
    ("--wtn", _instance(feeds={"f": {"flow": math.nan, "conc": {"A": 1.0}}}),
     "feed 'f' flow"),
    ("--wtn", _instance(units=_unit(beta=math.inf)), "beta[u]"),
    ("--wtn", _instance(options={"self_recycle": "false"}),
     "options.self_recycle"),
    ("--wtn", _instance(options={"self_recycle": 1}), "options.self_recycle"),
], ids=["no-units", "feeds-list", "feed-number", "options-list",
        "instance-list", "model-list", "contaminants-string",
        "contaminants-number", "flow-string", "limit-null", "flow-nan",
        "beta-inf", "recycle-string", "recycle-number"])
def test_invalid_instance_is_usage_error(tmp_path, capsys, flag, content,
                                         field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run([flag, str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gdpkit: error:")
    if field is not None:
        assert field in err[0]


def _model(edit):
    # a valid model file's JSON with one disjunction, then edited in place
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    y = m.add_variable("y", 0.0, 1.0)
    m.objective.add_bilinear(-1.0, x, y)
    m.add_disjunction(Disjunction([Disjunct("Y", [], [x]), Disjunct("N")]))
    obj = model_to_json(m)
    edit(obj)
    return obj


def _terms(obj):
    return obj["objective"]["terms"]


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.pop("sense"), "model: missing field 'sense'"),
    (lambda m: m["variables"][0].pop("name"),
     "variable 0: missing field 'name'"),
    (lambda m: m["variables"].append(5), "variable 2: must be an object"),
    (lambda m: _terms(m)[0].pop("coef"),
     "objective: term 0: missing field 'coef'"),
    (lambda m: _terms(m)[0].update(coef="x"),
     "objective: term 0: could not convert string to float: 'x'"),
    (lambda m: _terms(m)[0].update(vars=[0]),
     "objective: term 0: vars must hold two ids"),
    (lambda m: _terms(m).append([]), "objective: term 1: must be an object"),
    (lambda m: m["disjunctions"][0]["disjuncts"][0].pop("guard"),
     "disjunction 0: disjunct 0: missing field 'guard'"),
    (lambda m: m["disjunctions"][0]["disjuncts"].append(3),
     "disjunction 0: disjunct 2: must be an object"),
], ids=["no-sense", "variable-no-name", "variable-number", "term-no-coef",
        "coef-string", "bil-one-var", "term-list", "disjunct-no-guard",
        "disjunct-number"])
def test_malformed_model_names_field(tmp_path, capsys, edit, field):
    load_model(json.dumps(_model(lambda m: None)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_model(edit)))
    assert run(["--model", str(bad), "--approx", "none"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gdpkit: error:")
    assert field in err[0]


def infeasible_model_file(tmp_path) -> Path:
    m = GdpModel()
    x = m.add_variable("x", 0.0, 1.0)
    m.objective.add_linear(1.0, x)
    m.add_global(Constraint(Expression().add_linear(1.0, x), ">=", 2.0, "hi"))
    path = tmp_path / "bad_model.json"
    path.write_text(save_model(m))
    return path


def test_infeasible_model_exit_code(tmp_path):
    path = infeasible_model_file(tmp_path)
    assert run(["--model", str(path), "--approx", "none"]) == 2


def test_infeasible_report_is_strict_json(tmp_path):
    # the infinite bound of an infeasible model is written as null, not
    # as the Infinity token that strict JSON parsers reject
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = tmp_path / "report.json"
    path = infeasible_model_file(tmp_path)
    assert run(["--model", str(path), "--approx", "none",
                "--out", str(out)]) == 2
    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["result"]["status"] == "infeasible"
    assert report["result"]["bound"] is None
    assert report["result"]["relative_gap"] is None


def test_time_limit_exit_code(tmp_path):
    # the 5x4x4 network under quad has no incumbent after a second
    instance = tmp_path / "large.json"
    instance.write_text(json.dumps(test_wtn.large_network()))
    out = tmp_path / "report.json"
    code = run(["--wtn", str(instance), "--approx", "quad",
                "--time-limit", "1", "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["result"]["status"] == "time_limit"


def test_report_is_deterministic_modulo_timing(tmp_path):
    model = bilinear_model_file(tmp_path)
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["--model", str(model), "--approx", "none",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        report["result"].pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1]


def test_quad_report_sizes_self_audit(tmp_path):
    out = tmp_path / "report.json"
    code = run(["--wtn", str(INSTANCE), "--approx", "quad",
                "--gap", "0.05", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())

    from gdpkit.approx import ApproxPolicy, apply_approximation
    from gdpkit.transforms import bigm_transform
    from gdpkit.wtn import build_wtn_gdp, load_wtn_data
    gdp = build_wtn_gdp(load_wtn_data(INSTANCE))
    flat = bigm_transform(apply_approximation(gdp, ApproxPolicy("quad"))[0])
    assert report["sizes"]["solved"] == flat.counts()
    assert report["pipeline"]["approx"] == "quad"
    assert len(report["approximation"]) == 2
    assert report["result"]["incumbent"]["y[Y[u1]]"] == pytest.approx(1.0,
                                                                      abs=1e-6)
    # the quad design measured on the exact rows, outside the CLI: its
    # fitted cost is off the true power by far more than the 1e-6 check
    original = bigm_transform(gdp)
    incumbent = report["result"]["incumbent"]
    x = [incumbent[v.name] for v in original.variables]
    worst = max(c.violation(x) for c in original.constraints)
    assert worst > 0.01
    assert report["result"]["original_violation"] == pytest.approx(worst,
                                                                   rel=1e-12)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["--bogus"],
    [],
    ["--wtn", str(INSTANCE), "--workers", "2"],
])
def test_parser_usage_errors_exit_1(argv):
    assert exit_code(argv) == 1


@pytest.mark.parametrize("flag", [
    ["--segments", "0"],
    ["--gap=-1e-4"],
    ["--reference", "0"],
    ["--reference", "nan"],
    ["--time-limit", "nan"],
    ["--time-limit=-1"],
])
def test_bad_numeric_flags_are_usage_errors(flag, capsys):
    argv = ["--wtn", str(INSTANCE), "--approx", "pwl"] + flag
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gdpkit: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_saved_pwl_model_solves_without_approximation(tmp_path):
    # an approximated model keeps its tables as pwl terms, so its file
    # solves as is, to the objective the pwl pipeline reaches
    from gdpkit.approx import ApproxPolicy, apply_approximation
    from gdpkit.wtn import build_wtn_gdp, load_wtn_data
    gdp = build_wtn_gdp(load_wtn_data(INSTANCE))
    model = tmp_path / "model.json"
    model.write_text(save_model(apply_approximation(
        gdp, ApproxPolicy("pwl", n_segments=21))[0]))
    reports = []
    for argv in (["--model", str(model), "--approx", "none"],
                 ["--wtn", str(INSTANCE), "--approx", "pwl", "--segments", "21"]):
        out = tmp_path / "report.json"
        assert run(argv + ["--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["result"])
    assert reports[0]["status"] == "optimal"
    assert reports[0]["objective"] == reports[1]["objective"]
    assert reports[0]["nodes"] == reports[1]["nodes"]
