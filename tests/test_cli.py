import json
from pathlib import Path

import pytest

from gdpkit.cli import build_parser, main, run_pipeline
from gdpkit.model import Constraint, Expression, GdpModel, save_model

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


def test_reference_produces_relative_error(tmp_path):
    model = bilinear_model_file(tmp_path)
    out = tmp_path / "report.json"
    code = run(["--model", str(model), "--approx", "none",
                "--reference", "-0.25", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["relative_error_pct"] == pytest.approx(0.0, abs=0.05)


def test_wtn_requires_approximation():
    code = run(["--wtn", str(INSTANCE), "--approx", "none"])
    assert code == 1


def test_missing_file_is_usage_error(tmp_path):
    assert run(["--model", str(tmp_path / "nope.json")]) == 1


def test_invalid_instance_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"contaminants": ["A"], "feeds": {},
                               "units": {}, "limits": {"A": 1.0}}))
    assert run(["--wtn", str(bad)]) == 1


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
    out = tmp_path / "report.json"
    code = run(["--wtn", str(INSTANCE), "--approx", "pwl", "--segments", "101",
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


@pytest.mark.parametrize("flag", [["--segments", "0"], ["--gap=-1e-4"]])
def test_bad_numeric_flags_are_usage_errors(flag, capsys):
    argv = ["--wtn", str(INSTANCE), "--approx", "pwl"] + flag
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gdpkit: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
