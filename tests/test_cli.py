"""CLI tests: exit codes, trace format, determinism, validation diagnostics."""

import json

import numpy as np
import pytest

from nfix.cli import ValidationError, load_problem, main, parse_problem, problem_to_dict


def picard_problem(tmp_path, **overrides):
    data = {
        "dimension": 3,
        "order": 3,
        "anchors": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "operator": {
            "kind": "affine",
            "matrix": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
            "offset": [1.0, 0.0, 0.0],
        },
        "solver": {"regime": "picard", "alpha": 0.5, "tol": 1e-10},
        "x0": [0.0, 0.0, 0.0],
        "seed": 42,
    }
    data.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


def isometry_problem(tmp_path):
    data = {
        "dimension": 4,
        "order": 3,
        "anchors": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        "operator": {
            "kind": "builtin",
            "name": "rotation-scale",
            "params": {"axis1": 0, "axis2": 3, "angle": 1.0, "factor": 1.0},
        },
        "solver": {"regime": "edelstein", "tol": 1e-6, "max_iter": 200},
        "x0": [1.0, 0.0, 0.0, 0.0],
        "seed": 1,
    }
    path = tmp_path / "isometry.json"
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_picard_writes_trace_and_summary(tmp_path, capsys):
    cfg = picard_problem(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,residual,apriori,aposteriori,certified"
    assert len(lines) == 36  # header + 35 data rows
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 1.0
    last = lines[-1].split(",")
    assert int(last[0]) == 35
    assert float(last[4]) <= 1e-10
    assert "regime=picard" in captured.out
    assert "converged=true" in captured.out
    assert "iterations=35" in captured.out
    assert "independence_ok=true" in captured.out
    fp_line = next(l for l in captured.out.splitlines() if l.startswith("fixed_point="))
    coords = [float(v) for v in fp_line.split("=", 1)[1].split()]
    assert abs(coords[0] - 2.0) <= 1e-10


def test_solve_trace_round_trips_losslessly(tmp_path):
    cfg = picard_problem(tmp_path)
    out = tmp_path / "trace.csv"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        parts = line.split(",")
        for value in parts[1:]:
            assert float(value) == float(f"{float(value):.17g}")


def test_solve_is_byte_deterministic(tmp_path, capsys):
    cfg = picard_problem(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["solve", "--config", str(cfg), "--out", str(out1)])
    first = capsys.readouterr().out
    main(["solve", "--config", str(cfg), "--out", str(out2)])
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first == second


def test_solve_ball_precondition_violation_exits_one(tmp_path, capsys):
    cfg = picard_problem(tmp_path, solver={"regime": "ball", "alpha": 0.5, "radius": 1.5})
    code = main(["solve", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "1" in captured.err and "0.75" in captured.err


def test_solve_ball_accepts_radius_three(tmp_path, capsys):
    cfg = picard_problem(tmp_path, solver={"regime": "ball", "alpha": 0.5, "radius": 3.0})
    code = main(["solve", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert "max_displacement=" in captured.out


def test_solve_edelstein_isometry_exits_two(tmp_path, capsys):
    cfg = isometry_problem(tmp_path)
    code = main(["solve", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "converged=false" in captured.out


def test_solve_flag_overrides(tmp_path, capsys):
    cfg = picard_problem(tmp_path)
    code = main(["solve", "--config", str(cfg), "--tol", "1e-4"])
    captured = capsys.readouterr()
    assert code == 0
    iterations = int(next(l for l in captured.out.splitlines()
                          if l.startswith("iterations=")).split("=")[1])
    assert iterations < 35


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------

def test_validation_missing_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 3, "order": 3}))
    code = main(["solve", "--config", str(path)])
    assert code == 1
    assert "anchors" in capsys.readouterr().err


def test_validation_bad_alpha(tmp_path, capsys):
    cfg = picard_problem(tmp_path, solver={"regime": "picard", "alpha": 1.5})
    code = main(["solve", "--config", str(cfg)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_validation_unknown_field(tmp_path, capsys):
    cfg = picard_problem(tmp_path, typo_field=1)
    code = main(["solve", "--config", str(cfg)])
    assert code == 1
    assert "typo_field" in capsys.readouterr().err


def test_validation_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 3,\n  "order": }')
    code = main(["solve", "--config", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_validation_dependent_anchors(tmp_path, capsys):
    cfg = picard_problem(tmp_path, anchors=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    code = main(["solve", "--config", str(cfg)])
    assert code == 1
    assert "anchors" in capsys.readouterr().err


SCALE_HALF = {"kind": "builtin", "name": "scale", "params": {"factor": 0.5}}


@pytest.mark.parametrize("field,overrides", [
    ("solver.tol", {"solver": {"regime": "picard", "alpha": 0.5, "tol": "abc"}}),
    ("solver.alpha", {"solver": {"regime": "picard", "alpha": None}}),
    ("solver.a_seq.terms", {"solver": {"regime": "summable",
                                       "a_seq": {"kind": "explicit", "terms": [0.5, "x"]}}}),
    ("operator.params.factor", {"operator": {"kind": "builtin", "name": "scale",
                                             "params": {"factor": "big"}}}),
    ("solver.max_iter", {"solver": {"regime": "picard", "alpha": 0.5, "max_iter": 2.7}}),
    ("solver.crosscheck_pairs", {"solver": {"regime": "picard", "alpha": 0.5, "crosscheck_pairs": True}}),
    ("operator.params.axis1", {"operator": {"kind": "builtin", "name": "rotation-scale",
                                            "params": {"axis1": 0.0, "axis2": 1, "angle": 1.0}}}),
    ("operator", {"operator": {"kind": "builtin", "name": "rotation-scale",
                               "params": {"axis1": 0, "axis2": 3, "angle": 1.0}}}),
    ("operator.params.value", {"operator": {"kind": "builtin", "name": "constant",
                                            "params": {"value": [1.0, 2.0]}}}),
    ("operator", {"operator": {"kind": "builtin", "name": "scale",
                               "params": {"factor": 0.5, "bogus": 1}}}),
])
def test_validation_names_the_mistyped_field(tmp_path, capsys, field, overrides):
    # wrongly typed numbers, builtins that do not fit the dimension and
    # unknown params each end in one field diagnostic, not a traceback
    cfg = picard_problem(tmp_path, **{"operator": SCALE_HALF, **overrides})
    code = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {field}: ")


def test_solve_false_constant_exits_one(tmp_path, capsys):
    cfg = picard_problem(
        tmp_path,
        operator={"kind": "builtin", "name": "scale", "params": {"factor": 0.5}},
        solver={"regime": "picard", "alpha": 0.3},
        x0=[1.0, 0.0, 0.0],
    )
    code = main(["solve", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "contradicted" in captured.err


def test_problem_round_trip(tmp_path):
    cfg = picard_problem(tmp_path)
    problem = load_problem(str(cfg))
    rebuilt = parse_problem(problem_to_dict(problem))
    assert np.array_equal(rebuilt.space.anchors, problem.space.anchors)
    assert rebuilt.space.dim == problem.space.dim
    assert rebuilt.space.order == problem.space.order
    assert np.array_equal(rebuilt.operator.matrix, problem.operator.matrix)
    assert np.array_equal(rebuilt.operator.offset, problem.operator.offset)
    assert rebuilt.solver.regime == problem.solver.regime
    assert rebuilt.solver.alpha == problem.solver.alpha
    assert rebuilt.solver.tol == problem.solver.tol
    assert np.array_equal(rebuilt.x0, problem.x0)
    assert rebuilt.seed == problem.seed
    # serialization is a fixed point of parse -> serialize
    assert problem_to_dict(rebuilt) == problem_to_dict(problem)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_axioms_four_reports(tmp_path, capsys):
    out = tmp_path / "axioms.json"
    code = main(["check", "axioms", "--trials", "200", "--seed", "42", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 4
    assert [r["property_id"] for r in reports] == ["axioms.N1", "axioms.N2", "axioms.N3", "axioms.N4"]
    assert all(r["failures"] == 0 for r in reports)
    assert all(r["seed"] == 42 for r in reports)


def test_check_all_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["check", "all", "--seed", "7", "--trials", "25", "--dim", "3", "--n", "2"]
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    reports = json.loads(out1.read_text())
    assert len(reports) == 9  # 4 axiom reports + 5 theorem suites


def test_check_ratio_default_passes_on_every_seed(capsys):
    # the ratio suite anchors e2 and e3, every axis the saturating map fixes;
    # with e3 free the map is an isometry along it, and the suite failed on
    # seeds 28, 64, 95 and 99
    failed = [seed for seed in range(100) if main(["check", "ratio", "--seed", str(seed)]) != 0]
    capsys.readouterr()
    assert failed == []


def test_check_unknown_suite_exits_one(capsys):
    code = main(["check", "no-such-suite"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


@pytest.mark.parametrize("suite", ["axioms", "bounded", "bounded-sets", "product-ball", "reduction", "ratio",
                                   "all"])
@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-3"], ["--dim", "3", "--n", "5"],
                                  ["--dim", "3", "--n", "1"]])
def test_check_rejects_vacuous_or_impossible_arguments(tmp_path, capsys, suite, argv):
    # --trials 0 used to pass having checked nothing, and n > dim crashed
    out = tmp_path / "check.json"
    code = main(["check", suite, "--seed", "3", "--out", str(out)] + argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --")
    assert not out.exists()


def test_check_stdout_when_no_out(capsys):
    code = main(["check", "product-ball", "--trials", "50", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    reports = json.loads(captured.out)
    assert reports[0]["property_id"] == "product_ball"


# ---------------------------------------------------------------------------
# opnorm
# ---------------------------------------------------------------------------

def opnorm_config(tmp_path, matrix, dim=3):
    data = {
        "dimension": dim,
        "order": 3,
        "anchors": np.eye(dim)[1:3].tolist(),
        "operator": {"kind": "affine", "matrix": matrix},
        "seed": 5,
    }
    path = tmp_path / "opnorm.json"
    path.write_text(json.dumps(data))
    return path


def test_opnorm_diag_two(tmp_path, capsys):
    cfg = opnorm_config(tmp_path, np.diag([2.0, 1.0, 1.0]).tolist())
    code = main(["opnorm", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    values = {}
    for line in captured.out.splitlines():
        if line.startswith("method="):
            name, value = line.split(" ")
            values[name.split("=")[1]] = float(value.split("=")[1])
    assert set(values) == {"I", "II", "III"}
    for v in values.values():
        assert abs(v - 2.0) <= 0.04
    assert "budget=10000" in captured.out
    assert "kernel_preserved=true" in captured.out


def test_opnorm_identity(tmp_path, capsys):
    cfg = opnorm_config(tmp_path, np.eye(3).tolist())
    code = main(["opnorm", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    for line in captured.out.splitlines():
        if line.startswith("method="):
            assert abs(float(line.split("value=")[1]) - 1.0) <= 0.02


def test_opnorm_kernel_violator_prints_inf(tmp_path, capsys):
    cfg = opnorm_config(tmp_path, np.eye(3)[[1, 0, 2]].tolist())
    code = main(["opnorm", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("value=inf") == 3
    assert "kernel_preserved=false" in captured.out


def test_opnorm_rejects_nonlinear(tmp_path, capsys):
    data = {
        "dimension": 3,
        "order": 3,
        "anchors": np.eye(3)[1:3].tolist(),
        "operator": {"kind": "builtin", "name": "saturating", "params": {}},
    }
    path = tmp_path / "nl.json"
    path.write_text(json.dumps(data))
    code = main(["opnorm", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "linear" in captured.err


def test_env_seed_used_as_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NFIX_SEED", "99")
    out = tmp_path / "r.json"
    code = main(["check", "axioms", "--trials", "50", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["seed"] == 99 for r in reports)
    monkeypatch.setenv("NFIX_SEED", "not-a-number")
    assert main(["check", "axioms", "--trials", "50"]) == 1
