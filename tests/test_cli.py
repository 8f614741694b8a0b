import json

import pytest

from helpers import UnstableSolver, netgen_instance
from rlnd import cli
from rlnd.cli import main
from rlnd.io import instance_to_dict, load_bundled_instance, save_instance
from rlnd.scenarios import solve_user


def write_instance(tmp_path, mutate=None, name="case.json"):
    data = instance_to_dict(load_bundled_instance())
    if mutate:
        mutate(data)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_validate_bundled_instance(capsys):
    assert main(["validate"]) == 0
    assert "is consistent" in capsys.readouterr().out


def test_the_removed_seed_option_is_a_usage_error(capsys):
    for argv in (["validate", "--seed", "7"], ["validate", "--solver", "scipy"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_an_unstable_answer_prints_its_status_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EmbeddedSolver", UnstableSolver)
    assert main(["solve"]) == 1
    assert capsys.readouterr().out.startswith("status: numerically_unstable")


def test_validate_reports_violations(tmp_path, capsys):
    def broken(data):
        data["supply"]["dedicated_fraction"]["drop1"] = 1.5

    path = write_instance(tmp_path, broken)
    assert main(["validate", "--instance", str(path)]) == 1
    assert "violation:" in capsys.readouterr().out


def test_missing_and_malformed_files_exit_one(tmp_path, capsys):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--instance", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_solve_prints_breakdown_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "breakdown.csv"
    assert main(["solve", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status: optimal" in text
    assert "total_cost" in text
    assert "open facilities:" in text
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "metric,stage,value"
    assert len(lines) > 10


def test_solve_user_model(capsys):
    assert main(["solve", "--model", "user"]) == 0
    assert "phase totals" in capsys.readouterr().out


def test_solve_emission_objective(capsys):
    assert main(["solve", "--objective", "emission"]) == 0
    assert "status: optimal" in capsys.readouterr().out


def test_solve_dump_lp(tmp_path):
    dump = tmp_path / "model.lp"
    assert main(["solve", "--dump-lp", str(dump)]) == 0
    text = dump.read_text(encoding="utf-8")
    assert "flow-balance" in text and "capacity" in text


def test_solve_user_dump_lp_holds_both_phases(tmp_path):
    dump = tmp_path / "user.lp"
    assert main(["solve", "--model", "user", "--dump-lp", str(dump)]) == 0
    text = dump.read_text(encoding="utf-8")
    assert "user-I:" in text and "user-II:" in text


def test_infeasible_instance_exits_two(tmp_path, capsys):
    def throttle(data):
        data["processing"]["total_capacity"] = {
            "prim1": 1.0, "prim2": 1.0, "prim3": 1.0}

    path = write_instance(tmp_path, throttle)
    assert main(["solve", "--instance", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_exhausted_node_budget_exits_three(capsys):
    assert main(["solve", "--node-budget", "1"]) == 3
    assert "budget_exceeded" in capsys.readouterr().out
    assert main(["solve", "--model", "user", "--node-budget", "1"]) == 3


def test_solve_prints_the_gap_highs_stops_at(tmp_path, capsys):
    """HiGHS stops at its default relative gap; on this network the bound it
    proves is 48.51 below the answer it calls optimal."""
    path = tmp_path / "network.json"
    save_instance(netgen_instance(40, 12, 6, seed=1), path)
    assert main(["solve", "--solver", "scipy", "--instance", str(path)]) == 0
    status, gap = capsys.readouterr().out.splitlines()[:2]
    assert status.startswith("status: optimal  objective: ")
    objective = float(status.split()[-1])
    assert gap.startswith("gap: ")
    width, bound = float(gap.split()[1]), float(gap.split()[-1])
    assert width == pytest.approx(objective - bound, abs=1e-5)
    assert width > 1.0


def test_an_exact_solve_prints_no_gap(capsys):
    assert main(["solve"]) == 0
    assert "gap:" not in capsys.readouterr().out


def test_pareto_front_csv(tmp_path, capsys):
    out = tmp_path / "front.csv"
    assert main(["pareto", "--points", "4", "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "v,epsilon,total_cost,total_emission"
    assert len(lines) >= 2


@pytest.mark.parametrize("seed", [None, 2], ids=["bundled", "netgen-5x4x3-2"])
def test_user_front_anchors_on_the_solve_optimum(seed, bundled, tmp_path, capsys):
    instance = bundled if seed is None else netgen_instance(5, 4, 3, seed=seed)
    path = tmp_path / "network.json"
    save_instance(instance, path)
    side = solve_user(instance, "emission").require_optimal("emission solve")
    assert main(["pareto", "--model", "user", "--instance", str(path)]) == 0
    anchors = capsys.readouterr().out.splitlines()[0]
    assert anchors.endswith(f"emission ({side.total_cost:.3f}, {side.total_emission:.3f})")


def test_robust_at_gamma_zero_reports_as_solve(tight40, tmp_path, capsys):
    path = tmp_path / "capacity-40.json"
    save_instance(tight40, path)
    assert main(["solve", "--instance", str(path)]) == 0
    solved = capsys.readouterr().out
    assert main(["robust", "--gamma", "0", "--instance", str(path)]) == 0
    preset, *report = capsys.readouterr().out.splitlines(keepends=True)
    assert preset.startswith("preset: ")
    assert "".join(report) == solved


def test_robust_preset(capsys):
    assert main(["robust", "--fraction", "0.1", "--gamma", "1.0"]) == 0
    text = capsys.readouterr().out
    assert "preset: 13 capacity rows" in text
    assert "status: optimal" in text


def test_robust_with_spec_file(tmp_path, capsys):
    spec = {"rows": {"capacity[dropoff,prod1,drop1]":
                     {"gamma": 1.0, "deviations": {"X[drop1]": 50.0}}}}
    path = tmp_path / "unc.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["robust", "--uncertainty", str(path)]) == 0
    assert "status: optimal" in capsys.readouterr().out


def test_robust_rejects_unknown_row(tmp_path, capsys):
    spec = {"rows": {"no-such-row": {"gamma": 0.0, "deviations": {}}}}
    path = tmp_path / "unc.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["robust", "--uncertainty", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_scenario_by_name_and_csv(tmp_path, capsys):
    out = tmp_path / "comparison.csv"
    assert main(["scenario", "--name", "capacity-40", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "capacity-40" in text
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("scenario,objective,mode,")
    assert len(lines) == 3  # header + system + user


def test_scenario_all_carries_on_past_an_infeasible_scenario(tmp_path, capsys):
    """On netgen 5x4x3 seed 0 capacity-40 is infeasible and the other four
    scenarios solve."""
    path = tmp_path / "net.json"
    save_instance(netgen_instance(5, 4, 3, 0), path)
    out = tmp_path / "comparison.csv"
    assert main(["scenario", "--instance", str(path), "--output", str(out)]) == 2
    text = capsys.readouterr().out
    assert ("scenario capacity-40 (cost objective): whole-network cost solve ended "
            "infeasible\n") in text
    for name in ("baseline", "capacity-80", "supply-mix-1", "supply-mix-2"):
        assert f"scenario {name} (cost objective)\n" in text
    rows = [line.split(",")[:3] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [[name, "cost", mode]
                    for name in ("baseline", "capacity-80", "supply-mix-1", "supply-mix-2")
                    for mode in ("system", "user")]


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "--name", "bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown scenario 'bogus'")


def test_scenario_from_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "half-trips", "trip_factor": 0.5}),
                    encoding="utf-8")
    assert main(["scenario", "--spec", str(path)]) == 0
    assert "half-trips" in capsys.readouterr().out


def test_distances_grid(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(
        "id,lat,lon,population\n"
        "north,47.60,-122.33,12000\n"
        "south,47.25,-122.44,9000\n"
        "mid,47.45,-122.30,\n"
        "plant,47.48,-122.20,\n"
        "smelter,47.10,-122.43,\n",
        encoding="utf-8")
    out = tmp_path / "grid.json"
    code = main(["distances", "--points", str(points),
                 "--dropoffs", "mid", "--primaries", "plant",
                 "--secondaries", "smelter", "--output", str(out)])
    assert code == 0
    grid = json.loads(out.read_text(encoding="utf-8"))
    assert set(grid) == {"res_drop", "drop_pri", "pri_sec", "population"}
    assert set(grid["population"]) == {"north", "south"}
    # residences are whatever the facility tiers leave behind
    assert all(key.startswith(("north", "south")) for key in grid["res_drop"])


def test_distances_requires_leftover_residences(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("id,lat,lon\na,1,1\nb,2,2\nc,3,3\n", encoding="utf-8")
    code = main(["distances", "--points", str(points),
                 "--dropoffs", "a", "--primaries", "b", "--secondaries", "c"])
    assert code == 1
    assert "residence" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "rlnd" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["solve", "--model", "foo"], ["pareto", "--points", "x"],
                                  ["solve", "--bogus"], ["frobnicate"], []],
                         ids=["bad-choice", "bad-int", "unknown-flag", "unknown-command",
                              "no-command"])
def test_usage_errors_exit_one_not_the_infeasible_code(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _first_dropoff_entry(data):
    row = next(iter(data["processing"]["dropoff"].values()))
    return next(iter(row.values()))


def _validate(tmp_path, mutate):
    return ["validate", "--instance", str(write_instance(tmp_path, mutate))]


def _latitude_out_of_range(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("id,lat,lon\na,147.6,-120\nb,47,-121\nc,46,-122\nd,45,-120\n",
                      encoding="utf-8")
    return ["distances", "--points", str(points),
            "--dropoffs", "b", "--primaries", "c", "--secondaries", "d"]


def _spec_file(tmp_path, command, flag, content):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    return [command, flag, str(path)]


ERROR_CASES = {
    "pareto-theta": lambda tmp_path: ["pareto", "--theta", "1"],
    "pareto-points": lambda tmp_path: ["pareto", "--points", "0"],
    "robust-fraction": lambda tmp_path: ["robust", "--fraction", "-1"],
    "robust-gamma": lambda tmp_path: ["robust", "--gamma", "-1"],
    "solve-node-budget-0": lambda tmp_path: ["solve", "--node-budget", "0"],
    "solve-node-budget-negative": lambda tmp_path: ["solve", "--node-budget", "-3"],
    "scipy-node-budget-0": lambda tmp_path: ["solve", "--solver", "scipy", "--node-budget", "0"],
    "instance-without-arcs": lambda tmp_path: _validate(tmp_path, lambda d: d.pop("arcs")),
    "entry-without-capacity": lambda tmp_path: _validate(
        tmp_path, lambda d: _first_dropoff_entry(d).pop("capacity")),
    "trips-not-a-number": lambda tmp_path: _validate(
        tmp_path, lambda d: d["supply"].update(trips_per_year="many")),
    "latitude-out-of-range": _latitude_out_of_range,
    "instance-is-a-directory": lambda tmp_path: ["validate", "--instance", str(tmp_path)],
    "scenario-spec-without-name": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec", {"trip_factor": 0.5}),
    "scenario-spec-mistyped": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec", {"name": "x", "trip_factor": "half"}),
    "uncertainty-row-without-gamma": lambda tmp_path: _spec_file(
        tmp_path, "robust", "--uncertainty",
        {"rows": {"capacity[dropoff,prod1,drop1]": {"deviations": {"X[drop1]": 1.0}}}}),
    "uncertainty-spec-is-a-list": lambda tmp_path: _spec_file(
        tmp_path, "robust", "--uncertainty", []),
}


@pytest.mark.parametrize("case", ERROR_CASES)
def test_bad_options_and_data_print_one_error_line(case, tmp_path, capsys):
    assert main(ERROR_CASES[case](tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_and_mistyped_instance_keys_are_named(tmp_path, capsys):
    assert main(ERROR_CASES["instance-without-arcs"](tmp_path)) == 1
    assert "missing key 'arcs'" in capsys.readouterr().err
    assert main(ERROR_CASES["trips-not-a-number"](tmp_path)) == 1
    err = capsys.readouterr().err
    assert "supply.trips_per_year" in err and "'many'" in err
    assert main(_validate(tmp_path, lambda d: d["processing"]["primary"]["prim1"]["prod1"]
                          .update(capacity="lots"))) == 1
    assert "processing.primary.prim1.prod1.capacity" in capsys.readouterr().err
    assert main(_validate(tmp_path, lambda d: d["arcs"].pop("pri_sec"))) == 1
    assert "missing key 'arcs.pri_sec'" in capsys.readouterr().err


def test_spec_file_errors_name_the_key(tmp_path, capsys):
    assert main(ERROR_CASES["scenario-spec-without-name"](tmp_path)) == 1
    assert "missing key 'name'" in capsys.readouterr().err
    assert main(ERROR_CASES["scenario-spec-mistyped"](tmp_path)) == 1
    assert "trip_factor" in capsys.readouterr().err
    assert main(ERROR_CASES["uncertainty-row-without-gamma"](tmp_path)) == 1
    assert "rows.capacity[dropoff,prod1,drop1].gamma" in capsys.readouterr().err
