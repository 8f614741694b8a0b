import json
import math
import re

import pytest

from helpers import UnstableSolver, netgen_instance
from rlnd import cli
from rlnd.cli import main
from rlnd.io import instance_to_dict, load_bundled_instance, save_instance
from rlnd.scenarios import SCENARIO_ORDER, solve_user


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


def _throttle(data):
    """Cap every primary of the bundled network at 1 unit: no plan fits."""
    data["processing"]["total_capacity"] = {"prim1": 1.0, "prim2": 1.0, "prim3": 1.0}


def test_infeasible_instance_exits_two(tmp_path, capsys):
    path = write_instance(tmp_path, _throttle)
    assert main(["solve", "--instance", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["system", "user"])
def test_an_infeasible_anchor_exits_two(model, tmp_path, capsys):
    path = write_instance(tmp_path, _throttle)
    assert main(["pareto", "--model", model, "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: anchor solve ended infeasible\n"


def test_an_infeasible_throughput_solve_exits_two(tmp_path, capsys):
    """Alone, a capacity scenario stops at the throughput solve its caps
    derive from; in a run of all five, both capacity scenarios report it
    and the others still print their own line."""
    path = write_instance(tmp_path, _throttle)
    assert main(["scenario", "--name", "capacity-80", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: throughput solve ended infeasible\n"
    assert main(["scenario", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = [line for line in captured.out.splitlines() if line]
    assert lines == [f"scenario {name} (cost objective): " + (
        "throughput solve" if name.startswith("capacity") else "whole-network cost solve")
        + " ended infeasible" for name in SCENARIO_ORDER]


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


def assert_robust_reports_as_solve(path, capsys, *robust, solver=()):
    assert main(["solve", "--instance", str(path), *solver]) == 0
    solved = capsys.readouterr().out
    assert main(["robust", *robust, "--instance", str(path), *solver]) == 0
    preset, *report = capsys.readouterr().out.splitlines(keepends=True)
    assert preset.startswith("preset: ")
    assert "".join(report) == solved


def test_robust_at_gamma_zero_reports_as_solve(tight40, tmp_path, capsys):
    path = tmp_path / "capacity-40.json"
    save_instance(tight40, path)
    assert_robust_reports_as_solve(path, capsys, "--gamma", "0")


@pytest.mark.parametrize("shape, seed, solver", [
    *(((5, 4, 3), seed, ()) for seed in range(4)),
    ((20, 8, 5), 3, ("--solver", "scipy"))],
    ids=[*(f"netgen-5x4x3-{seed}" for seed in range(4)), "netgen-20x8x5-3-scipy"])
def test_robust_at_gamma_zero_reports_as_solve_on_generated_networks(shape, seed, solver,
                                                                     tmp_path, capsys):
    """The 20x8x5 network solves to a HiGHS gap, which the gamma-0 counterpart
    prints too only when it is the nominal model."""
    path = tmp_path / "network.json"
    save_instance(netgen_instance(*shape, seed=seed), path)
    assert_robust_reports_as_solve(path, capsys, "--gamma", "0", solver=solver)


def test_robust_without_deviations_reports_as_solve(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert_robust_reports_as_solve(path, capsys, "--fraction", "0", "--gamma", "1")


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


@pytest.mark.parametrize("form", ["name", "spec"])
def test_a_single_infeasible_scenario_exits_two(form, tmp_path, capsys):
    """On netgen 5x4x3 seed 0 capacity-40 has no feasible plan, asked for
    alone by name or as a spec file."""
    path = tmp_path / "net.json"
    save_instance(netgen_instance(5, 4, 3, 0), path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "capacity-40", "total_capacity_fraction": 0.4}),
                    encoding="utf-8")
    pick = ["--name", "capacity-40"] if form == "name" else ["--spec", str(spec)]
    out = tmp_path / "comparison.csv"
    assert main(["scenario", *pick, "--instance", str(path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("scenario capacity-40 (cost objective): whole-network "
                                   "cost solve ended infeasible\n")
    assert captured.err == ""
    assert out.read_text(encoding="utf-8").splitlines()[1:] == []


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


def _distances(tmp_path, *rows):
    """``rlnd distances`` over a points file of these rows below a header,
    with points b, c and d as the facilities."""
    points = tmp_path / "points.csv"
    points.write_text("\n".join(["id,lat,lon", *rows]) + "\n", encoding="utf-8")
    return ["distances", "--points", str(points),
            "--dropoffs", "b", "--primaries", "c", "--secondaries", "d"]


def _second_point(row):
    return lambda tmp_path: _distances(tmp_path, "a,47.6,-122.3", row, "c,47.5,-122.1",
                                       "d,47.4,-122.0")


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
    **{f"min-open-{name}": lambda tmp_path, value=value: _validate(
        tmp_path, lambda d: d["processing"]["min_open"].update(dropoff=value))
       for name, value in (("infinite", math.inf), ("nan", math.nan), ("fraction", 1.5))},
    "solve-nan-cost": lambda tmp_path: ["solve", "--instance", str(write_instance(
        tmp_path, lambda d: _first_dropoff_entry(d).update(cost=math.nan)))],
    "latitude-out-of-range": lambda tmp_path: _distances(
        tmp_path, "a,147.6,-120", "b,47,-121", "c,46,-122", "d,45,-120"),
    "points-row-too-short": _second_point("b,47.7"),
    "points-row-not-a-number": _second_point("b,47.7,abc"),
    "instance-is-a-directory": lambda tmp_path: ["validate", "--instance", str(tmp_path)],
    "scenario-spec-without-name": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec", {"trip_factor": 0.5}),
    "scenario-spec-mistyped": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec", {"name": "x", "trip_factor": "half"}),
    "scenario-spec-unknown-area": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec",
        {"name": "typo", "supply_mass": {"prod1": {"area1": 600.0, "aera2": 1050.0}}}),
    "uncertainty-row-without-gamma": lambda tmp_path: _spec_file(
        tmp_path, "robust", "--uncertainty",
        {"rows": {"capacity[dropoff,prod1,drop1]": {"deviations": {"X[drop1]": 1.0}}}}),
    "uncertainty-spec-is-a-list": lambda tmp_path: _spec_file(
        tmp_path, "robust", "--uncertainty", []),
    "scenario-spec-misspelled-key": lambda tmp_path: _spec_file(
        tmp_path, "scenario", "--spec", {"name": "typo", "trip_factr": 3.0}),
    "uncertainty-row-misspelled-key": lambda tmp_path: _spec_file(
        tmp_path, "robust", "--uncertainty",
        {"rows": {"capacity[dropoff,prod1,drop1]": {"gamma": 1, "gama": 2,
                                                    "deviations": {"X[drop1]": 1.0}}}}),
    "points-id-repeated": lambda tmp_path: _distances(
        tmp_path, "a,47.6,-122.3", "b,47.7,-122.2", "c,47.5,-122.1", "d,47.4,-122.0",
        "a,10.0,10.0"),
    "points-population-negative": _second_point("b,47.7,-122.2,-5"),
    "points-population-nan": _second_point("b,47.7,-122.2,nan"),
    "distances-point-in-two-tiers": lambda tmp_path: _distances(
        tmp_path, "a,47.6,-122.3", "b,47.7,-122.2", "c,47.5,-122.1", "d,47.4,-122.0")[:-2]
        + ["--secondaries", "c"],
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


def test_a_scenario_supply_entry_for_an_unknown_area_is_named(tmp_path, capsys):
    assert main(ERROR_CASES["scenario-spec-unknown-area"](tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "r[prod1,aera2]: unknown residence area" in captured.err


def test_min_open_must_be_an_integer(tmp_path, capsys):
    for name, shown in (("infinite", "inf"), ("nan", "nan"), ("fraction", "1.5")):
        assert main(ERROR_CASES[f"min-open-{name}"](tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"processing.min_open.dropoff: expected an integer, got {shown}" in err, name


def test_a_number_that_is_not_finite_fails_validation(tmp_path, capsys):
    assert main(ERROR_CASES["solve-nan-cost"](tmp_path)) == 1
    captured = capsys.readouterr()
    violation = "drp.cost[prod1,drop1]: cost nan outside [0, inf)"
    assert captured.out == "" and violation in captured.err
    assert main(_validate(tmp_path, lambda d: _first_dropoff_entry(d).update(cost=math.nan))) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"violation: {violation}"] and captured.err == ""


def test_a_bad_points_row_names_its_file_and_line(tmp_path, capsys):
    for case, problem in (("points-row-too-short", "2 field(s) where id, lat, lon"),
                          ("points-row-not-a-number", "'abc'")):
        argv = ERROR_CASES[case](tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[2]}, line 3: ") and problem in err, case


def test_a_points_file_problem_names_the_file_lines_and_id(tmp_path, capsys):
    argv = ERROR_CASES["points-id-repeated"](tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {argv[2]}, lines 2 and 6: id 'a' repeated\n"
    for case, shown in (("points-population-negative", "-5.0"),
                        ("points-population-nan", "nan")):
        argv = ERROR_CASES[case](tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {argv[2]}, line 3: population {shown} outside [0, inf)\n", case
    assert main(ERROR_CASES["distances-point-in-two-tiers"](tmp_path)) == 1
    assert "['c'] are named as more than one facility" in capsys.readouterr().err


def test_spec_file_errors_name_the_key(tmp_path, capsys):
    assert main(ERROR_CASES["scenario-spec-without-name"](tmp_path)) == 1
    assert "missing key 'name'" in capsys.readouterr().err
    assert main(ERROR_CASES["scenario-spec-mistyped"](tmp_path)) == 1
    assert "trip_factor" in capsys.readouterr().err
    assert main(ERROR_CASES["uncertainty-row-without-gamma"](tmp_path)) == 1
    assert "rows.capacity[dropoff,prod1,drop1].gamma" in capsys.readouterr().err
    assert main(ERROR_CASES["scenario-spec-misspelled-key"](tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown key 'trip_factr'" in captured.err
    assert main(ERROR_CASES["uncertainty-row-misspelled-key"](tmp_path)) == 1
    assert "unknown key 'rows.capacity[dropoff,prod1,drop1].gama'" in capsys.readouterr().err


# every subcommand that reads an instance, and the line that says how it ended;
# `distances` reads a coordinate table, not an instance, and is tested above
CORPUS = {
    ("validate",): r"^instance '.*' is consistent",
    **{("solve", "--model", model, "--objective", objective): r"^status: (optimal|infeasible)"
       for model in ("system", "user") for objective in ("cost", "emission")},
    **{("pareto", "--model", model, "--points", "4"): r"^anchors: |^error: "
       for model in ("system", "user")},
    **{("robust", "--gamma", gamma): r"^status: (optimal|infeasible)" for gamma in "012"},
    **{("scenario", "--name", "all", "--objective", objective): r"^scenario baseline "
       for objective in ("cost", "emission")},
}


@pytest.mark.parametrize("seed", [None, *range(4)],
                         ids=["bundled", *(f"netgen-5x4x3-{seed}" for seed in range(4))])
def test_every_subcommand_answers_on_every_network(seed, tmp_path, capsys):
    """Each run ends solved (0) or proven infeasible (2) and prints the line
    that says which, on standard output or as an ``error:`` line."""
    args = []
    if seed is not None:
        path = tmp_path / "network.json"
        save_instance(netgen_instance(5, 4, 3, seed=seed), path)
        args = ["--instance", str(path)]
    for command, status in CORPUS.items():
        code = main([*command, *args])
        captured = capsys.readouterr()
        assert code in (0, 2), (command, captured.err)
        assert re.search(status, captured.out + captured.err, re.MULTILINE), command
