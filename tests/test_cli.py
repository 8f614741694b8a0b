import json

import pytest

from helpers import netgen_instance
from rlnd.cli import main
from rlnd.io import instance_to_dict, load_bundled_instance, save_instance
from rlnd.robust import RowUncertainty, UncertaintySpec, save_uncertainty_spec
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


def test_validate_accepts_seed_for_compatibility():
    assert main(["validate", "--seed", "7"]) == 0


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
    spec = UncertaintySpec({
        "capacity[dropoff,prod1,drop1]": RowUncertainty(1.0, {"X[drop1]": 50.0}),
    })
    path = tmp_path / "unc.json"
    save_uncertainty_spec(spec, path)
    assert main(["robust", "--uncertainty", str(path)]) == 0
    assert "status: optimal" in capsys.readouterr().out


def test_robust_rejects_unknown_row(tmp_path, capsys):
    spec = UncertaintySpec({"no-such-row": RowUncertainty(0.0, {})})
    path = tmp_path / "unc.json"
    save_uncertainty_spec(spec, path)
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


def test_scenario_unknown_name(capsys):
    assert main(["scenario", "--name", "bogus"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


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
