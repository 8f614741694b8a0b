import json

import pytest

from helpers import (KNAP_CAP as CAP, KNAP_DEVS as DEVS,
                     KNAP_PROFITS as PROFITS, KNAP_WEIGHTS as WEIGHTS,
                     brute_force_robust_profit, knapsack_model)
from rlnd.builders import build_system_model
from rlnd.milp import LinExpr, MilpModel, ModelError, RowTag, Status, solve_milp
from rlnd.robust import (RowUncertainty, UncertaintySpec, capacity_preset,
                         load_uncertainty_spec, robustify, robustify_artifacts,
                         violation_bound)


def knapsack_spec(gamma):
    entry = RowUncertainty(gamma, {f"x{i}": d for i, d in enumerate(DEVS)})
    return UncertaintySpec({"capacity[knap]": entry})


def test_zero_budget_is_nominal():
    nominal = solve_milp(knapsack_model())
    robust = solve_milp(robustify(knapsack_model(), knapsack_spec(0.0)))
    assert robust.status is Status.OPTIMAL
    assert robust.objective == nominal.objective


def test_full_budget_is_all_coefficients_at_bound():
    full = solve_milp(robustify(knapsack_model(), knapsack_spec(len(WEIGHTS))))

    worst = MilpModel("all-at-bound")
    load = LinExpr()
    gain = LinExpr()
    for i, (w, p, d) in enumerate(zip(WEIGHTS, PROFITS, DEVS)):
        name = f"x{i}"
        worst.add_variable(name, binary=True)
        load.add(name, w + d)
        gain.add(name, -p)
    worst.add_row(load, "<=", CAP, RowTag("capacity", ("knap",)))
    worst.set_objective(gain)
    bound = solve_milp(worst)

    assert full.status is Status.OPTIMAL
    assert full.objective == bound.objective


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_budget_matches_exhaustive_enumeration(gamma):
    sol = solve_milp(robustify(knapsack_model(), knapsack_spec(gamma)))
    assert sol.status is Status.OPTIMAL
    assert -sol.objective == pytest.approx(brute_force_robust_profit(gamma),
                                           rel=1e-9, abs=1e-9)


def test_profit_never_improves_as_budget_grows():
    gammas = [0.0, 1.0, 1.5, 2.5, 4.0]
    profits = [-solve_milp(robustify(knapsack_model(), knapsack_spec(g))).objective
               for g in gammas]
    for earlier, later in zip(profits, profits[1:]):
        assert later <= earlier + 1e-9


def test_protected_row_keeps_its_tag():
    robust = robustify(knapsack_model(), knapsack_spec(2.0))
    tags = [str(row.tag) for row in robust.rows]
    assert tags.count("capacity[knap]") == 1
    assert sum(t.startswith("robust-dual[") for t in tags) == len(WEIGHTS)
    assert any(name.startswith("GAMMA[") for name in robust.variables)
    assert sum(name.startswith("DEV[") for name in robust.variables) == len(WEIGHTS)


def test_covering_row_protects_against_coefficient_drops():
    # >= rows protect the low side: the adversary shrinks coefficients
    def covering(third_coeff):
        model = MilpModel("cover")
        need = LinExpr()
        cost = LinExpr()
        for name, coeff, price in (("a", 2.0, 1.0), ("b", 3.0, 2.0),
                                   ("c", third_coeff, 2.5)):
            model.add_variable(name, binary=True)
            need.add(name, coeff)
            cost.add(name, price)
        model.add_row(need, ">=", 4.0, RowTag("demand", ("cover",)))
        model.set_objective(cost)
        return model

    nominal = solve_milp(covering(4.0))
    assert nominal.objective == pytest.approx(2.5)  # c alone covers 4

    spec = UncertaintySpec({"demand[cover]": RowUncertainty(1.0, {"c": 1.5})})
    robust = solve_milp(robustify(covering(4.0), spec))
    assert robust.status is Status.OPTIMAL
    # c may deliver only 2.5, so the cheapest protected plan is a+b (cost 3)
    assert robust.objective == pytest.approx(3.0)


def test_equality_rows_are_rejected_with_split_guidance():
    model = MilpModel("eq")
    model.add_variable("x", 0.0, 10.0)
    model.add_variable("y", 0.0, 10.0)
    model.add_row(LinExpr({"x": 1.0, "y": 1.0}), "==", 5.0, RowTag("tie"))
    model.set_objective(LinExpr({"x": 1.0}))
    spec = UncertaintySpec({"tie": RowUncertainty(1.0, {"x": 0.5})})
    with pytest.raises(ModelError, match="split it into <= and >="):
        robustify(model, spec)

    split = MilpModel("eq-split")
    split.add_variable("x", 0.0, 10.0)
    split.add_variable("y", 0.0, 10.0)
    split.add_row(LinExpr({"x": 1.0, "y": 1.0}), "<=", 5.0, RowTag("tie", ("le",)))
    split.add_row(LinExpr({"x": 1.0, "y": 1.0}), ">=", 5.0, RowTag("tie", ("ge",)))
    split.set_objective(LinExpr({"x": 1.0}))
    le_spec = UncertaintySpec({"tie[le]": RowUncertainty(1.0, {"x": 0.5})})
    sol = solve_milp(robustify(split, le_spec))
    assert sol.status is Status.OPTIMAL


def test_unknown_rows_and_variables_are_rejected():
    with pytest.raises(ModelError, match="not in the model"):
        robustify(knapsack_model(),
                  UncertaintySpec({"no-such-row": RowUncertainty(1.0, {"x0": 1.0})}))
    with pytest.raises(ModelError, match="unknown variables"):
        robustify(knapsack_model(),
                  UncertaintySpec({"capacity[knap]": RowUncertainty(1.0, {"zz": 1.0})}))


def test_entry_validation(bundled):
    with pytest.raises(ValueError, match="exceeds"):
        RowUncertainty(3.0, {"a": 1.0}).validate("row")
    with pytest.raises(ValueError):
        RowUncertainty(-1.0, {"a": 1.0}).validate("row")
    with pytest.raises(ValueError):
        RowUncertainty(1.0, {"a": -0.5}).validate("row")
    clamped = capacity_preset(build_system_model(bundled), gamma=99.0)
    assert all(row.gamma == len(row.deviations) for row in clamped.rows.values())


def test_spec_json_round_trip(tmp_path):
    spec = knapsack_spec(1.5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"rows": {"capacity[knap]": {
        "gamma": 1.5, "deviations": spec.rows["capacity[knap]"].deviations}}}),
        encoding="utf-8")
    again = load_uncertainty_spec(path)
    assert again == spec


def test_violation_bound_reference_points():
    for n in (1, 2, 5, 50):
        assert violation_bound(1.0, n) == pytest.approx(0.5, abs=1e-15)
    # one-sided normal tail values
    assert violation_bound(3.0, 4) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert violation_bound(1.0 + 1.6448536269514722, 1) == pytest.approx(0.05, abs=1e-9)
    assert violation_bound(3.0, 1) == pytest.approx(0.022750131948179195, abs=1e-12)
    assert violation_bound(0.0, 9) > 0.5
    with pytest.raises(ValueError):
        violation_bound(1.0, 0)
    with pytest.raises(ValueError):
        violation_bound(-0.1, 4)


def test_magnitude_variables_only_for_sign_free_variables():
    model = MilpModel("signed")
    model.add_variable("x", -5.0, 5.0)
    model.add_row(LinExpr({"x": 1.0}), "<=", 3.0, RowTag("cap"))
    model.set_objective(LinExpr({"x": -1.0}))
    spec = UncertaintySpec({"cap": RowUncertainty(1.0, {"x": 1.0})})
    robust = robustify(model, spec)

    assert "ABS[x]" in robust.variables
    abs_rows = [row for row in robust.rows if row.tag.family == "robust-abs"]
    assert len(abs_rows) == 2
    sol = solve_milp(robust)
    # worst case doubles x's pull on the row, so x tops out at 1.5 instead of 3
    assert sol.objective == pytest.approx(-1.5)
    assert sol.values["ABS[x]"] == pytest.approx(1.5)

    # a nonnegative variable gets no magnitude clone
    plain = robustify(knapsack_model(), knapsack_spec(1.0))
    assert not any(name.startswith("ABS[") for name in plain.variables)


def test_capacity_preset_covers_capacity_rows(bundled, tight40):
    base_art = build_system_model(bundled)
    base_preset = capacity_preset(base_art, fraction=0.1, gamma=1.0)
    assert len(base_preset.rows) == 13

    tight_art = build_system_model(tight40)
    tight_preset = capacity_preset(tight_art, fraction=0.1, gamma=1.0)
    assert len(tight_preset.rows) == 16

    for key, entry in tight_preset.rows.items():
        assert key.startswith("capacity[")
        assert entry.gamma == pytest.approx(min(1.0, len(entry.deviations)))
        for var in entry.deviations:
            assert var.startswith(("RTD[", "X[", "Y[", "R["))
    with pytest.raises(ValueError):
        capacity_preset(tight_art, fraction=-0.1)


def test_tight_instance_ramp_is_strictly_increasing(tight40):
    art = build_system_model(tight40, objective="cost")
    expected = {
        0.0: 63400.126056205,
        0.25: 63689.179354261,
        0.5: 63978.232652318,
        0.75: 64267.285950374,
        1.0: 64556.339248431,
    }
    seen = []
    for gamma, target in expected.items():
        rob = robustify_artifacts(art, capacity_preset(art, fraction=0.1, gamma=gamma))
        sol = solve_milp(rob.model)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(target, rel=1e-9)
        seen.append(sol.objective)
    assert seen == sorted(seen)
    assert all(b > a for a, b in zip(seen, seen[1:]))
    nominal = solve_milp(art.model)
    assert seen[0] == pytest.approx(nominal.objective, rel=1e-12)
