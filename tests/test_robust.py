import json

import pytest

from helpers import (KNAP_CAP as CAP, KNAP_DEVS as DEVS,
                     KNAP_PROFITS as PROFITS, KNAP_WEIGHTS as WEIGHTS,
                     brute_force_robust_profit, full_dual_counterpart, knapsack_model,
                     netgen_instance)
from rlnd.builders import build_system_model
from rlnd.milp import LinExpr, MilpModel, ModelError, RowTag, Status, solve_milp
from rlnd.robust import (RowUncertainty, UncertaintySpec, capacity_preset,
                         load_uncertainty_spec, robustify, robustify_artifacts,
                         violation_bound)


def knapsack_spec(gamma):
    entry = RowUncertainty(gamma, {f"x{i}": d for i, d in enumerate(DEVS)})
    return UncertaintySpec({"capacity[knap]": entry})


def assert_same_optimum(model, spec):
    """The counterpart against a dual on every protected row: different LPs
    with the same optimum, so the engine's answers may differ in the last
    digit (at most 7e-16 relative on the capacity presets below), never
    more."""
    robust = solve_milp(robustify(model, spec))
    reference = solve_milp(full_dual_counterpart(model, spec))
    assert robust.status is Status.OPTIMAL and reference.status is Status.OPTIMAL
    assert robust.objective == pytest.approx(reference.objective, rel=1e-14, abs=0.0)
    return robust


def dual_entries(model):
    return ([name for name in model.variables if name.startswith(("GAMMA[", "DEV["))]
            + [str(row.tag) for row in model.rows if row.tag.family == "robust-dual"])


def test_zero_budget_is_nominal(bundled):
    nominal = solve_milp(knapsack_model())
    robust = solve_milp(robustify(knapsack_model(), knapsack_spec(0.0)))
    assert robust.status is Status.OPTIMAL
    assert robust.objective == nominal.objective

    def shape(model):
        return ([(v.name, v.lb, v.ub, v.binary) for v in model.variables.values()],
                [(row.tag, row.expr.terms, row.relation, row.rhs) for row in model.rows],
                model.objective)

    artifacts = build_system_model(bundled)
    for model, spec in ((knapsack_model(), knapsack_spec(0.0)),
                        (artifacts.model, capacity_preset(artifacts, gamma=0.0))):
        assert shape(robustify(model, spec)) == shape(model)


def test_full_budget_is_all_coefficients_at_bound():
    robust = robustify(knapsack_model(), knapsack_spec(len(WEIGHTS)))
    full = solve_milp(robust)

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
    # no dual is needed: the row is the worst case itself
    assert dual_entries(robust) == []
    assert list(robust.variables) == list(worst.variables)
    assert [row.expr.terms for row in robust.rows] == [load.terms]


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0])
def test_budget_matches_exhaustive_enumeration(gamma):
    sol = assert_same_optimum(knapsack_model(), knapsack_spec(gamma))
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


def covering_model(third_coeff=4.0):
    model = MilpModel("cover")
    need = LinExpr()
    cost = LinExpr()
    for name, coeff, price in (("a", 2.0, 1.0), ("b", 3.0, 2.0), ("c", third_coeff, 2.5)):
        model.add_variable(name, binary=True)
        need.add(name, coeff)
        cost.add(name, price)
    model.add_row(need, ">=", 4.0, RowTag("demand", ("cover",)))
    model.set_objective(cost)
    return model


def test_covering_row_protects_against_coefficient_drops():
    # >= rows protect the low side: the adversary shrinks coefficients
    nominal = solve_milp(covering_model())
    assert nominal.objective == pytest.approx(2.5)  # c alone covers 4

    spec = UncertaintySpec({"demand[cover]": RowUncertainty(1.0, {"c": 1.5})})
    robust = solve_milp(robustify(covering_model(), spec))
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


# ----------------------------------------------------------------------
# the three row kinds against a dual on every protected row
# ----------------------------------------------------------------------

def signed_model():
    """x pays to go negative, so its deviation acts on |x|."""
    model = MilpModel("signed")
    model.add_variable("x", -5.0, 5.0)
    model.add_variable("y", 0.0, 8.0)
    model.add_variable("z", binary=True)
    model.add_row(LinExpr({"x": 1.0, "y": 1.0, "z": 2.0}), "<=", 3.0, RowTag("cap"))
    model.set_objective(LinExpr({"x": 0.5, "y": -1.0, "z": -1.5}))
    return model


def test_a_zero_deviation_leaves_the_budget_full():
    devs = {"x0": 1.0, "x1": 0.0, "x2": 1.2, "x3": 0.6}
    spec = UncertaintySpec({"capacity[knap]": RowUncertainty(3.5, devs)})
    assert_same_optimum(knapsack_model(), spec)
    assert dual_entries(robustify(knapsack_model(), spec)) == []


@pytest.mark.parametrize("gamma, devs", [(1.0, {"c": 1.5}), (0.5, {"c": 1.5}),
                                         (1.0, {"b": 1.0, "c": 1.5})],
                         ids=["folded", "dualized-one", "dualized-two"])
def test_covering_counterpart_matches_the_full_dual(gamma, devs):
    spec = UncertaintySpec({"demand[cover]": RowUncertainty(gamma, devs)})
    assert_same_optimum(covering_model(), spec)
    assert (dual_entries(robustify(covering_model(), spec)) == []) is (gamma == len(devs))


@pytest.mark.parametrize("gamma, devs", [(1.0, {"x": 0.5}), (2.0, {"x": 0.5, "y": 0.25}),
                                         (1.0, {"x": 0.5, "y": 0.25}),
                                         (1.5, {"x": 0.5, "y": 0.25, "z": 1.0})],
                         ids=["folded", "folded-two", "dualized", "dualized-three"])
def test_signed_counterpart_matches_the_full_dual(gamma, devs):
    spec = UncertaintySpec({"cap": RowUncertainty(gamma, devs)})
    robust = assert_same_optimum(signed_model(), spec)
    assert robust.values["x"] < 0.0
    assert robust.objective > solve_milp(signed_model()).objective


@pytest.mark.parametrize("objective", ["cost", "emission"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3],
                         ids=["bundled"] + [f"netgen-5x4x3-{s}" for s in range(4)])
def test_capacity_preset_matches_the_full_dual(seed, objective, bundled):
    instance = bundled if seed is None else netgen_instance(5, 4, 3, seed=seed)
    artifacts = build_system_model(instance, objective)
    for gamma in (0.0, 1.0, 2.0):
        assert_same_optimum(artifacts.model, capacity_preset(artifacts, gamma=gamma))


def test_split_budget_rows_keep_one_index_per_protected_row(bundled):
    artifacts = build_system_model(bundled)
    spec = capacity_preset(artifacts, gamma=1.0)
    protected = [str(row.tag) for row in artifacts.model.rows if str(row.tag) in spec.rows]
    split = [f"GAMMA[{k}|{key}]" for k, key in enumerate(protected)
             if spec.rows[key].gamma < len(spec.rows[key].deviations)]
    robust = robustify(artifacts.model, spec)
    assert 0 < len(split) < len(protected)
    assert [name for name in robust.variables if name.startswith("GAMMA[")] == split
