import dataclasses
import gc
import hashlib
import weakref
from collections import Counter

import pytest

from helpers import netgen_instance
from rlnd import builders, scenarios
from rlnd.builders import (build_system_model, build_user_model_i,
                           build_user_model_ii)
from rlnd.domain import InstanceError, PolicyData, validate, with_total_capacity, with_trip_factor
from rlnd.milp import EmbeddedSolver, ModelError, Status
from rlnd.multiobjective import SystemEpsilonFamily, epsilon_sweep
from rlnd.objectives import collected_quantities
from rlnd.robust import capacity_preset, robustify_artifacts
from rlnd.scenarios import add_epsilon_row


def row_families(model):
    return Counter(row.tag.family for row in model.rows)


def max_row_residual(model, values):
    worst = 0.0
    for row in model.rows:
        lhs = row.expr.evaluate(values)
        if row.relation == "==":
            worst = max(worst, abs(lhs - row.rhs))
        elif row.relation == "<=":
            worst = max(worst, lhs - row.rhs)
        else:
            worst = max(worst, row.rhs - lhs)
    return worst


def test_system_model_shape(bundled):
    art = build_system_model(bundled, "cost")
    assert len(art.vars.rtd) == 8      # 2 products x 2 areas x 2 dropoffs
    assert len(art.vars.dtp) == 12     # 2 products x 2 dropoffs x 3 primaries
    assert len(art.vars.pts) == 9      # 3 materials x 3 primaries x 1 secondary
    assert len(art.vars.x) == 2 and len(art.vars.y) == 3 and len(art.vars.r) == 1
    assert len(art.model.variables) == 35
    fams = row_families(art.model)
    assert fams["flow-balance"] == 4 + 4 + 9   # trip, dropoff, primary-material
    assert fams["capacity"] == 4 + 6 + 3
    assert fams["min-shipment"] == 4 + 6 + 3
    assert fams["open-count"] == 3
    assert art.model.warnings == []
    binaries = set(art.model.binary_names)
    assert binaries == set(art.vars.x.values()) | set(art.vars.y.values()) \
        | set(art.vars.r.values())


def test_objective_selection(bundled):
    cost_art = build_system_model(bundled, "cost")
    em_art = build_system_model(bundled, "emission")
    # emission objective has no fixed-cost terms, cost does
    x_name = cost_art.vars.x["drop1"]
    assert x_name in cost_art.model.objective.terms
    assert x_name not in em_art.model.objective.terms
    with pytest.raises(ValueError):
        build_system_model(bundled, "profit")


def test_solution_satisfies_all_rows(bundled, tight40):
    for inst in (bundled, tight40):
        for objective in ("cost", "emission"):
            art = build_system_model(inst, objective)
            sol = EmbeddedSolver().solve(art.model)
            assert sol.status is Status.OPTIMAL
            assert max_row_residual(art.model, sol.values) <= 1e-6


def test_mass_conservation_on_solution(bundled):
    art = build_system_model(bundled, "cost")
    sol = EmbeddedSolver().solve(art.model)
    proc = bundled.processing
    for i in bundled.products:
        # everything supplied is assigned to exactly one dropoff
        for h in bundled.areas:
            total = sum(sol.values[art.vars.rtd[(i, h, c)]]
                        for c in bundled.dropoffs)
            assert total == pytest.approx(1.0, abs=1e-7)
        # post-resale mass leaves the dropoffs in full
        collected = bundled.total_supply(i)
        shipped = sum(sol.values[name] for (ii, c, p), name in art.vars.dtp.items()
                      if ii == i)
        assert shipped == pytest.approx(
            (1.0 - proc.resale["dropoff"][i]) * collected, rel=1e-9)


def test_forbidden_arc_removes_variables(bundled):
    inst = dataclasses.replace(bundled)
    res_drop = {h: dict(row) for h, row in bundled.arcs["res_drop"].items()}
    res_drop["area1"]["drop2"] = dataclasses.replace(
        bundled.arcs["res_drop"]["area1"]["drop2"], forbidden=True)
    inst = dataclasses.replace(bundled, arcs={**bundled.arcs, "res_drop": res_drop})
    art = build_system_model(inst, "cost")
    assert len(art.vars.rtd) == 6
    sol = EmbeddedSolver().solve(art.model)
    assert sol.status is Status.OPTIMAL


def test_unreachable_area_warns_and_is_infeasible(bundled):
    res_drop = {h: {c: dataclasses.replace(arc, forbidden=True) if h == "area1"
                    else arc for c, arc in row.items()}
                for h, row in bundled.arcs["res_drop"].items()}
    inst = dataclasses.replace(bundled, arcs={**bundled.arcs, "res_drop": res_drop})
    art = build_system_model(inst, "cost")
    assert any("area1" in w for w in art.model.warnings)
    assert EmbeddedSolver().solve(art.model).status is Status.INFEASIBLE


def test_capacity_shortfalls_warn_per_tier(bundled):
    def shrunk(table):
        return {f: {i: dataclasses.replace(e, capacity=0.01 * e.capacity)
                    for i, e in row.items()} for f, row in table.items()}

    proc = bundled.processing
    inst = dataclasses.replace(bundled, processing=dataclasses.replace(
        proc, entries={**proc.entries, "dropoff": shrunk(proc.entries["dropoff"]),
                       "primary": shrunk(proc.entries["primary"])},
        total_capacity={p: 1.0 for p in bundled.primaries}))
    assert build_system_model(inst, "cost").model.warnings == [
        "dropoff capacity 66 below supply 2100 for prod1",
        "primary capacity 99 below expected inflow 1772.19 for prod1",
        "dropoff capacity 66 below supply 1200 for prod2",
        "primary capacity 99 below expected inflow 1012.68 for prod2",
        "aggregate primary capacity 3 below expected inflow 2784.87"]


def test_dropoff_totals_below_supply_warn(bundled):
    short = with_total_capacity(bundled, {c: 1.0 for c in bundled.dropoffs})
    assert build_system_model(short, "cost").model.warnings == [
        "aggregate dropoff capacity 2 below supply 3300"]
    # a tier is checked only when each of its facilities declares a total
    partial = with_total_capacity(bundled, {bundled.dropoffs[0]: 1.0})
    assert build_system_model(partial, "cost").model.warnings == []


def test_user_model_i_shape(bundled):
    art = build_user_model_i(bundled, "cost")
    assert len(art.vars.rtd) == 8 and len(art.vars.x) == 2
    assert not art.vars.dtp and not art.vars.pts
    fams = row_families(art.model)
    assert fams["flow-balance"] == 4
    assert fams["capacity"] == 4 and fams["min-shipment"] == 4
    assert fams["open-count"] == 1
    # the residents' objective only sees their own trips
    assert set(art.model.objective.terms) <= set(art.vars.rtd.values())


TRIP_ROWS = """
flow-balance[trip,prod1,area1] flow-balance[trip,prod1,area2]
flow-balance[trip,prod2,area1] flow-balance[trip,prod2,area2]""".split()
DROPOFF_BALANCE_ROWS = """
flow-balance[dropoff,prod1,drop1] flow-balance[dropoff,prod1,drop2]
flow-balance[dropoff,prod2,drop1] flow-balance[dropoff,prod2,drop2]""".split()
DROPOFF_GATE_ROWS = """
capacity[dropoff,prod1,drop1] min-shipment[dropoff,prod1,drop1]
capacity[dropoff,prod1,drop2] min-shipment[dropoff,prod1,drop2]
capacity[dropoff,prod2,drop1] min-shipment[dropoff,prod2,drop1]
capacity[dropoff,prod2,drop2] min-shipment[dropoff,prod2,drop2]
capacity[total,drop2]""".split()
DOWNSTREAM_ROWS = """
flow-balance[primary,mat1,prim1] flow-balance[primary,mat1,prim2]
flow-balance[primary,mat1,prim3] flow-balance[primary,mat2,prim1]
flow-balance[primary,mat2,prim2] flow-balance[primary,mat2,prim3]
flow-balance[primary,mat3,prim1] flow-balance[primary,mat3,prim2]
flow-balance[primary,mat3,prim3]
capacity[primary,prod1,prim1] min-shipment[primary,prod1,prim1]
capacity[primary,prod1,prim2] min-shipment[primary,prod1,prim2]
capacity[primary,prod1,prim3] min-shipment[primary,prod1,prim3]
capacity[primary,prod2,prim1] min-shipment[primary,prod2,prim1]
capacity[primary,prod2,prim2] min-shipment[primary,prod2,prim2]
capacity[primary,prod2,prim3] min-shipment[primary,prod2,prim3]
capacity[secondary,mat1,sec1] min-shipment[secondary,mat1,sec1]
capacity[secondary,mat2,sec1] min-shipment[secondary,mat2,sec1]
capacity[secondary,mat3,sec1] min-shipment[secondary,mat3,sec1]
capacity[total,prim2] capacity[total,sec1]""".split()


def test_row_order_of_every_model(bundled):
    # total capacities listed against tier order: each tier's total rows
    # still follow its per-item rows, the primary and secondary ones after
    # both tiers' per-item rows
    inst = with_total_capacity(bundled, {"sec1": 1e4, "prim2": 1e4, "drop2": 1e4})
    tags = lambda art: [str(row.tag) for row in art.model.rows]
    system = build_system_model(inst, "cost")
    assert tags(system) == (TRIP_ROWS + DROPOFF_BALANCE_ROWS + DROPOFF_GATE_ROWS
                            + DOWNSTREAM_ROWS + ["open-count[dropoff]", "open-count[primary]",
                                                 "open-count[secondary]"])
    phase1 = build_user_model_i(inst, "cost")
    assert tags(phase1) == TRIP_ROWS + DROPOFF_GATE_ROWS + ["open-count[dropoff]"]
    s1 = EmbeddedSolver().solve(phase1.model)
    phase2 = build_user_model_ii(inst, collected_quantities(phase1.tiers, s1.values))
    assert tags(phase2) == (DROPOFF_BALANCE_ROWS + DOWNSTREAM_ROWS
                            + ["open-count[primary]", "open-count[secondary]"])


def test_column_order_of_every_model(bundled):
    # every flow family in (item, source, facility) loop order, then every
    # open family: LP dumps and lowest-index tie-breaks depend on it
    def runs(art):
        out = []
        for name in art.model.variables:
            prefix = name.split("[")[0]
            if not out or out[-1] != prefix:
                out.append(prefix)
        return out

    b = bundled
    system = build_system_model(b, "cost")
    assert runs(system) == ["RTD", "DTP", "PTS", "X", "Y", "R"]
    assert list(system.model.variables) == (
        [f"RTD[{i},{h},{c}]" for i in b.products for h in b.areas for c in b.dropoffs]
        + [f"DTP[{i},{c},{p}]" for i in b.products for c in b.dropoffs for p in b.primaries]
        + [f"PTS[{j},{p},{s}]" for j in b.materials for p in b.primaries
           for s in b.secondaries]
        + [f"X[{c}]" for c in b.dropoffs] + [f"Y[{p}]" for p in b.primaries]
        + [f"R[{s}]" for s in b.secondaries])
    assert runs(build_user_model_i(b, "cost")) == ["RTD", "X"]
    rq = {"prod1": {"drop1": 2100.0, "drop2": 0.0},
          "prod2": {"drop1": 1200.0, "drop2": 0.0}}
    assert runs(build_user_model_ii(b, rq, "cost")) == ["DTP", "PTS", "Y", "R"]


def test_user_model_ii_balance_rhs(bundled):
    rq = {"prod1": {"drop1": 2100.0, "drop2": 0.0},
          "prod2": {"drop1": 1200.0, "drop2": 0.0}}
    art = build_user_model_ii(bundled, rq, "cost")
    balance = [row for row in art.model.rows
               if row.tag.family == "flow-balance" and row.tag.scope[0] == "dropoff"]
    by_scope = {row.tag.scope: row.rhs for row in balance}
    re1 = bundled.processing.resale["dropoff"]["prod1"]
    assert by_scope[("dropoff", "prod1", "drop1")] == pytest.approx((1 - re1) * 2100.0)
    assert by_scope[("dropoff", "prod1", "drop2")] == 0.0


def test_user_model_ii_rejects_mass_mismatch(bundled):
    rq = {"prod1": {"drop1": 1.0, "drop2": 0.0},
          "prod2": {"drop1": 1200.0, "drop2": 0.0}}
    with pytest.raises(ModelError):
        build_user_model_ii(bundled, rq, "cost")


def test_user_composition_consistent(bundled):
    phase1 = build_user_model_i(bundled, "cost")
    s1 = EmbeddedSolver().solve(phase1.model)
    rq = collected_quantities(phase1.tiers, s1.values)
    phase2 = build_user_model_ii(bundled, rq, "cost")
    s2 = EmbeddedSolver().solve(phase2.model)
    assert s2.status is Status.OPTIMAL
    # phase II moved exactly the post-resale collected mass
    for i in bundled.products:
        shipped = sum(s2.values[name] for (ii, c, p), name in phase2.vars.dtp.items()
                      if ii == i)
        want = (1.0 - bundled.processing.resale["dropoff"][i]) * bundled.total_supply(i)
        assert shipped == pytest.approx(want, rel=1e-9)


def test_policy_rows(bundled):
    policy = PolicyData(
        county_of={"drop1": "u1", "drop2": "u2"},
        city_of={"drop1": "t1", "drop2": "t2"},
        city_population={"t1": 50000.0, "t2": 2000.0},
        city_county={"t1": "u1", "t2": "u2"})
    inst = dataclasses.replace(bundled, policy=policy)
    art = build_system_model(inst, "cost")
    policy_rows = {str(row.tag): row for row in art.model.rows
                   if row.tag.family == "policy"}
    # two county floors plus one qualifying-city floor (t2 is under threshold)
    assert set(policy_rows) == {"policy[county,u1]", "policy[county,u2]",
                                "policy[city,t1]"}
    assert policy_rows["policy[county,u1]"].rhs == 1.0
    sol = EmbeddedSolver().solve(art.model)
    assert sol.status is Status.OPTIMAL
    # both counties must now host an open dropoff
    assert sol.values[art.vars.x["drop1"]] == pytest.approx(1.0)
    assert sol.values[art.vars.x["drop2"]] == pytest.approx(1.0)
    relaxed = build_system_model(inst, "cost", include_policy=False)
    assert not any(row.tag.family == "policy" for row in relaxed.model.rows)
    base = EmbeddedSolver().solve(relaxed.model)
    assert base.objective <= sol.objective + 1e-9


def test_policy_county_floor_counts_qualifying_cities(bundled):
    # one county containing both dropoffs and two qualifying cities: the
    # county floor rises to 2
    policy = PolicyData(
        county_of={"drop1": "u1", "drop2": "u1"},
        city_of={"drop1": "t1", "drop2": "t2"},
        city_population={"t1": 30000.0, "t2": 40000.0},
        city_county={"t1": "u1", "t2": "u1"})
    inst = dataclasses.replace(bundled, policy=policy)
    art = build_system_model(inst, "cost")
    county = next(row for row in art.model.rows
                  if str(row.tag) == "policy[county,u1]")
    assert county.rhs == 2.0


def test_policy_without_candidates_is_infeasible(bundled):
    # a qualifying city with no candidate dropoff cannot be satisfied
    policy = PolicyData(
        county_of={"drop1": "u1", "drop2": "u1"},
        city_of={},
        city_population={"t9": 99000.0},
        city_county={"t9": "u1"})
    inst = dataclasses.replace(bundled, policy=policy)
    art = build_system_model(inst, "cost")
    assert any("t9" in w for w in art.model.warnings)
    assert EmbeddedSolver().solve(art.model).status is Status.INFEASIBLE


def test_total_capacity_rows(tight40):
    art = build_system_model(tight40, "cost")
    totals = [row for row in art.model.rows if row.tag.scope[:1] == ("total",)]
    assert len(totals) == 3
    sol = EmbeddedSolver().solve(art.model)
    assert sol.status is Status.OPTIMAL
    cap = tight40.processing.total_capacity["prim1"]
    for p in tight40.primaries:
        inflow = sum(sol.values[name] for (i, c, pp), name in art.vars.dtp.items()
                     if pp == p)
        assert inflow <= cap + 1e-6


def test_dump_contains_tags(bundled):
    art = build_system_model(bundled, "cost")
    text = art.model.to_lp_format()
    assert "flow-balance[trip,prod1,area1]" in text
    assert "capacity[primary,prod2,prim3]" in text


POLICY = PolicyData(county_of={"drop1": "u1", "drop2": "u2"},
                    city_of={"drop1": "t1", "drop2": "t2"},
                    city_population={"t1": 50000.0, "t2": 2000.0},
                    city_county={"t1": "u1", "t2": "u2"})


def robust_capacity_preset(instance, objective, include_policy=True):
    """The capacity-preset counterpart at budget 1, as ``rlnd robust`` builds it."""
    artifacts = build_system_model(instance, objective, include_policy)
    return robustify_artifacts(artifacts, capacity_preset(artifacts, gamma=1.0))


def user_model_ii_even_split(instance, objective, include_policy=True):
    """Phase two with each product's supply split evenly over the dropoffs;
    phase two has no siting rows, so ``include_policy`` changes nothing."""
    rq = {i: {c: instance.total_supply(i) / len(instance.dropoffs) for c in instance.dropoffs}
          for i in instance.products}
    return build_user_model_ii(instance, rq, objective)


# SHA-256 of to_lp_format() on the bundled network, which has no siting
# policy, and on it with POLICY: pins column order, row order and names
LP_SHA256 = {
    (build_system_model, "cost"): (
        "fd417bc5d9d544bcfd9be92e5ce083db710c848f8b43a4f0405275001486483a",
        "e70aebc4e3ee8b310f997e3a3b1ea4d4a6ccc68f274d83b7b9e528bf6ec36515"),
    (build_system_model, "emission"): (
        "4436bdcec4df2179f64ee1c2223e72dd8aa9692f7db412771b609294c94fe42b",
        "ab7f83f25fa7892afa16a4e952c4cabf5931982467471c8db19a5a96982e1353"),
    (build_user_model_i, "cost"): (
        "112733dd48b68587cba697f252c5ee435fbe164dc240ca6f2558cafdfe9173d7",
        "572c6bee04fa2fc8b6f960d661ffe954c934ac97772efa242ff830553b6b75af"),
    (build_user_model_i, "emission"): (
        "504a699098035afae2e2cfc65e1576c372d20c4c9d0e2f4f3cdd6fd3a60056e8",
        "82cc6ad51a87c29f119a0a00dd636ca622bad8122a8018864f342f4b2272f25f"),
    (robust_capacity_preset, "cost"): (
        "d64343c3a80085768c88574b2180c0168a625a5f50a19a979e5e862c8730c806",
        "3133f46d7b3ddd1e5ac5101b82e5b4ac64671de46cf6d64afa1f050762498a66"),
    (robust_capacity_preset, "emission"): (
        "3072269910d99f4af8b3228099182f24ed8360976556d7f701d898c8853c35f6",
        "b3753b12e74ee4636dd5eb71974c2188f9f0f027def1bbfae4feb39c464a40b0"),
    (user_model_ii_even_split, "cost"): (
        "274c29f45cd909816b7683be162600b55587ddec879b73f15f6d81c2963cf50e",
        "274c29f45cd909816b7683be162600b55587ddec879b73f15f6d81c2963cf50e"),
    (user_model_ii_even_split, "emission"): (
        "0b3641fa4bb35f30663dd6dfcb6db6e1baae0152ed41ce2c56c06f3ea246f34f",
        "0b3641fa4bb35f30663dd6dfcb6db6e1baae0152ed41ce2c56c06f3ea246f34f"),
}


@pytest.mark.parametrize("builder, objective", list(LP_SHA256),
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_lp_dumps_are_pinned(builder, objective, bundled):
    digest = lambda art: hashlib.sha256(art.model.to_lp_format().encode("utf-8")).hexdigest()
    plain, with_policy = LP_SHA256[builder, objective]
    sited = dataclasses.replace(bundled, policy=POLICY)
    assert digest(builder(bundled, objective)) == plain
    assert digest(builder(sited, objective)) == with_policy
    assert digest(builder(sited, objective, include_policy=False)) == plain


# ----------------------------------------------------------------------
# one build per instance: every call returns a fresh copy
# ----------------------------------------------------------------------

@pytest.fixture
def validations(monkeypatch):
    """The number of times a builder has validated an instance so far."""
    calls = []

    def counted(instance):
        calls.append(instance)
        return validate(instance)

    monkeypatch.setattr(builders, "validate", counted)
    return calls


def test_a_repeated_build_is_a_fresh_copy_of_the_first(bundled, validations):
    inst = dataclasses.replace(bundled)
    first, second = (build_system_model(inst, "cost") for _ in range(2))
    assert len(validations) == 1
    assert first.model is not second.model
    assert first.model.rows is not second.model.rows
    assert first.model.rows[0] is second.model.rows[0]  # shared, never changed
    text = second.model.to_lp_format()
    assert first.model.to_lp_format() == text
    add_epsilon_row(first.model, first.stages.total("emission"), 0, 1e6, 1e-4,
                    first.model.objective)
    assert second.model.to_lp_format() == text
    assert build_system_model(inst, "cost").model.to_lp_format() == text
    assert build_system_model(inst, "emission").model.to_lp_format() != text
    assert len(validations) == 1  # once per instance, not per objective


def test_an_invalid_instance_fails_every_build(bundled, validations):
    bad = dataclasses.replace(bundled, products=())
    for _ in range(2):
        with pytest.raises(InstanceError, match="identifier list is empty"):
            build_system_model(bad, "cost")
    assert len(validations) == 2 and id(bad) not in builders._BUILT


def test_a_changed_copy_of_an_instance_is_built_again(bundled, validations):
    def trip_cost(instance):
        """The trip leg's and the objective's coefficients of one RTD share."""
        art = build_system_model(instance, "cost")
        name = art.vars.rtd["prod1", "area1", "drop1"]
        return art.stages.transport_cost["residence-dropoff"].terms[name], \
            art.model.objective.terms[name]

    once = with_trip_factor(bundled, 1.0)
    trip, total = trip_cost(once)
    assert trip_cost(once) == (trip, total)
    assert len(validations) == 1
    assert trip_cost(with_trip_factor(once, 2.0)) == pytest.approx((2.0 * trip, total + trip))
    arc = once.arcs["res_drop"]["area1"]["drop1"]
    res_drop = {**once.arcs["res_drop"],
                "area1": {**once.arcs["res_drop"]["area1"],
                          "drop1": dataclasses.replace(arc, cost=3.0 * arc.cost)}}
    dearer = dataclasses.replace(once, arcs={**once.arcs, "res_drop": res_drop})
    assert trip_cost(dearer) == pytest.approx((3.0 * trip, total + 2.0 * trip))
    assert len(validations) == 3


def test_what_was_built_goes_with_its_instance(bundled):
    gc.collect()
    before = len(builders._BUILT)
    inst = dataclasses.replace(bundled)
    build_user_model_i(inst, "cost")
    assert id(inst) in builders._BUILT
    alive = weakref.ref(inst)
    del inst
    assert alive() is None
    assert len(builders._BUILT) == before
    for _ in range(100):
        build_system_model(dataclasses.replace(bundled), "cost")
    assert len(builders._BUILT) == before


def test_a_user_ii_copy_takes_the_collected_mass_of_its_call(bundled, validations):
    split = lambda share: {i: {"drop1": share * bundled.total_supply(i),
                               "drop2": (1.0 - share) * bundled.total_supply(i)}
                           for i in bundled.products}
    inst = dataclasses.replace(bundled)
    build_user_model_ii(inst, split(0.5), "cost")
    hit = build_user_model_ii(inst, split(0.25), "cost")
    assert len(validations) == 1
    fresh = build_user_model_ii(dataclasses.replace(bundled), split(0.25), "cost")
    assert hit.model.to_lp_format() == fresh.model.to_lp_format()
    rq = split(0.25)
    rq["prod2"]["drop1"] += 1.0
    with pytest.raises(ModelError, match="collected mass"):
        build_user_model_ii(inst, rq, "cost")
    assert len(validations) == 2


def test_a_sweep_validates_its_instance_once(monkeypatch, validations):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_system_model(*args, **kwargs)

    monkeypatch.setattr(scenarios, "build_system_model", counted)
    front = epsilon_sweep(SystemEpsilonFamily(netgen_instance(5, 4, 3, seed=0)))
    assert len(front) >= 1
    assert len(builds) == 9
    assert len(validations) == 1
