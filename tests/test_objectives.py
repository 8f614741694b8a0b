import dataclasses

import pytest

from rlnd import builders, objectives
from rlnd.builders import build_system_model, build_user_model_i, build_user_model_ii
from rlnd.milp import EmbeddedSolver, Status
from rlnd.objectives import (breakdown_from_solution, collected_quantities,
                             effective_opens, facility_inflows, merge_phases)
from rlnd.robust import capacity_preset, robustify_artifacts
from rlnd.scenarios import derive_throughput, solve_system, solve_user

# exact optima of the bundled instance (unit trip factor), frozen from an
# independently verified hand computation of the closed-form plan
FROZEN_TOTAL_COST = 58899.99162041
FROZEN_REVENUE = 2474.39813306
FROZEN_OFFSET = 4480.95672671
FROZEN_EMISSION = 50524.93416341
FROZEN_TRIP_COST = 34800.0


# ----------------------------------------------------------------------
# independent evaluation written with plain loops
# ----------------------------------------------------------------------

def reference_multiplier(inst, h, c):
    s = inst.supply
    if s.population is not None and s.household_size is not None \
            and s.participation is not None:
        households = s.population[h] / s.household_size
        return households * s.participation * s.trips_per_year * s.dedicated_fraction[c]
    return s.trip_factor.get(h, 1.0) * s.trips_per_year * s.dedicated_fraction[c]


def reference_stages(inst, vars, values):
    proc = inst.processing
    out = {"transport_cost": {}, "processing_cost": {}, "fixed_cost": {},
           "resale_revenue": {}, "transport_emission": {},
           "processing_emission": {}, "emission_offset": {}}

    trip_c = trip_e = 0.0
    for (i, h, c), name in vars.rtd.items():
        arc = inst.arcs["res_drop"][h][c]
        m = reference_multiplier(inst, h, c)
        trip_c += m * arc.cost * arc.distance * values[name]
        trip_e += m * arc.emission * arc.distance * values[name]
    out["transport_cost"]["residence-dropoff"] = trip_c
    out["transport_emission"]["residence-dropoff"] = trip_e

    leg_c = leg_e = 0.0
    for (i, c, p), name in vars.dtp.items():
        arc = inst.arcs["drop_pri"][c][p]
        leg_c += arc.cost * arc.distance * values[name]
        leg_e += arc.emission * arc.distance * values[name]
    out["transport_cost"]["dropoff-primary"] = leg_c
    out["transport_emission"]["dropoff-primary"] = leg_e

    leg_c = leg_e = 0.0
    for (j, p, s), name in vars.pts.items():
        arc = inst.arcs["pri_sec"][p][s]
        leg_c += arc.cost * arc.distance * values[name]
        leg_e += arc.emission * arc.distance * values[name]
    out["transport_cost"]["primary-secondary"] = leg_c
    out["transport_emission"]["primary-secondary"] = leg_e

    def tally(stage, items, facilities, inflow_of, entry_of, resale_of):
        cost = rev = em = off = 0.0
        for it in items:
            for f in facilities:
                inflow = inflow_of(it, f)
                e = entry_of(f, it)
                keep = 1.0 - resale_of(it)
                cost += e.cost * keep * inflow
                em += e.emission * keep * inflow
                rev += e.credit * resale_of(it) * inflow
                off += e.offset * resale_of(it) * inflow
        out["processing_cost"][stage] = cost
        out["processing_emission"][stage] = em
        out["resale_revenue"][stage] = rev
        out["emission_offset"][stage] = off

    def dropoff_inflow(i, c):
        return sum(inst.supply.mass[i][h] * values[vars.rtd[(i, h, c)]]
                   for h in inst.areas if (i, h, c) in vars.rtd)

    def primary_inflow(i, p):
        return sum(values[vars.dtp[(i, c, p)]]
                   for c in inst.dropoffs if (i, c, p) in vars.dtp)

    def secondary_inflow(j, s):
        return sum(values[vars.pts[(j, p, s)]]
                   for p in inst.primaries if (j, p, s) in vars.pts)

    tally("dropoff", inst.products, inst.dropoffs, dropoff_inflow,
          lambda f, it: proc.entries["dropoff"][f][it], lambda it: proc.resale["dropoff"][it])
    tally("primary", inst.products, inst.primaries, primary_inflow,
          lambda f, it: proc.entries["primary"][f][it], lambda it: proc.resale["primary"][it])
    tally("secondary", inst.materials, inst.secondaries, secondary_inflow,
          lambda f, it: proc.entries["secondary"][f][it], lambda it: proc.resale["secondary"][it])

    out["fixed_cost"]["dropoff"] = sum(proc.fixed_cost[c] for c in inst.dropoffs
                                       if values[vars.x[c]] > 0.5)
    out["fixed_cost"]["primary"] = sum(proc.fixed_cost[p] for p in inst.primaries
                                       if values[vars.y[p]] > 0.5)
    out["fixed_cost"]["secondary"] = sum(proc.fixed_cost[s] for s in inst.secondaries
                                         if values[vars.r[s]] > 0.5)
    return out


def hand_plan_values(inst, vars):
    """Everything to drop1 then prim3 then sec1 -- the closed-form optimum."""
    proc = inst.processing
    values = {name: 0.0 for name in
              list(vars.rtd.values()) + list(vars.dtp.values()) + list(vars.pts.values())}
    for i in inst.products:
        for h in inst.areas:
            values[vars.rtd[(i, h, "drop1")]] = 1.0
    collected = {i: sum(inst.supply.mass[i][h] for h in inst.areas)
                 for i in inst.products}
    shipped = {i: (1.0 - proc.resale["dropoff"][i]) * collected[i] for i in inst.products}
    for i in inst.products:
        values[vars.dtp[(i, "drop1", "prim3")]] = shipped[i]
    for j in inst.materials:
        mass = sum(proc.composition[j][i] * (1.0 - proc.resale["primary"][i]) * shipped[i]
                   for i in inst.products)
        values[vars.pts[(j, "prim3", "sec1")]] = mass
    for c in inst.dropoffs:
        values[vars.x[c]] = 1.0 if c == "drop1" else 0.0
    for p in inst.primaries:
        values[vars.y[p]] = 1.0 if p == "prim3" else 0.0
    for s in inst.secondaries:
        values[vars.r[s]] = 1.0
    return values


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def test_stage_expressions_match_reference_on_hand_plan(bundled):
    art = build_system_model(bundled, "cost")
    values = hand_plan_values(bundled, art.vars)
    got = art.stages.evaluate(values)
    want = reference_stages(bundled, art.vars, values)
    for metric in want:
        for stage, value in want[metric].items():
            assert getattr(got, metric)[stage] == pytest.approx(value, abs=1e-9), \
                (metric, stage)
    assert got.transport_cost["residence-dropoff"] == pytest.approx(FROZEN_TRIP_COST)
    assert sum(got.resale_revenue.values()) == pytest.approx(FROZEN_REVENUE, abs=1e-6)
    assert sum(got.emission_offset.values()) == pytest.approx(FROZEN_OFFSET, abs=1e-6)
    assert got.total_cost == pytest.approx(FROZEN_TOTAL_COST, abs=1e-6)
    assert got.total_emission == pytest.approx(FROZEN_EMISSION, abs=1e-6)


def test_stage_expressions_match_reference_on_solved_plans(bundled, tight40):
    for inst, objective in ((bundled, "cost"), (tight40, "cost"),
                            (tight40, "emission")):
        art = build_system_model(inst, objective)
        sol = EmbeddedSolver().solve(art.model)
        assert sol.status is Status.OPTIMAL
        got = art.stages.evaluate(sol.values)
        want = reference_stages(inst, art.vars, sol.values)
        for metric in want:
            for stage, value in want[metric].items():
                assert getattr(got, metric)[stage] == pytest.approx(value, abs=1e-7)


def test_model_objective_equals_breakdown(bundled):
    for objective, total in (("cost", "total_cost"), ("emission", "total_emission")):
        art = build_system_model(bundled, objective)
        sol = EmbeddedSolver().solve(art.model)
        breakdown, _ = breakdown_from_solution(art.tiers, art.stages, sol)
        assert sol.objective == pytest.approx(getattr(breakdown, total), rel=1e-9)


def test_zero_flow_evaluates_to_zero(bundled):
    art = build_system_model(bundled, "cost")
    zeros = {name: 0.0 for name in art.model.variables}
    got = art.stages.evaluate(zeros)
    assert got.total_cost == 0.0
    assert got.total_emission == 0.0


def test_inflows_and_effective_opens(bundled):
    art = build_system_model(bundled, "cost")
    sol = EmbeddedSolver().solve(art.model)
    inflows = facility_inflows(art.tiers, sol.values)
    assert inflows["prim3"] == pytest.approx(2784.87, abs=1e-6)
    assert inflows["drop1"] == pytest.approx(3300.0, abs=1e-6)
    assert inflows["drop2"] == pytest.approx(0.0, abs=1e-6)
    dropoff = art.tiers[0]
    assert dropoff.inflow("prod1", "drop1").evaluate(sol.values) == pytest.approx(2100.0, abs=1e-6)
    opens = effective_opens(art.tiers, sol.values)
    assert opens["drop1"] and opens["prim3"] and opens["sec1"]
    assert not opens["drop2"] and not opens["prim1"] and not opens["prim2"]


def test_effective_opens_ignores_hollow_indicators(bundled):
    art = build_system_model(bundled, "cost")
    values = hand_plan_values(bundled, art.vars)
    values[art.vars.x["drop2"]] = 1.0  # indicated open, receives nothing
    opens = effective_opens(art.tiers, values)
    assert not opens["drop2"]


def test_effective_opens_tops_up_to_floor(bundled):
    art = build_system_model(bundled, "cost")
    values = {name: 0.0 for name in art.model.variables}
    # zero flow everywhere; indicators claim two primaries and one dropoff
    values[art.vars.x["drop2"]] = 1.0
    values[art.vars.y["prim2"]] = 1.0
    values[art.vars.y["prim3"]] = 1.0
    values[art.vars.r["sec1"]] = 1.0
    opens = effective_opens(art.tiers, values)
    # the one-per-tier floor is honoured from the indicated set, lowest first
    assert opens["drop2"] and not opens["drop1"]
    assert opens["prim2"] and not opens["prim3"] and not opens["prim1"]
    assert opens["sec1"]


def test_collected_quantities_user_phase(bundled):
    phase1 = build_user_model_i(bundled, "cost")
    s1 = EmbeddedSolver().solve(phase1.model)
    assert s1.status is Status.OPTIMAL
    rq = collected_quantities(phase1.tiers, s1.values)
    # each area uses its nearest dropoff
    assert rq["prod1"]["drop1"] == pytest.approx(1050.0, abs=1e-6)
    assert rq["prod1"]["drop2"] == pytest.approx(1050.0, abs=1e-6)
    assert rq["prod2"]["drop1"] == pytest.approx(600.0, abs=1e-6)
    assert rq["prod2"]["drop2"] == pytest.approx(600.0, abs=1e-6)


def test_merged_user_phases_match_reference(bundled):
    phase1 = build_user_model_i(bundled, "cost")
    s1 = EmbeddedSolver().solve(phase1.model)
    rq = collected_quantities(phase1.tiers, s1.values)
    phase2 = build_user_model_ii(bundled, rq, "cost")
    s2 = EmbeddedSolver().solve(phase2.model)
    table, merged_solution = merge_phases(phase1.tiers, s1, phase2.tiers, s2)
    breakdown, _ = breakdown_from_solution(
        table, phase1.stages.followed_by(phase2.stages), merged_solution)

    art = build_system_model(bundled, "cost")
    merged = {name: 0.0 for name in art.model.variables}
    merged.update(s1.values)
    merged.update(s2.values)
    want = reference_stages(bundled, art.vars, merged)
    for metric in ("transport_cost", "processing_cost", "resale_revenue",
                   "transport_emission", "processing_emission", "emission_offset"):
        for stage, value in want[metric].items():
            assert getattr(breakdown, metric)[stage] == pytest.approx(value, abs=1e-7)
    # both dropoffs and both used primaries carry flow, so fixed cost is 400
    assert sum(breakdown.fixed_cost.values()) == pytest.approx(400.0)


def test_revenue_invariant_under_dropoff_reordering(bundled):
    reordered = dataclasses.replace(bundled, dropoffs=("drop2", "drop1"))
    art = build_system_model(reordered, "cost")
    sol = EmbeddedSolver().solve(art.model)
    breakdown, _ = breakdown_from_solution(art.tiers, art.stages, sol)
    assert sum(breakdown.resale_revenue.values()) == pytest.approx(
        FROZEN_REVENUE, abs=1e-6)
    assert breakdown.total_cost == pytest.approx(FROZEN_TOTAL_COST, abs=1e-6)


def test_user_phases_report_only_their_own_tiers(bundled):
    phase1 = build_user_model_i(bundled, "cost")
    s1 = EmbeddedSolver().solve(phase1.model)
    rq = collected_quantities(phase1.tiers, s1.values)
    phase2 = build_user_model_ii(bundled, rq, "cost")
    s2 = EmbeddedSolver().solve(phase2.model)
    for art, sol, arcs, tiers, facilities in (
            (phase1, s1, ["residence-dropoff"], ["dropoff"], bundled.dropoffs),
            (phase2, s2, ["dropoff-primary", "primary-secondary"], ["primary", "secondary"],
             bundled.primaries + bundled.secondaries)):
        stages = art.stages
        assert list(stages.transport_cost) == list(stages.transport_emission) == arcs
        for table in (stages.processing_cost, stages.processing_emission,
                      stages.fixed_cost, stages.resale_revenue, stages.emission_offset):
            assert list(table) == tiers
        assert list(facility_inflows(art.tiers, sol.values)) == list(facilities)
    assert facility_inflows(phase1.tiers, s1.values)["drop1"] == pytest.approx(
        sum(rq[i]["drop1"] for i in bundled.products), abs=1e-9)


def test_the_tier_table_is_joined_once_per_build(bundled, monkeypatch):
    """Reports, the phase merge and the throughput read use the table the
    builder joined: the joins, wherever a module binds ``tiers``, are the
    builds."""
    joins = []

    def counted(*args, _tiers=objectives.tiers):
        joins.append(args)
        return _tiers(*args)

    monkeypatch.setattr(builders, "tiers", counted)
    monkeypatch.setattr(objectives, "tiers", counted)
    first, second = dataclasses.replace(bundled), dataclasses.replace(bundled)
    assert solve_system(first, "emission").breakdown is not None
    assert solve_user(first, "emission").breakdown is not None
    derive_throughput(second)
    builds = sum(len(builders._BUILT[id(instance)]) for instance in (first, second))
    assert builds == 4  # system emission, both user phases, system cost
    assert len(joins) == builds


def test_copies_and_counterparts_share_the_tier_table(bundled):
    art = build_system_model(bundled, "cost")
    assert build_system_model(bundled, "cost").tiers is art.tiers
    assert robustify_artifacts(art, capacity_preset(art)).tiers is art.tiers


def test_merge_phases_takes_each_tier_from_the_phase_that_routes_it(bundled):
    phase1 = build_user_model_i(bundled, "cost")
    s1 = EmbeddedSolver().solve(phase1.model)
    phase2 = build_user_model_ii(bundled, collected_quantities(phase1.tiers, s1.values), "cost")
    s2 = EmbeddedSolver().solve(phase2.model)
    table, _ = merge_phases(phase1.tiers, s1, phase2.tiers, s2)
    assert [tier.name for tier in table] == ["dropoff", "primary", "secondary"]
    assert table[0] is phase1.tiers[0]
    assert table[1] is phase2.tiers[1] and table[2] is phase2.tiers[2]
