"""Assembles the solvable models: the single whole-network program and the
two-phase pair that mimics decentralized (user-driven) behaviour.

All rows are tagged by constraint family so dumps, tests and the robust
transformer can address them; see :class:`rlnd.milp.RowTag`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import NetworkInstance, validate
from .milp import LinExpr, MilpModel, ModelError, RowTag
from .objectives import (StageExpressions, Tier, VariableMap, _dropoff_inflow,
                         build_stage_expressions, tiers)

OBJECTIVES = ("cost", "emission")


@dataclass
class ModelArtifacts:
    """A built model plus everything needed to interpret its solution."""

    model: MilpModel
    vars: VariableMap
    stages: StageExpressions

    def dump(self) -> str:
        """Tagged LP-format text for auditing / external cross-checks."""
        return self.model.to_lp_format()


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def _checked(instance: NetworkInstance) -> NetworkInstance:
    report = validate(instance)
    report.assert_valid()
    return instance


def _register_rtd(model: MilpModel, instance: NetworkInstance) -> dict:
    rtd = {}
    for i in instance.products:
        for h in instance.areas:
            for c in instance.dropoffs:
                if instance.arcs.res_drop[h][c].forbidden:
                    continue
                rtd[(i, h, c)] = model.add_variable(f"RTD[{i},{h},{c}]", 0.0, 1.0)
    return rtd


def _register_downstream(model: MilpModel, instance: NetworkInstance) -> tuple[dict, dict]:
    dtp, pts = {}, {}
    for i in instance.products:
        for c in instance.dropoffs:
            for p in instance.primaries:
                if instance.arcs.drop_pri[c][p].forbidden:
                    continue
                dtp[(i, c, p)] = model.add_variable(f"DTP[{i},{c},{p}]")
    for j in instance.materials:
        for p in instance.primaries:
            for s in instance.secondaries:
                if instance.arcs.pri_sec[p][s].forbidden:
                    continue
                pts[(j, p, s)] = model.add_variable(f"PTS[{j},{p},{s}]")
    return dtp, pts


def _add_trip_balance(model: MilpModel, instance: NetworkInstance, vars: VariableMap) -> None:
    for i in instance.products:
        for h in instance.areas:
            expr = LinExpr()
            for c in instance.dropoffs:
                name = vars.rtd.get((i, h, c))
                if name is not None:
                    expr.add(name, 1.0)
            if not expr.terms:
                model.warnings.append(f"area {h} has no reachable dropoff for {i}; "
                                      "trip balance row is infeasible")
            model.add_row(expr, "==", 1.0, RowTag("flow-balance", ("trip", i, h)))


def _add_gates(model: MilpModel, instance: NetworkInstance, gated: tuple[Tier, ...]) -> None:
    """Per-item capacity and minimum-shipment rows of each tier, then the
    aggregate (all items) capacity rows of facilities that declare one."""
    for tier in gated:
        for it in tier.items:
            for f in tier.facilities:
                inflow, entry = tier.inflow(it, f), tier.entries[f][it]
                model.add_row(inflow.copy().add(tier.opens[f], -entry.capacity), "<=", 0.0,
                              RowTag("capacity", (tier.name, it, f)))
                model.add_row(inflow.copy().add(tier.opens[f], -entry.min_shipment), ">=", 0.0,
                              RowTag("min-shipment", (tier.name, it, f)))
    for tier in gated:
        for f, cap in instance.processing.total_capacity.items():
            if f in tier.facilities:
                expr = LinExpr()
                for it in tier.items:
                    expr.add_expr(tier.inflow(it, f))
                model.add_row(expr.add(tier.opens[f], -cap), "<=", 0.0,
                              RowTag("capacity", ("total", f)))


def _add_dropoff_balance(model: MilpModel, instance: NetworkInstance, vars: VariableMap,
                         rq: dict[str, dict[str, float]] | None = None) -> None:
    """What each dropoff ships to the primaries is the non-resold share of
    what arrives: the RTD inflow, or the collected mass ``rq[i][c]`` when
    the assignment is already fixed."""
    for i in instance.products:
        share = 1.0 - instance.processing.resale_dropoff[i]
        for c in instance.dropoffs:
            balance = LinExpr()
            for p in instance.primaries:
                name = vars.dtp.get((i, c, p))
                if name is not None:
                    balance.add(name, 1.0)
            if rq is None:
                balance.add_expr(_dropoff_inflow(instance, vars, i, c), -share)
                rhs = 0.0
            else:
                rhs = share * rq.get(i, {}).get(c, 0.0)
            model.add_row(balance, "==", rhs, RowTag("flow-balance", ("dropoff", i, c)))


def _add_primary_balance(model: MilpModel, instance: NetworkInstance,
                         vars: VariableMap) -> None:
    proc = instance.processing
    for j in instance.materials:
        for p in instance.primaries:
            expr = LinExpr()
            for s in instance.secondaries:
                name = vars.pts.get((j, p, s))
                if name is not None:
                    expr.add(name, 1.0)
            for i in instance.products:
                factor = (proc.composition[j][i] * proc.eff(j, p)
                          * (1.0 - proc.resale_primary[i]))
                for c in instance.dropoffs:
                    name = vars.dtp.get((i, c, p))
                    if name is not None:
                        expr.add(name, -factor)
            model.add_row(expr, "==", 0.0, RowTag("flow-balance", ("primary", j, p)))


def _add_open_counts(model: MilpModel, instance: NetworkInstance,
                     counted: tuple[Tier, ...]) -> None:
    for tier in counted:
        expr = LinExpr()
        for name in tier.opens.values():
            expr.add(name, 1.0)
        nof = instance.processing.min_open.get(tier.name, 0)
        model.add_row(expr, ">=", float(nof), RowTag("open-count", (tier.name,)))


def _structural_warnings(instance: NetworkInstance) -> list[str]:
    """Capacity shortfalls that make the model infeasible by construction;
    reported at build time, the solver still renders the verdict."""
    out: list[str] = []
    proc = instance.processing
    for i in instance.products:
        supply = instance.total_supply(i)
        drp_cap = sum(proc.dropoff[c][i].capacity for c in instance.dropoffs)
        if drp_cap < supply:
            out.append(f"dropoff capacity {drp_cap:g} below supply {supply:g} for {i}")
        downstream = (1.0 - proc.resale_dropoff[i]) * supply
        pri_cap = sum(proc.primary[p][i].capacity for p in instance.primaries)
        if pri_cap < downstream:
            out.append(f"primary capacity {pri_cap:g} below expected inflow "
                       f"{downstream:g} for {i}")
    totals = [proc.total_capacity.get(p) for p in instance.primaries]
    if all(t is not None for t in totals) and totals:
        mass = sum((1.0 - proc.resale_dropoff[i]) * instance.total_supply(i)
                   for i in instance.products)
        if sum(totals) < mass:
            out.append(f"aggregate primary capacity {sum(totals):g} below "
                       f"expected inflow {mass:g}")
    return out


def build_system_model(instance: NetworkInstance, objective: str = "cost",
                       include_policy: bool = True) -> ModelArtifacts:
    """Whole-network program: one decision maker routes everything."""
    _check_objective(objective)
    _checked(instance)
    model = MilpModel(f"{instance.name}:system:{objective}")
    rtd = _register_rtd(model, instance)
    dtp, pts = _register_downstream(model, instance)
    x = {c: model.add_variable(f"X[{c}]", binary=True) for c in instance.dropoffs}
    y = {p: model.add_variable(f"Y[{p}]", binary=True) for p in instance.primaries}
    r = {s: model.add_variable(f"R[{s}]", binary=True) for s in instance.secondaries}
    vars = VariableMap(rtd=rtd, dtp=dtp, pts=pts, x=x, y=y, r=r)

    model.warnings.extend(_structural_warnings(instance))
    _add_trip_balance(model, instance, vars)
    _add_dropoff_balance(model, instance, vars)
    table = tiers(instance, vars)
    _add_gates(model, instance, table[:1])
    _add_primary_balance(model, instance, vars)
    _add_gates(model, instance, table[1:])
    _add_open_counts(model, instance, table)

    stages = build_stage_expressions(instance, vars)
    objective_expr = stages.total_cost() if objective == "cost" else stages.total_emission()
    model.set_objective(objective_expr)

    artifacts = ModelArtifacts(model, vars, stages)
    if include_policy and instance.policy is not None:
        add_policy_constraints(artifacts, instance)
    return artifacts


def build_user_model_i(instance: NetworkInstance, objective: str = "cost",
                       include_policy: bool = True) -> ModelArtifacts:
    """Residents' phase: pick dropoffs to minimize their own trip burden.

    Only the residence->dropoff legs exist here; fixed costs are charged later
    during composition, which is what makes the split decentralized.
    """
    _check_objective(objective)
    _checked(instance)
    model = MilpModel(f"{instance.name}:user-I:{objective}")
    rtd = _register_rtd(model, instance)
    x = {c: model.add_variable(f"X[{c}]", binary=True) for c in instance.dropoffs}
    vars = VariableMap(rtd=rtd, x=x)

    _add_trip_balance(model, instance, vars)
    dropoff = tiers(instance, vars)[:1]
    _add_gates(model, instance, dropoff)
    _add_open_counts(model, instance, dropoff)

    stages = build_stage_expressions(instance, vars)
    key = "residence-dropoff"
    expr = stages.transport_cost[key] if objective == "cost" else stages.transport_emission[key]
    model.set_objective(expr.copy())

    artifacts = ModelArtifacts(model, vars, stages)
    if include_policy and instance.policy is not None:
        add_policy_constraints(artifacts, instance)
    return artifacts


def build_user_model_ii(instance: NetworkInstance, rq: dict[str, dict[str, float]],
                        objective: str = "cost") -> ModelArtifacts:
    """Operator's phase: route the collected mass rq[i][c] downstream."""
    _check_objective(objective)
    _checked(instance)
    for i in instance.products:
        collected = sum(rq.get(i, {}).get(c, 0.0) for c in instance.dropoffs)
        supply = instance.total_supply(i)
        if abs(collected - supply) > 1e-6 * max(1.0, supply):
            raise ModelError(f"collected mass {collected:g} for {i} does not match "
                             f"supply {supply:g}")

    model = MilpModel(f"{instance.name}:user-II:{objective}")
    dtp, pts = _register_downstream(model, instance)
    y = {p: model.add_variable(f"Y[{p}]", binary=True) for p in instance.primaries}
    r = {s: model.add_variable(f"R[{s}]", binary=True) for s in instance.secondaries}
    vars = VariableMap(dtp=dtp, pts=pts, y=y, r=r)

    _add_dropoff_balance(model, instance, vars, rq)
    _add_primary_balance(model, instance, vars)
    downstream = tiers(instance, vars)[1:]
    _add_gates(model, instance, downstream)
    _add_open_counts(model, instance, downstream)

    stages = build_stage_expressions(instance, vars)
    objective_expr = stages.total_cost() if objective == "cost" else stages.total_emission()
    model.set_objective(objective_expr)
    return ModelArtifacts(model, vars, stages)


def add_policy_constraints(artifacts: ModelArtifacts,
                           instance: NetworkInstance) -> ModelArtifacts:
    """County/city siting floors on the dropoff indicators.

    Counties need at least one open dropoff, or one per qualifying city
    (population above the threshold) if that is more; each qualifying city
    needs an open dropoff of its own.  A county or qualifying city with no
    candidate dropoff yields an unsatisfiable row plus a build warning — the
    data, not the builder, is wrong in that case.
    """
    pol = instance.policy
    if pol is None:
        return artifacts
    if not artifacts.vars.x:
        raise ModelError("policy constraints need dropoff indicators (X)")
    model, x = artifacts.model, artifacts.vars.x

    counties: list[str] = []
    for c in instance.dropoffs:
        u = pol.county_of.get(c)
        if u is not None and u not in counties:
            counties.append(u)
    for city in pol.city_population:
        u = pol.city_county.get(city)
        if u is not None and u not in counties:
            counties.append(u)

    qualifying = pol.qualifying_cities()
    for u in counties:
        members = [c for c in instance.dropoffs if pol.county_of.get(c) == u]
        k_u = [t for t in qualifying if pol.city_county.get(t) == u]
        rhs = max(1, len(k_u))
        if len(members) < rhs:
            model.warnings.append(
                f"county {u} needs {rhs} open dropoffs but has {len(members)} candidates")
        expr = LinExpr()
        for c in members:
            expr.add(x[c], 1.0)
        model.add_row(expr, ">=", float(rhs), RowTag("policy", ("county", u)))
    for t in qualifying:
        members = [c for c in instance.dropoffs if pol.city_of.get(c) == t]
        if not members:
            model.warnings.append(f"qualifying city {t} has no candidate dropoff")
        expr = LinExpr()
        for c in members:
            expr.add(x[c], 1.0)
        model.add_row(expr, ">=", 1.0, RowTag("policy", ("city", t)))
    return artifacts
