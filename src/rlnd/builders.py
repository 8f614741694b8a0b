"""Assembles the solvable models: the single whole-network program and the
two-phase pair that mimics decentralized (user-driven) behaviour.

All rows are tagged by constraint family so dumps, tests and the robust
transformer can address them; see :class:`rlnd.milp.RowTag`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domain import InstanceError, NetworkInstance, validate
from .milp import LinExpr, MilpModel, ModelError, RowTag
from .objectives import (StageExpressions, VariableMap, _dropoff_inflow,
                         _primary_inflow, _secondary_inflow, build_stage_expressions)

OBJECTIVES = ("cost", "emission")


@dataclass
class ModelArtifacts:
    """A built model plus everything needed to interpret its solution."""

    model: MilpModel
    vars: VariableMap
    stages: StageExpressions
    objective_name: str
    warnings: list[str] = field(default_factory=list)

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


def _add_trip_balance(model: MilpModel, instance: NetworkInstance, vars: VariableMap,
                      warnings: list[str]) -> None:
    for i in instance.products:
        for h in instance.areas:
            expr = LinExpr()
            for c in instance.dropoffs:
                name = vars.rtd.get((i, h, c))
                if name is not None:
                    expr.add(name, 1.0)
            if not expr.terms:
                warnings.append(f"area {h} has no reachable dropoff for {i}; "
                                "trip balance row is infeasible")
            model.add_row(expr, "==", 1.0, RowTag("flow-balance", ("trip", i, h)))


def _add_dropoff_gates(model: MilpModel, instance: NetworkInstance,
                       vars: VariableMap) -> None:
    proc = instance.processing
    for i in instance.products:
        for c in instance.dropoffs:
            inflow = _dropoff_inflow(instance, vars, i, c)
            entry = proc.dropoff[c][i]
            cap_row = inflow.copy().add(vars.x[c], -entry.capacity)
            model.add_row(cap_row, "<=", 0.0, RowTag("capacity", ("dropoff", i, c)))
            lim_row = inflow.copy().add(vars.x[c], -entry.min_shipment)
            model.add_row(lim_row, ">=", 0.0, RowTag("min-shipment", ("dropoff", i, c)))
    _maybe_total_capacity(model, instance, vars, tier="dropoff")


def _add_downstream_rows(model: MilpModel, instance: NetworkInstance,
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
    for i in instance.products:
        for p in instance.primaries:
            inflow = _primary_inflow(instance, vars, i, p)
            entry = proc.primary[p][i]
            model.add_row(inflow.copy().add(vars.y[p], -entry.capacity), "<=", 0.0,
                          RowTag("capacity", ("primary", i, p)))
            model.add_row(inflow.copy().add(vars.y[p], -entry.min_shipment), ">=", 0.0,
                          RowTag("min-shipment", ("primary", i, p)))
    for j in instance.materials:
        for s in instance.secondaries:
            inflow = _secondary_inflow(instance, vars, j, s)
            entry = proc.secondary[s][j]
            model.add_row(inflow.copy().add(vars.r[s], -entry.capacity), "<=", 0.0,
                          RowTag("capacity", ("secondary", j, s)))
            model.add_row(inflow.copy().add(vars.r[s], -entry.min_shipment), ">=", 0.0,
                          RowTag("min-shipment", ("secondary", j, s)))
    _maybe_total_capacity(model, instance, vars, tier="primary")
    _maybe_total_capacity(model, instance, vars, tier="secondary")


def _maybe_total_capacity(model: MilpModel, instance: NetworkInstance,
                          vars: VariableMap, tier: str) -> None:
    """Aggregate (all items) capacity rows for facilities that declare one."""
    proc = instance.processing
    for f, cap in proc.total_capacity.items():
        expr = LinExpr()
        if tier == "dropoff" and f in instance.dropoffs:
            for i in instance.products:
                expr.add_expr(_dropoff_inflow(instance, vars, i, f))
            indicator = vars.x[f]
        elif tier == "primary" and f in instance.primaries:
            for i in instance.products:
                expr.add_expr(_primary_inflow(instance, vars, i, f))
            indicator = vars.y[f]
        elif tier == "secondary" and f in instance.secondaries:
            for j in instance.materials:
                expr.add_expr(_secondary_inflow(instance, vars, j, f))
            indicator = vars.r[f]
        else:
            continue
        expr.add(indicator, -cap)
        model.add_row(expr, "<=", 0.0, RowTag("capacity", ("total", f)))


def _add_open_count(model: MilpModel, instance: NetworkInstance, vars: VariableMap,
                    tier: str) -> None:
    indicator_map = {"dropoff": vars.x, "primary": vars.y, "secondary": vars.r}[tier]
    expr = LinExpr()
    for name in indicator_map.values():
        expr.add(name, 1.0)
    nof = instance.processing.min_open.get(tier, 0)
    model.add_row(expr, ">=", float(nof), RowTag("open-count", (tier,)))


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

    warnings = _structural_warnings(instance)
    _add_trip_balance(model, instance, vars, warnings)
    proc = instance.processing
    for i in instance.products:
        for c in instance.dropoffs:
            balance = LinExpr()
            for p in instance.primaries:
                name = vars.dtp.get((i, c, p))
                if name is not None:
                    balance.add(name, 1.0)
            balance.add_expr(_dropoff_inflow(instance, vars, i, c),
                             -(1.0 - proc.resale_dropoff[i]))
            model.add_row(balance, "==", 0.0, RowTag("flow-balance", ("dropoff", i, c)))
    _add_dropoff_gates(model, instance, vars)
    _add_downstream_rows(model, instance, vars)
    for tier in ("dropoff", "primary", "secondary"):
        _add_open_count(model, instance, vars, tier)

    stages = build_stage_expressions(instance, vars)
    objective_expr = stages.total_cost() if objective == "cost" else stages.total_emission()
    model.set_objective(objective_expr)

    artifacts = ModelArtifacts(model, vars, stages, objective, warnings)
    if include_policy and instance.policy is not None:
        add_policy_constraints(artifacts, instance)
    model.warnings.extend(artifacts.warnings)
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

    warnings: list[str] = []
    _add_trip_balance(model, instance, vars, warnings)
    _add_dropoff_gates(model, instance, vars)
    _add_open_count(model, instance, vars, "dropoff")

    stages = build_stage_expressions(instance, vars)
    key = "residence-dropoff"
    expr = stages.transport_cost[key] if objective == "cost" else stages.transport_emission[key]
    model.set_objective(expr.copy())

    artifacts = ModelArtifacts(model, vars, stages, objective, warnings)
    if include_policy and instance.policy is not None:
        add_policy_constraints(artifacts, instance)
    model.warnings.extend(artifacts.warnings)
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

    proc = instance.processing
    for i in instance.products:
        for c in instance.dropoffs:
            balance = LinExpr()
            for p in instance.primaries:
                name = vars.dtp.get((i, c, p))
                if name is not None:
                    balance.add(name, 1.0)
            rhs = (1.0 - proc.resale_dropoff[i]) * rq.get(i, {}).get(c, 0.0)
            model.add_row(balance, "==", rhs, RowTag("flow-balance", ("dropoff", i, c)))
    _add_downstream_rows(model, instance, vars)
    _add_open_count(model, instance, vars, "primary")
    _add_open_count(model, instance, vars, "secondary")

    stages = build_stage_expressions(instance, vars)
    objective_expr = stages.total_cost() if objective == "cost" else stages.total_emission()
    model.set_objective(objective_expr)
    artifacts = ModelArtifacts(model, vars, stages, objective, [])
    model.warnings.extend(artifacts.warnings)
    return artifacts


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
            artifacts.warnings.append(
                f"county {u} needs {rhs} open dropoffs but has {len(members)} candidates")
        expr = LinExpr()
        for c in members:
            expr.add(x[c], 1.0)
        model.add_row(expr, ">=", float(rhs), RowTag("policy", ("county", u)))
    for t in qualifying:
        members = [c for c in instance.dropoffs if pol.city_of.get(c) == t]
        if not members:
            artifacts.warnings.append(f"qualifying city {t} has no candidate dropoff")
        expr = LinExpr()
        for c in members:
            expr.add(x[c], 1.0)
        model.add_row(expr, ">=", 1.0, RowTag("policy", ("city", t)))
    return artifacts
