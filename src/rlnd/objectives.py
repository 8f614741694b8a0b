"""Cost and emission expressions over the network decision variables.

Every objective used by the solvers is assembled here from per-stage linear
expressions: three transport arc classes, three processing tiers, three fixed
tiers, three resale tiers, and the emission mirrors of each.  Totals follow

    total cost     = transport + processing + fixed - resale revenue
    total emission = transport + processing - offset

Processing applies to the non-resold share of a facility's inflow, i.e. a
``(1 - resale)`` factor on the inflow mass; revenue and offsets apply to the
resold share.  Dropoff inflow is ``supply x RTD``, primary inflow is DTP, and
secondary inflow is PTS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .domain import NetworkInstance, trip_multiplier
from .milp import LinExpr, ModelError, Solution, Status

ARC_CLASSES = ("residence-dropoff", "dropoff-primary", "primary-secondary")
TIERS = ("dropoff", "primary", "secondary")

_FLOW_TOL = 1e-6


@dataclass(frozen=True)
class VariableMap:
    """Names of the decision variables registered in a model.

    Keys present define which arcs/facilities the model knows about; phase-I
    user models carry only ``rtd`` and ``x``, phase-II models the rest.
    """

    rtd: dict[tuple[str, str, str], str] = field(default_factory=dict)  # (i,h,c)
    dtp: dict[tuple[str, str, str], str] = field(default_factory=dict)  # (i,c,p)
    pts: dict[tuple[str, str, str], str] = field(default_factory=dict)  # (j,p,s)
    x: dict[str, str] = field(default_factory=dict)
    y: dict[str, str] = field(default_factory=dict)
    r: dict[str, str] = field(default_factory=dict)


@dataclass
class StageBreakdown:
    """Evaluated per-stage costs and emissions of one solution."""

    transport_cost: dict[str, float]
    processing_cost: dict[str, float]
    fixed_cost: dict[str, float]
    resale_revenue: dict[str, float]
    transport_emission: dict[str, float]
    processing_emission: dict[str, float]
    emission_offset: dict[str, float]

    @property
    def total_cost(self) -> float:
        return (sum(self.transport_cost.values()) + sum(self.processing_cost.values())
                + sum(self.fixed_cost.values()) - sum(self.resale_revenue.values()))

    @property
    def total_emission(self) -> float:
        return (sum(self.transport_emission.values())
                + sum(self.processing_emission.values())
                - sum(self.emission_offset.values()))

    def rows(self) -> list[tuple[str, str, float]]:
        out: list[tuple[str, str, float]] = []
        groups = [("transport_cost", self.transport_cost),
                  ("processing_cost", self.processing_cost),
                  ("fixed_cost", self.fixed_cost),
                  ("resale_revenue", self.resale_revenue),
                  ("transport_emission", self.transport_emission),
                  ("processing_emission", self.processing_emission),
                  ("emission_offset", self.emission_offset)]
        for metric, table in groups:
            for stage in sorted(table):
                out.append((metric, stage, table[stage]))
        out.append(("total_cost", "all", self.total_cost))
        out.append(("total_emission", "all", self.total_emission))
        return out

    def format_text(self) -> str:
        lines = [f"{metric:20s} {stage:20s} {value:14.3f}"
                 for metric, stage, value in self.rows()]
        return "\n".join(lines)


@dataclass
class StageExpressions:
    """Per-stage linear expressions; missing stages mean the model has no
    variables for them (user phases)."""

    transport_cost: dict[str, LinExpr] = field(default_factory=dict)
    processing_cost: dict[str, LinExpr] = field(default_factory=dict)
    fixed_cost: dict[str, LinExpr] = field(default_factory=dict)
    resale_revenue: dict[str, LinExpr] = field(default_factory=dict)
    transport_emission: dict[str, LinExpr] = field(default_factory=dict)
    processing_emission: dict[str, LinExpr] = field(default_factory=dict)
    emission_offset: dict[str, LinExpr] = field(default_factory=dict)

    def total_cost(self) -> LinExpr:
        total = LinExpr()
        for expr in self.transport_cost.values():
            total.add_expr(expr)
        for expr in self.processing_cost.values():
            total.add_expr(expr)
        for expr in self.fixed_cost.values():
            total.add_expr(expr)
        for expr in self.resale_revenue.values():
            total.add_expr(expr, -1.0)
        return total

    def total_emission(self) -> LinExpr:
        total = LinExpr()
        for expr in self.transport_emission.values():
            total.add_expr(expr)
        for expr in self.processing_emission.values():
            total.add_expr(expr)
        for expr in self.emission_offset.values():
            total.add_expr(expr, -1.0)
        return total

    def evaluate(self, values: Mapping[str, float]) -> StageBreakdown:
        ev = lambda table: {k: expr.evaluate(values) for k, expr in table.items()}
        return StageBreakdown(ev(self.transport_cost), ev(self.processing_cost),
                              ev(self.fixed_cost), ev(self.resale_revenue),
                              ev(self.transport_emission), ev(self.processing_emission),
                              ev(self.emission_offset))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


# ----------------------------------------------------------------------
# stage expression builders
# ----------------------------------------------------------------------

def transport_cost_trip(instance: NetworkInstance, vars: VariableMap) -> LinExpr:
    """Residence->dropoff transport cost: per-trip rate x distance x annual
    dedicated trips, scaled by the fraction RTD of trips to each dropoff."""
    expr = LinExpr()
    for (i, h, c), name in vars.rtd.items():
        arc = instance.arcs.res_drop[h][c]
        expr.add(name, trip_multiplier(instance, h, c) * arc.cost * arc.distance)
    return expr


def transport_emission_trip(instance: NetworkInstance, vars: VariableMap) -> LinExpr:
    expr = LinExpr()
    for (i, h, c), name in vars.rtd.items():
        arc = instance.arcs.res_drop[h][c]
        expr.add(name, trip_multiplier(instance, h, c) * arc.emission * arc.distance)
    return expr


def _mass_leg(vars_table: dict, arcs, rate: str) -> LinExpr:
    expr = LinExpr()
    for (item, a, b), name in vars_table.items():
        arc = arcs[a][b]
        expr.add(name, getattr(arc, rate) * arc.distance)
    return expr


def _dropoff_inflow(instance: NetworkInstance, vars: VariableMap,
                    product: str, dropoff: str) -> LinExpr:
    expr = LinExpr()
    for h in instance.areas:
        name = vars.rtd.get((product, h, dropoff))
        if name is not None:
            expr.add(name, instance.supply.mass[product][h])
    return expr


def _primary_inflow(instance: NetworkInstance, vars: VariableMap,
                    product: str, primary: str) -> LinExpr:
    expr = LinExpr()
    for c in instance.dropoffs:
        name = vars.dtp.get((product, c, primary))
        if name is not None:
            expr.add(name, 1.0)
    return expr


def _secondary_inflow(instance: NetworkInstance, vars: VariableMap,
                      material: str, secondary: str) -> LinExpr:
    expr = LinExpr()
    for p in instance.primaries:
        name = vars.pts.get((material, p, secondary))
        if name is not None:
            expr.add(name, 1.0)
    return expr


def _tier_expression(instance: NetworkInstance, vars: VariableMap, tier: str,
                     kind: str) -> LinExpr:
    """Processing cost/emission (non-resold share) or revenue/offset (resold
    share) for one tier. kind in {cost, emission, credit, offset}."""
    proc = instance.processing
    expr = LinExpr()
    if tier == "dropoff":
        entries, items, facilities = proc.dropoff, instance.products, instance.dropoffs
        resale, inflow = proc.resale_dropoff, _dropoff_inflow
    elif tier == "primary":
        entries, items, facilities = proc.primary, instance.products, instance.primaries
        resale, inflow = proc.resale_primary, _primary_inflow
    else:
        entries, items, facilities = proc.secondary, instance.materials, instance.secondaries
        resale, inflow = proc.resale_secondary, _secondary_inflow
    for f in facilities:
        for it in items:
            entry = entries[f][it]
            share = resale[it] if kind in ("credit", "offset") else 1.0 - resale[it]
            coeff = getattr(entry, kind) * share
            if coeff != 0.0:
                expr.add_expr(inflow(instance, vars, it, f), coeff)
    return expr


def build_stage_expressions(instance: NetworkInstance, vars: VariableMap) -> StageExpressions:
    """All stage expressions the given variable map can support."""
    proc = instance.processing
    stages = StageExpressions()
    if vars.rtd:
        stages.transport_cost["residence-dropoff"] = transport_cost_trip(instance, vars)
        stages.transport_emission["residence-dropoff"] = transport_emission_trip(instance, vars)
        for metric, table in (("cost", stages.processing_cost),
                              ("emission", stages.processing_emission),
                              ("credit", stages.resale_revenue),
                              ("offset", stages.emission_offset)):
            table["dropoff"] = _tier_expression(instance, vars, "dropoff", metric)
    if vars.x:
        fx = LinExpr()
        for c, name in vars.x.items():
            fx.add(name, proc.fixed_cost[c])
        stages.fixed_cost["dropoff"] = fx
    if vars.dtp:
        stages.transport_cost["dropoff-primary"] = _mass_leg(vars.dtp, instance.arcs.drop_pri, "cost")
        stages.transport_emission["dropoff-primary"] = _mass_leg(vars.dtp, instance.arcs.drop_pri, "emission")
        for metric, table in (("cost", stages.processing_cost),
                              ("emission", stages.processing_emission),
                              ("credit", stages.resale_revenue),
                              ("offset", stages.emission_offset)):
            table["primary"] = _tier_expression(instance, vars, "primary", metric)
    if vars.pts:
        stages.transport_cost["primary-secondary"] = _mass_leg(vars.pts, instance.arcs.pri_sec, "cost")
        stages.transport_emission["primary-secondary"] = _mass_leg(vars.pts, instance.arcs.pri_sec, "emission")
        for metric, table in (("cost", stages.processing_cost),
                              ("emission", stages.processing_emission),
                              ("credit", stages.resale_revenue),
                              ("offset", stages.emission_offset)):
            table["secondary"] = _tier_expression(instance, vars, "secondary", metric)
    if vars.y:
        fy = LinExpr()
        for p, name in vars.y.items():
            fy.add(name, proc.fixed_cost[p])
        stages.fixed_cost["primary"] = fy
    if vars.r:
        fr = LinExpr()
        for s, name in vars.r.items():
            fr.add(name, proc.fixed_cost[s])
        stages.fixed_cost["secondary"] = fr
    return stages


# ----------------------------------------------------------------------
# solution post-processing
# ----------------------------------------------------------------------

def facility_inflows(instance: NetworkInstance, vars: VariableMap,
                     values: Mapping[str, float]) -> dict[str, float]:
    """Total inflow mass (kg) per facility under the given assignment."""
    out: dict[str, float] = {}
    for c in instance.dropoffs:
        if any((i, h, c) in vars.rtd for i in instance.products for h in instance.areas):
            out[c] = sum(_dropoff_inflow(instance, vars, i, c).evaluate(values)
                         for i in instance.products)
    for p in instance.primaries:
        if any(key[2] == p for key in vars.dtp):
            out[p] = sum(_primary_inflow(instance, vars, i, p).evaluate(values)
                         for i in instance.products)
    for s in instance.secondaries:
        if any(key[2] == s for key in vars.pts):
            out[s] = sum(_secondary_inflow(instance, vars, j, s).evaluate(values)
                         for j in instance.materials)
    return out


def item_inflows(instance: NetworkInstance, vars: VariableMap,
                 values: Mapping[str, float]) -> dict[tuple[str, str], float]:
    """Inflow mass per (item, facility): products at dropoffs/primaries,
    materials at secondaries."""
    out: dict[tuple[str, str], float] = {}
    for c in instance.dropoffs:
        for i in instance.products:
            expr = _dropoff_inflow(instance, vars, i, c)
            if expr.terms:
                out[(i, c)] = expr.evaluate(values)
    for p in instance.primaries:
        for i in instance.products:
            expr = _primary_inflow(instance, vars, i, p)
            if expr.terms:
                out[(i, p)] = expr.evaluate(values)
    for s in instance.secondaries:
        for j in instance.materials:
            expr = _secondary_inflow(instance, vars, j, s)
            if expr.terms:
                out[(j, s)] = expr.evaluate(values)
    return out


def effective_opens(instance: NetworkInstance, vars: VariableMap,
                    values: Mapping[str, float], tol: float = _FLOW_TOL) -> dict[str, bool]:
    """Open/closed per facility for reporting.

    Emission objectives (and the phase-I user objective) carry no fixed-cost
    terms, leaving open indicators degenerate: an indicator may be 1 with zero
    inflow at no objective cost.  A facility therefore counts as open when it
    actually receives mass; indicated-but-idle facilities are added back only
    as needed to honour the tier's minimum-open floor (lowest index first).
    """
    inflow = facility_inflows(instance, vars, values)
    opens: dict[str, bool] = {}
    tiers = [("dropoff", instance.dropoffs, vars.x),
             ("primary", instance.primaries, vars.y),
             ("secondary", instance.secondaries, vars.r)]
    for tier, facilities, indicator_map in tiers:
        if not indicator_map:
            continue
        active = {f: inflow.get(f, 0.0) > tol for f in facilities}
        floor = instance.processing.min_open.get(tier, 0)
        short = floor - sum(active.values())
        if short > 0:
            for f in facilities:
                if short <= 0:
                    break
                indicated = values.get(indicator_map[f], 0.0) > 0.5
                if indicated and not active[f]:
                    active[f] = True
                    short -= 1
        opens.update(active)
    return opens


def breakdown_from_solution(instance: NetworkInstance, vars: VariableMap,
                            solution: Solution) -> tuple[StageBreakdown, dict[str, bool]]:
    """Stage breakdown of a solved model and its effective open set, with
    fixed costs charged to that set rather than to raw (possibly degenerate)
    indicators."""
    _require(solution.status in (Status.OPTIMAL, Status.BUDGET_EXCEEDED),
             f"cannot build a breakdown from a {solution.status.value} solution")
    stages = build_stage_expressions(instance, vars)
    breakdown = stages.evaluate(solution.values)
    opens = effective_opens(instance, vars, solution.values)
    fixed = instance.processing.fixed_cost
    for tier, facilities in (("dropoff", instance.dropoffs),
                             ("primary", instance.primaries),
                             ("secondary", instance.secondaries)):
        if tier in breakdown.fixed_cost:
            breakdown.fixed_cost[tier] = sum(fixed[f] for f in facilities if opens.get(f))
    return breakdown, opens


def collected_quantities(instance: NetworkInstance, vars: VariableMap,
                         values: Mapping[str, float]) -> dict[str, dict[str, float]]:
    """rq[i][c]: mass of product i arriving at dropoff c (pre-resale)."""
    return {i: {c: _dropoff_inflow(instance, vars, i, c).evaluate(values)
                for c in instance.dropoffs}
            for i in instance.products}


def merge_phases(phase1_vars: VariableMap, phase1: Solution,
                 phase2_vars: VariableMap, phase2: Solution) -> tuple[VariableMap, Solution]:
    """One whole-network solution from the two solved user phases.

    Phase I fixes the residence->dropoff assignment and the dropoff openings;
    phase II covers everything downstream.  The merged solution has no
    objective of its own: its totals are the system objective expressions
    evaluated on the concatenated values (see :func:`breakdown_from_solution`).
    """
    _require(phase1.status is Status.OPTIMAL, "phase I solution is not optimal")
    _require(phase2.status is Status.OPTIMAL, "phase II solution is not optimal")
    vars = VariableMap(rtd=phase1_vars.rtd, x=phase1_vars.x, dtp=phase2_vars.dtp,
                       pts=phase2_vars.pts, y=phase2_vars.y, r=phase2_vars.r)
    return vars, Solution(Status.OPTIMAL, None, {**phase1.values, **phase2.values})
