"""Cost and emission expressions over the network decision variables.

Every objective used by the solvers is assembled here from per-stage linear
expressions: three transport arc classes, three processing tiers, three fixed
tiers, three resale tiers, and the emission mirrors of each.  Totals follow

    total cost     = transport + processing + fixed - resale revenue
    total emission = transport + processing - offset

and :data:`TOTALS` declares them once: the evaluated totals, the model
objectives the builders set, the epsilon rows and the report rows all
derive from it.  A partial total names its stages: the residents' phase
minimizes its trip leg alone, and its emission cap bounds the trip leg and
the dropoff tier.

Processing applies to the non-resold share of a facility's inflow, i.e. a
``(1 - resale)`` factor on the inflow mass; revenue and offsets apply to the
resold share.  Dropoff inflow is ``supply x RTD``, primary inflow is DTP, and
secondary inflow is PTS.

The three processing tiers share one layout, declared once in
:data:`rlnd.domain.TIERS`, which also names each tier's transport leg in the
reports and its fields in :class:`VariableMap`.  The tier table :func:`tiers`
joins the layout with a model's variables and the instance's tier data once
per build, and :class:`~rlnd.builders.ModelArtifacts` keeps it: the
builders' rows and stage expressions loop over it, and every read of a
solved model (inflows, open set, breakdown, phase merge) goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Container, Mapping

from .domain import TIERS, Arc, NetworkInstance, ProcessingEntry, trip_multiplier
from .milp import LinExpr, ModelError, Solution, Status

_FLOW_TOL = 1e-6

# each objective's total: its stage metrics, in summation order, with their signs
TOTALS: dict[str, tuple[tuple[str, float], ...]] = {
    "cost": (("transport_cost", 1.0), ("processing_cost", 1.0), ("fixed_cost", 1.0),
             ("resale_revenue", -1.0)),
    "emission": (("transport_emission", 1.0), ("processing_emission", 1.0),
                 ("emission_offset", -1.0)),
}


@dataclass(frozen=True)
class VariableMap:
    """Names of the decision variables registered in a model.

    Keys present define which arcs/facilities the model knows about; phase-I
    user models carry only ``rtd`` and ``x``, phase-II models the rest.  The
    field names are :attr:`~rlnd.domain.TierLayout.flows` and ``opens``.
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

    def total(self, objective: str) -> float:
        """The objective's total, as :data:`TOTALS` declares it."""
        return sum(sign * sum(getattr(self, metric).values())
                   for metric, sign in TOTALS[objective])

    @property
    def total_cost(self) -> float:
        return self.total("cost")

    @property
    def total_emission(self) -> float:
        return self.total("emission")

    def rows(self) -> list[tuple[str, str, float]]:
        """(metric, stage, value) of every stage, then each objective's total."""
        out = [(f.name, stage, value) for f in fields(self)
               for stage, value in sorted(getattr(self, f.name).items())]
        return out + [(f"total_{objective}", "all", self.total(objective))
                      for objective in TOTALS]

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

    def total(self, objective: str, stages: Container[str] | None = None) -> LinExpr:
        """The objective's total, as :data:`TOTALS` declares it, over every
        stage or only the named ones."""
        total = LinExpr()
        for metric, sign in TOTALS[objective]:
            for stage, expr in getattr(self, metric).items():
                if stages is None or stage in stages:
                    total.add_expr(expr, sign)
        return total

    def total_cost(self) -> LinExpr:
        return self.total("cost")

    def total_emission(self) -> LinExpr:
        return self.total("emission")

    def followed_by(self, other: StageExpressions) -> StageExpressions:
        """This table's stages, then ``other``'s, as one table: the two user
        phases' tables, in tier order, make the whole network's."""
        return StageExpressions(*({**getattr(self, f.name), **getattr(other, f.name)}
                                  for f in fields(self)))

    def evaluate(self, values: Mapping[str, float]) -> StageBreakdown:
        return StageBreakdown(*({k: expr.evaluate(values)
                                 for k, expr in getattr(self, f.name).items()}
                                for f in fields(self)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


# ----------------------------------------------------------------------
# stage expression builders
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Tier:
    """One processing tier as a model sees it.

    ``opens`` and ``flows`` are the model's open indicators and inflow
    variables for the tier; both are empty when the model has none.  The
    dropoff tier's flows are shares of each area's ``supply`` and trips, the
    other tiers' flows are kg and their ``supply`` is None.  A tier holds
    the instance's dicts, never the instance, so a built model does not
    keep its instance alive.
    """

    name: str
    facilities: tuple[str, ...]
    items: tuple[str, ...]                           # products, or materials
    sources: tuple[str, ...]                         # areas, or the tier before
    entries: Mapping[str, Mapping[str, ProcessingEntry]]  # [facility][item]
    resale: Mapping[str, float]                      # [item]
    arcs: Mapping[str, Mapping[str, Arc]]            # inbound lane [source][facility]
    opens: Mapping[str, str]                         # [facility]
    flows: Mapping[tuple[str, str, str], str]        # [item, source, facility]
    supply: Mapping[str, Mapping[str, float]] | None  # [item][area] kg
    fixed_cost: Mapping[str, float]                  # [facility]
    min_open: int                                    # the tier's open-count floor
    _inflows: dict[tuple[str, str], LinExpr] = field(default_factory=dict, repr=False)

    def inflow(self, item: str, facility: str) -> LinExpr:
        """Mass of ``item`` arriving at ``facility``: one expression per
        (item, facility) for the table's life, shared by every row and
        stage built from it, so callers must not mutate it."""
        expr = self._inflows.get((item, facility))
        if expr is None:
            expr = self._inflows[item, facility] = LinExpr()
            mass = None if self.supply is None else self.supply[item]
            for a in self.sources:
                name = self.flows.get((item, a, facility))
                if name is not None:
                    expr.add(name, 1.0 if mass is None else mass[a])
        return expr

    def outflow(self, item: str, source: str) -> LinExpr:
        """The flows of ``item`` from ``source`` into this tier."""
        return LinExpr({name: 1.0 for f in self.facilities
                        if (name := self.flows.get((item, source, f))) is not None})


def tiers(instance: NetworkInstance, vars: VariableMap) -> tuple[Tier, Tier, Tier]:
    """The dropoff, primary and secondary tiers, in that order."""
    proc = instance.processing
    return tuple(Tier(layout.name, *layout.sets(instance), proc.entries[layout.name],
                      proc.resale[layout.name], instance.arcs[layout.lane],
                      getattr(vars, layout.opens), getattr(vars, layout.flows),
                      instance.supply.mass if layout is TIERS[0] else None,
                      proc.fixed_cost, proc.min_open.get(layout.name, 0))
                 for layout in TIERS)


def _transport_legs(instance: NetworkInstance, tier: Tier) -> tuple[LinExpr, LinExpr]:
    """Transport cost and emission into a tier: rate x distance per kg, or
    per trip for the dropoff tier, whose flows scale by each lane's annual
    dedicated trips."""
    cost, emission = LinExpr(), LinExpr()
    for (_, a, f), name in tier.flows.items():
        arc = tier.arcs[a][f]
        trips = 1.0 if tier.supply is None else trip_multiplier(instance, a, f)
        cost.add(name, trips * arc.cost * arc.distance)
        emission.add(name, trips * arc.emission * arc.distance)
    return cost, emission


def build_stage_expressions(instance: NetworkInstance, table: tuple[Tier, ...]
                            ) -> StageExpressions:
    """All stage expressions a model's tier table can support."""
    stages = StageExpressions()
    for tier, layout in zip(table, TIERS):
        if tier.flows:
            stages.transport_cost[layout.leg], stages.transport_emission[layout.leg] = \
                _transport_legs(instance, tier)
            # processing on the non-resold share, revenue and offsets on the resold one
            cost, emission, credit, offset = (LinExpr() for _ in range(4))
            for f in tier.facilities:
                for it in tier.items:
                    entry, resold = tier.entries[f][it], tier.resale[it]
                    kept = 1.0 - resold
                    for expr, coeff in ((cost, entry.cost * kept), (emission, entry.emission * kept),
                                        (credit, entry.credit * resold),
                                        (offset, entry.offset * resold)):
                        if coeff != 0.0:
                            expr.add_expr(tier.inflow(it, f), coeff)
            stages.processing_cost[tier.name], stages.processing_emission[tier.name] = \
                cost, emission
            stages.resale_revenue[tier.name], stages.emission_offset[tier.name] = credit, offset
        if tier.opens:
            stages.fixed_cost[tier.name] = LinExpr({name: tier.fixed_cost[f]
                                                    for f, name in tier.opens.items()
                                                    if tier.fixed_cost[f]})
    return stages


# ----------------------------------------------------------------------
# solution post-processing
# ----------------------------------------------------------------------

def facility_inflows(table: tuple[Tier, ...],
                     values: Mapping[str, float]) -> dict[str, float]:
    """Total inflow mass (kg) per facility the model routes mass to."""
    out: dict[str, float] = {}
    for tier in table:
        for f in tier.facilities:
            inflows = [expr for it in tier.items if (expr := tier.inflow(it, f)).terms]
            if inflows:
                out[f] = sum((expr.evaluate(values) for expr in inflows), 0.0)
    return out


def effective_opens(table: tuple[Tier, ...], values: Mapping[str, float]) -> dict[str, bool]:
    """Open/closed per facility for reporting.

    Emission objectives (and the phase-I user objective) carry no fixed-cost
    terms, leaving open indicators degenerate: an indicator may be 1 with zero
    inflow at no objective cost.  A facility therefore counts as open when it
    actually receives mass; indicated-but-idle facilities are added back only
    as needed to honour the tier's minimum-open floor (lowest index first).
    """
    inflow = facility_inflows(table, values)
    opens: dict[str, bool] = {}
    for tier in table:
        if not tier.opens:
            continue
        active = {f: inflow.get(f, 0.0) > _FLOW_TOL for f in tier.facilities}
        short = tier.min_open - sum(active.values())
        for f in tier.facilities:
            if short > 0 and not active[f] and values.get(tier.opens[f], 0.0) > 0.5:
                active[f] = True
                short -= 1
        opens.update(active)
    return opens


def breakdown_from_solution(table: tuple[Tier, ...], stages: StageExpressions,
                            solution: Solution) -> tuple[StageBreakdown, dict[str, bool]]:
    """Stage breakdown of a solved model and its effective open set, with
    fixed costs charged to that set rather than to raw (possibly degenerate)
    indicators.  ``stages`` are the builder's expressions over ``table``."""
    _require(solution.status in (Status.OPTIMAL, Status.BUDGET_EXCEEDED),
             f"cannot build a breakdown from a {solution.status.value} solution")
    breakdown = stages.evaluate(solution.values)
    opens = effective_opens(table, solution.values)
    for tier in table:
        if tier.name in breakdown.fixed_cost:
            breakdown.fixed_cost[tier.name] = sum((tier.fixed_cost[f] for f in tier.facilities
                                                   if opens.get(f)), 0.0)
    return breakdown, opens


def collected_quantities(table: tuple[Tier, ...],
                         values: Mapping[str, float]) -> dict[str, dict[str, float]]:
    """rq[i][c]: mass of product i arriving at dropoff c (pre-resale)."""
    dropoff = table[0]
    return {i: {c: dropoff.inflow(i, c).evaluate(values) for c in dropoff.facilities}
            for i in dropoff.items}


def merge_phases(phase1_tiers: tuple[Tier, ...], phase1: Solution,
                 phase2_tiers: tuple[Tier, ...], phase2: Solution
                 ) -> tuple[tuple[Tier, ...], Solution]:
    """One whole-network solution from the two solved user phases.

    Phase I fixes the residence->dropoff assignment and the dropoff openings;
    phase II covers everything downstream, and each tier comes from the
    phase that has its flows or opens.  The merged solution has no
    objective of its own: its totals are the two phases' stage expressions,
    one table followed by the other (:meth:`StageExpressions.followed_by`),
    evaluated on the concatenated values (see :func:`breakdown_from_solution`).
    """
    _require(phase1.status is Status.OPTIMAL, "phase I solution is not optimal")
    _require(phase2.status is Status.OPTIMAL, "phase II solution is not optimal")
    table = tuple(first if first.flows or first.opens else second
                  for first, second in zip(phase1_tiers, phase2_tiers))
    return table, Solution(Status.OPTIMAL, None, {**phase1.values, **phase2.values})
