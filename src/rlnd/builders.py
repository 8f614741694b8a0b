"""Assembles the solvable models: the single whole-network program and the
two-phase pair that mimics decentralized (user-driven) behaviour.

All rows are tagged by constraint family so dumps, tests and the robust
transformer can address them; see :class:`rlnd.milp.RowTag`.

Each builder builds its model once per instance, objective and policy flag:
the first call for an instance validates it, the first call for each
objective and flag builds, and every call, the first included, returns a
fresh copy (:meth:`rlnd.milp.MilpModel.copy`) with its own variable, row
and objective containers, so a caller may add an epsilon row or siting
rows to its copy freely.  The copies share the built
``Variable`` and ``Row`` records, the ``VariableMap``, the
``StageExpressions`` and the tier table (:func:`rlnd.objectives.tiers`),
which nothing changes once built.  The operator's
phase is kept without its collected mass: each call checks ``rq`` against
the supply and writes it into the copy's dropoff balance rows.  What was
built from an instance lives exactly as long as the instance (a
``weakref.finalize`` drops it), so a trade-off sweep's grid points copy
their model instead of rebuilding it, and no model outlives its data.  This
relies on instances being immutable (:mod:`rlnd.domain`): change a copy,
never an instance a model was built from.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace
from typing import Callable

from .domain import TIERS, NetworkInstance, TierLayout, validate
from .milp import LinExpr, MilpModel, ModelError, RowTag
from .objectives import (TOTALS, StageExpressions, Tier, VariableMap, build_stage_expressions,
                         tiers)

OBJECTIVES = tuple(TOTALS)


@dataclass
class ModelArtifacts:
    """A built model plus everything needed to read its solution: its
    variables' names, its stage expressions and the tier table they were
    built over, which every report reads."""

    model: MilpModel
    vars: VariableMap
    stages: StageExpressions
    tiers: tuple[Tier, ...]


# what each live instance was built into, by id(instance), then by builder
# and its arguments; an instance's entry goes when the instance does
_BUILT: dict[int, dict[tuple, ModelArtifacts]] = {}


def _built(build: Callable[..., ModelArtifacts], instance: NetworkInstance,
           *args) -> ModelArtifacts:
    """A fresh copy of ``build(instance, *args)``, which runs once per live
    instance and arguments; an instance is validated once, before its first
    build, and only an instance that passed gets an entry."""
    models = _BUILT.get(id(instance))
    if models is None:
        validate(instance).assert_valid()
        models = _BUILT[id(instance)] = {}
        weakref.finalize(instance, _BUILT.pop, id(instance), None)
    key = (build, *args)
    artifacts = models.get(key)
    if artifacts is None:
        artifacts = models[key] = build(instance, *args)
    return replace(artifacts, model=artifacts.model.copy())


def _new_model(instance: NetworkInstance, objective: str, phase: str,
               picked: tuple[TierLayout, ...]) -> tuple[MilpModel, VariableMap, tuple[Tier, ...]]:
    """Every builder's prologue: check the objective and start the model
    with the picked tiers' variables.  Returns the model, its variables and
    the tier table over them."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    model = MilpModel(f"{instance.name}:{phase}:{objective}")
    vars = _register(model, instance, picked)
    return model, vars, tiers(instance, vars)


def _register(model: MilpModel, instance: NetworkInstance,
              picked: tuple[TierLayout, ...]) -> VariableMap:
    """The flow variables of the picked tiers, then their open indicators:
    every model's column order, on which LP dumps and lowest-index
    tie-breaks depend.  A variable's name is its ``VariableMap`` field
    upper-cased; a forbidden arc has no flow variable, and only the dropoff
    tier's flows, which are shares of trips, are bounded by 1."""
    names: dict[str, dict] = {}
    for layout in picked:
        facilities, items, sources = layout.sets(instance)
        lane, prefix = instance.arcs[layout.lane], layout.flows.upper()
        ub = 1.0 if layout is TIERS[0] else math.inf
        names[layout.flows] = {(it, a, f): model.add_variable(f"{prefix}[{it},{a},{f}]", 0.0, ub)
                               for it in items for a in sources for f in facilities
                               if not lane[a][f].forbidden}
    for layout in picked:
        prefix = layout.opens.upper()
        names[layout.opens] = {f: model.add_variable(f"{prefix}[{f}]", binary=True)
                               for f in getattr(instance, layout.facilities)}
    return VariableMap(**names)


def _add_trip_balance(model: MilpModel, instance: NetworkInstance, dropoff: Tier) -> None:
    for i in instance.products:
        for h in instance.areas:
            expr = dropoff.outflow(i, h)
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


def _add_dropoff_balance(model: MilpModel, instance: NetworkInstance,
                         table: tuple[Tier, ...]) -> None:
    """What each dropoff ships to the primaries is the non-resold share of
    what arrives: the RTD inflow.  The operator's phase has no RTD, so its
    rows read ``shipped == 0`` until :func:`_write_collected` moves the
    collected mass to their right-hand sides."""
    dropoff, primary = table[:2]
    for i in instance.products:
        share = 1.0 - dropoff.resale[i]
        for c in instance.dropoffs:
            balance = primary.outflow(i, c).add_expr(dropoff.inflow(i, c), -share)
            model.add_row(balance, "==", 0.0, RowTag("flow-balance", ("dropoff", i, c)))


def _write_collected(model: MilpModel, instance: NetworkInstance,
                     rq: dict[str, dict[str, float]]) -> None:
    """The non-resold share of the collected mass ``rq[i][c]`` as the
    right-hand side of each dropoff balance row, the operator's phase's
    first rows; each row is replaced, not changed, as copies share them."""
    resale = instance.processing.resale[TIERS[0].name]
    for k, (i, c) in enumerate(itertools.product(instance.products, instance.dropoffs)):
        model.rows[k] = replace(model.rows[k], rhs=(1.0 - resale[i]) * rq.get(i, {}).get(c, 0.0))


def _add_primary_balance(model: MilpModel, instance: NetworkInstance,
                         table: tuple[Tier, ...]) -> None:
    proc = instance.processing
    primary, secondary = table[1:]
    for j in instance.materials:
        for p in instance.primaries:
            expr = secondary.outflow(j, p)
            for i in instance.products:
                factor = (proc.composition[j][i] * proc.eff(j, p)
                          * (1.0 - primary.resale[i]))
                expr.add_expr(primary.inflow(i, p), -factor)
            model.add_row(expr, "==", 0.0, RowTag("flow-balance", ("primary", j, p)))


def _add_open_counts(model: MilpModel, counted: tuple[Tier, ...]) -> None:
    for tier in counted:
        model.add_row(LinExpr(dict.fromkeys(tier.opens.values(), 1.0)), ">=",
                      float(tier.min_open), RowTag("open-count", (tier.name,)))


def _structural_warnings(instance: NetworkInstance, table: tuple[Tier, ...]) -> list[str]:
    """Capacity shortfalls of the product tiers that make the model
    infeasible by construction: per product, each tier's capacities against
    what reaches it (the supply at the dropoffs, its non-resold share at the
    primaries); then, for a tier whose facilities all declare a total
    capacity, their sum against what reaches the tier over all products.
    Reported at build time; the solver still renders the verdict."""
    out: list[str] = []
    product_tiers, whats = table[:2], ("supply", "expected inflow")
    reaching = [0.0] * len(product_tiers)
    for i in instance.products:
        inflow = instance.total_supply(i)
        for k, tier in enumerate(product_tiers):
            reaching[k] += inflow
            capacity = sum(tier.entries[f][i].capacity for f in tier.facilities)
            if capacity < inflow:
                out.append(f"{tier.name} capacity {capacity:g} below {whats[k]} {inflow:g} for {i}")
            inflow *= 1.0 - tier.resale[i]
    for tier, what, inflow in zip(product_tiers, whats, reaching):
        totals = [instance.processing.total_capacity.get(f) for f in tier.facilities]
        if None not in totals and sum(totals) < inflow:
            out.append(f"aggregate {tier.name} capacity {sum(totals):g} below {what} {inflow:g}")
    return out


def build_system_model(instance: NetworkInstance, objective: str = "cost",
                       include_policy: bool = True) -> ModelArtifacts:
    """Whole-network program: one decision maker routes everything."""
    return _built(_system_model, instance, objective, include_policy)


def _system_model(instance: NetworkInstance, objective: str,
                  include_policy: bool) -> ModelArtifacts:
    model, vars, table = _new_model(instance, objective, "system", TIERS)
    model.warnings.extend(_structural_warnings(instance, table))
    _add_trip_balance(model, instance, table[0])
    _add_dropoff_balance(model, instance, table)
    _add_gates(model, instance, table[:1])
    _add_primary_balance(model, instance, table)
    _add_gates(model, instance, table[1:])
    _add_open_counts(model, table)

    stages = build_stage_expressions(instance, table)
    model.set_objective(stages.total(objective))
    artifacts = ModelArtifacts(model, vars, stages, table)
    return add_policy_constraints(artifacts, instance) if include_policy else artifacts


def build_user_model_i(instance: NetworkInstance, objective: str = "cost",
                       include_policy: bool = True) -> ModelArtifacts:
    """Residents' phase: pick dropoffs to minimize their own trip burden.

    Only the residence->dropoff legs exist here; fixed costs are charged later
    during composition, which is what makes the split decentralized.
    """
    return _built(_user_model_i, instance, objective, include_policy)


def _user_model_i(instance: NetworkInstance, objective: str,
                  include_policy: bool) -> ModelArtifacts:
    model, vars, table = _new_model(instance, objective, "user-I", TIERS[:1])
    _add_trip_balance(model, instance, table[0])
    _add_gates(model, instance, table[:1])
    _add_open_counts(model, table[:1])

    stages = build_stage_expressions(instance, table)
    model.set_objective(stages.total(objective, {TIERS[0].leg}))
    artifacts = ModelArtifacts(model, vars, stages, table)
    return add_policy_constraints(artifacts, instance) if include_policy else artifacts


def build_user_model_ii(instance: NetworkInstance, rq: dict[str, dict[str, float]],
                        objective: str = "cost") -> ModelArtifacts:
    """Operator's phase: route the collected mass rq[i][c] downstream."""
    artifacts = _built(_user_model_ii, instance, objective)
    for i in instance.products:
        collected = sum(rq.get(i, {}).get(c, 0.0) for c in instance.dropoffs)
        supply = instance.total_supply(i)
        if abs(collected - supply) > 1e-6 * max(1.0, supply):
            raise ModelError(f"collected mass {collected:g} for {i} does not match "
                             f"supply {supply:g}")
    _write_collected(artifacts.model, instance, rq)
    return artifacts


def _user_model_ii(instance: NetworkInstance, objective: str) -> ModelArtifacts:
    model, vars, table = _new_model(instance, objective, "user-II", TIERS[1:])
    _add_dropoff_balance(model, instance, table)
    _add_primary_balance(model, instance, table)
    _add_gates(model, instance, table[1:])
    _add_open_counts(model, table[1:])

    stages = build_stage_expressions(instance, table)
    model.set_objective(stages.total(objective))
    return ModelArtifacts(model, vars, stages, table)


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
    model, x = artifacts.model, artifacts.tiers[0].opens
    if not x:
        raise ModelError("policy constraints need dropoff indicators (X)")

    seen = [pol.county_of.get(c) for c in instance.dropoffs]
    seen += [pol.city_county.get(city) for city in pol.city_population]
    counties = [u for u in dict.fromkeys(seen) if u is not None]

    qualifying = pol.qualifying_cities()
    for u in counties:
        members = [c for c in instance.dropoffs if pol.county_of.get(c) == u]
        k_u = [t for t in qualifying if pol.city_county.get(t) == u]
        rhs = max(1, len(k_u))
        if len(members) < rhs:
            model.warnings.append(
                f"county {u} needs {rhs} open dropoffs but has {len(members)} candidates")
        model.add_row(LinExpr({x[c]: 1.0 for c in members}), ">=", float(rhs),
                      RowTag("policy", ("county", u)))
    for t in qualifying:
        members = [c for c in instance.dropoffs if pol.city_of.get(c) == t]
        if not members:
            model.warnings.append(f"qualifying city {t} has no candidate dropoff")
        model.add_row(LinExpr({x[c]: 1.0 for c in members}), ">=", 1.0,
                      RowTag("policy", ("city", t)))
    return artifacts
