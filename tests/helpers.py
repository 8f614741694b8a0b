"""Shared test utilities: independent oracles and generators.

Everything here is deliberately written from first principles (plain loops,
exhaustive enumeration) so it can disagree with the package when the package
is wrong.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
from pathlib import Path

from rlnd.domain import NetworkInstance
from rlnd.io import instance_from_dict
from rlnd.milp import (EmbeddedSolver, LinExpr, MilpModel, RowTag, Solution, SolveStats, Status,
                       solve_milp)


class RecordingSolver(EmbeddedSolver):
    """The embedded engine, keeping each model it solved with its solution;
    with ``warm`` false, every root starts cold (:func:`solve_milp` alone)."""

    def __init__(self, warm: bool = True):
        super().__init__()
        self.warm = warm
        self.solves: list[tuple[MilpModel, Solution]] = []

    def solve(self, model: MilpModel) -> Solution:
        solution = super().solve(model) if self.warm else solve_milp(model, self.node_budget)
        self.solves.append((model, solution))
        return solution


class UnstableSolver(EmbeddedSolver):
    """The embedded engine, with every answer downgraded to
    NUMERICALLY_UNSTABLE and its values kept, as a failed final check leaves
    it."""

    def solve(self, model: MilpModel) -> Solution:
        solution = super().solve(model)
        solution.status = Status.NUMERICALLY_UNSTABLE
        return solution


def with_bounds(model: MilpModel, bounds) -> MilpModel:
    """A fresh copy of ``model`` with some variables' bounds replaced:
    ``bounds`` maps a name to its (lb, ub)."""
    out = MilpModel(model.name)
    for var in model.variables.values():
        lo, hi = bounds.get(var.name, (var.lb, var.ub))
        out.add_variable(var.name, lo, hi, var.binary)
    for row in model.rows:
        out.add_row(row.expr, row.relation, row.rhs, row.tag)
    out.set_objective(model.objective)
    return out


def pattern_enumeration_optimum(model: MilpModel):
    """Exact MILP optimum by trying every binary assignment with an LP.

    Each assignment is solved as a fresh copy of the model with every binary
    fixed, so it starts from the slack basis and shares no warm start with
    the branch and bound it checks.  Returns (status, objective-or-None).
    This is the ground truth the branch-and-bound engine must match on small
    models.
    """
    binaries = model.binary_names
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        fixed = with_bounds(model, {name: (b, b) for name, b in zip(binaries, bits)})
        sol = solve_milp(fixed)
        if sol.status is Status.UNBOUNDED:
            return Status.UNBOUNDED, None
        if sol.status is Status.OPTIMAL and (best is None or sol.objective < best):
            best = sol.objective
    if best is None:
        return Status.INFEASIBLE, None
    return Status.OPTIMAL, best


class ExactHighs:
    """HiGHS through ``scipy.optimize.milp`` at a zero relative MIP gap.

    ``rlnd.external.ScipySolver`` runs HiGHS at its default gap, which may
    stop short of the optimum the embedded engine proves; this one may not.
    """

    def solve(self, model: MilpModel) -> Solution:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp

        names = list(model.variables)
        col = {name: j for j, name in enumerate(names)}
        c = np.zeros(len(names))
        for var, coeff in model.objective.terms.items():
            c[col[var]] += coeff
        a = np.zeros((len(model.rows), len(names)))
        lo = np.full(len(model.rows), -np.inf)
        hi = np.full(len(model.rows), np.inf)
        for r, row in enumerate(model.rows):
            for var, coeff in row.expr.terms.items():
                a[r, col[var]] += coeff
            if row.relation in ("<=", "=="):
                hi[r] = row.rhs
            if row.relation in (">=", "=="):
                lo[r] = row.rhs
        res = milp(c, constraints=[LinearConstraint(a, lo, hi)] if model.rows else [],
                   integrality=[int(model.variables[v].binary) for v in names],
                   bounds=Bounds([model.variables[v].lb for v in names],
                                 [model.variables[v].ub for v in names]),
                   options={"mip_rel_gap": 0.0})
        status = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}.get(
            res.status, Status.NUMERICALLY_UNSTABLE)
        if status is not Status.OPTIMAL:
            return Solution(status, None, {}, SolveStats())
        objective = float(res.fun) + model.objective.constant
        values = {name: float(res.x[j]) for j, name in enumerate(names)}
        return Solution(status, objective, values, SolveStats(), objective)


def random_network_instance(rng: random.Random, areas: int | None = None,
                            dropoffs: int | None = None,
                            primaries: int | None = None) -> NetworkInstance:
    """A random but well-formed instance, built as a JSON document and read
    by the codec.

    Tier sizes not given are drawn small (areas at most 2, dropoffs and
    primaries at most 3); a size that is given draws nothing from ``rng``.
    """
    products = [f"prod{k}" for k in range(1, rng.randint(1, 2) + 1)]
    materials = [f"mat{k}" for k in range(1, rng.randint(1, 2) + 1)]
    areas = [f"area{k}" for k in range(1, (areas or rng.randint(1, 2)) + 1)]
    dropoffs = [f"drop{k}" for k in range(1, (dropoffs or rng.randint(1, 3)) + 1)]
    primaries = [f"prim{k}" for k in range(1, (primaries or rng.randint(1, 3)) + 1)]
    secondaries = [f"sec{k}" for k in range(1, rng.randint(1, 2) + 1)]

    mass = {i: {h: rng.uniform(50.0, 400.0) for h in areas} for i in products}
    supply = {
        "mass": mass,
        "trips_per_year": rng.uniform(100.0, 600.0),
        "dedicated_fraction": {c: rng.uniform(0.2, 0.9) for c in dropoffs},
        "trip_factor": {h: rng.uniform(0.5, 1.5) for h in areas},
    }

    def entry(cap_low: float, cap_high: float) -> dict:
        return {"cost": rng.uniform(0.01, 1.0), "credit": rng.uniform(0.0, 2.0),
                "emission": rng.uniform(0.001, 0.2), "offset": rng.uniform(0.0, 5.0),
                "capacity": rng.uniform(cap_low, cap_high),
                "min_shipment": rng.choice([0.0, 0.0, rng.uniform(1.0, 30.0)])}

    # capacities sometimes below total supply, so some instances are infeasible
    total = sum(sum(row.values()) for row in mass.values())
    tiers = {"dropoff": (dropoffs, products), "primary": (primaries, products),
             "secondary": (secondaries, materials)}
    processing = {
        tier: {f: {it: entry(0.3 * total, 1.6 * total) for it in items} for f in facilities}
        for tier, (facilities, items) in tiers.items()}
    processing.update({
        "resale": {tier: {it: rng.uniform(0.0, 0.3) for it in items}
                   for tier, (_, items) in tiers.items()},
        "fixed_cost": {f: rng.uniform(10.0, 300.0)
                       for f in dropoffs + primaries + secondaries},
        "min_open": {"dropoff": 1, "primary": 1, "secondary": 1},
        "composition": {j: {i: rng.uniform(0.0, 0.5) for i in products}
                        for j in materials},
    })

    def lane(tails: list[str], heads: list[str]) -> dict:
        return {a: {b: {"distance": rng.uniform(5.0, 300.0), "cost": rng.uniform(0.01, 0.5),
                        "emission": rng.uniform(0.01, 0.3)} for b in heads} for a in tails}

    arcs = {"res_drop": lane(areas, dropoffs), "drop_pri": lane(dropoffs, primaries),
            "pri_sec": lane(primaries, secondaries)}
    return instance_from_dict({
        "name": f"random-{rng.randrange(10 ** 9)}",
        "sets": {"products": products, "materials": materials, "areas": areas,
                 "dropoffs": dropoffs, "primaries": primaries, "secondaries": secondaries},
        "supply": supply, "processing": processing, "arcs": arcs})


@functools.cache
def _netgen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py"
    spec = importlib.util.spec_from_file_location("netgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def netgen_instance(areas: int, dropoffs: int, primaries: int,
                    seed: int) -> NetworkInstance:
    """A network from the benchmark's generator, ``perfbench/netgen.py``."""
    return instance_from_dict(_netgen().generate(areas, dropoffs, primaries, seed=seed))


KNAP_WEIGHTS = [4.0, 5.0, 6.0, 3.0]
KNAP_PROFITS = [10.0, 12.0, 13.0, 7.0]
KNAP_DEVS = [1.0, 1.5, 1.2, 0.6]
KNAP_CAP = 12.0


def knapsack_model() -> MilpModel:
    """Profit-maximizing selection with one protected load row."""
    model = MilpModel("knapsack")
    load = LinExpr()
    gain = LinExpr()
    for i, (w, p) in enumerate(zip(KNAP_WEIGHTS, KNAP_PROFITS)):
        name = f"x{i}"
        model.add_variable(name, binary=True)
        load.add(name, w)
        gain.add(name, -p)
    model.add_row(load, "<=", KNAP_CAP, RowTag("capacity", ("knap",)))
    model.set_objective(gain)
    return model


def worst_case_load(x, gamma: float) -> float:
    """Row activity after the adversary spends its budget on this point."""
    base = sum(w * xi for w, xi in zip(KNAP_WEIGHTS, x))
    impacts = sorted((d * xi for d, xi in zip(KNAP_DEVS, x)), reverse=True)
    whole = int(gamma)
    extra = sum(impacts[:whole])
    if whole < len(impacts):
        extra += (gamma - whole) * impacts[whole]
    return base + extra


def brute_force_robust_profit(gamma: float) -> float | None:
    """Best profit over every selection that survives the worst case."""
    best = None
    for x in itertools.product((0, 1), repeat=len(KNAP_WEIGHTS)):
        if worst_case_load(x, gamma) > KNAP_CAP + 1e-12:
            continue
        profit = sum(p * xi for p, xi in zip(KNAP_PROFITS, x))
        best = profit if best is None else max(best, profit)
    return best


def full_dual_counterpart(model: MilpModel, spec) -> MilpModel:
    """The budgeted counterpart with a Bertsimas-Sim dual on every protected
    row, whatever its budget: one ``GAMMA`` per row, and one ``DEV`` and one
    dual row per uncertain coefficient, zero deviations included.  A
    variable that can be negative enters the dual rows through its
    magnitude ``ABS``, bounded below by both signs of it."""
    out = MilpModel(f"{model.name}:full-dual")
    for var in model.variables.values():
        out.add_variable(var.name, var.lb, var.ub, var.binary)
    out.set_objective(model.objective)
    magnitude = {}

    def size(name: str) -> str:
        if model.variables[name].lb >= 0.0:
            return name
        if name not in magnitude:
            magnitude[name] = out.add_variable(f"ABS[{name}]", 0.0)
            for sign in (1.0, -1.0):
                out.add_row(LinExpr({magnitude[name]: 1.0, name: sign}), ">=", 0.0,
                            RowTag("abs", (name, str(sign))))
        return magnitude[name]

    for k, row in enumerate(model.rows):
        entry = spec.rows.get(str(row.tag))
        if entry is None or not entry.deviations:
            out.add_row(row.expr, row.relation, row.rhs, row.tag)
            continue
        flip = -1.0 if row.relation == ">=" else 1.0
        protected = row.expr.scaled(flip)
        budget = out.add_variable(f"GAMMA[{k}]", 0.0)
        protected.add(budget, entry.gamma)
        for name, deviation in entry.deviations.items():
            spread = out.add_variable(f"DEV[{k}|{name}]", 0.0)
            protected.add(spread, 1.0)
            out.add_row(LinExpr({budget: 1.0, spread: 1.0, size(name): -deviation}),
                        ">=", 0.0, RowTag("dual", (str(k), name)))
        out.add_row(protected, "<=", flip * row.rhs, row.tag)
    return out


def three_plan_tradeoff():
    """A model whose efficient set is exactly three known (cost, emission)
    points: pick one of three mutually exclusive plans."""
    plans = {"z1": (30.0, 10.0), "z2": (16.0, 18.0), "z3": (10.0, 30.0)}

    def factory():
        model = MilpModel("three-plans")
        cost = LinExpr()
        emission = LinExpr()
        pick = LinExpr()
        for name, (c, e) in plans.items():
            model.add_variable(name, binary=True)
            cost.add(name, c)
            emission.add(name, e)
            pick.add(name, 1.0)
        model.add_row(pick, "==", 1.0, RowTag("pick-one"))
        model.set_objective(cost)
        return model, cost, emission

    return factory, {(30.0, 10.0), (16.0, 18.0), (10.0, 30.0)}
