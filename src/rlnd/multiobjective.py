"""Exact cost/emission trade-off fronts.

The sweep is the augmented epsilon-constraint method: solve both single
objectives to anchor the emission range, then walk a uniform grid of
emission caps, each time minimizing cost plus a small slack reward so every
grid solve lands on an efficient vertex instead of a weakly-dominated one.
Duplicate and dominated grid results are filtered, so the returned front
contains exactly the distinct efficient points the grid can see.

Families adapt concrete model shapes to the sweep:

* :class:`ExpressionFamily` — any single MilpModel with a cost and an
  emission expression.
* :class:`SystemEpsilonFamily` — the whole-network program.
* :class:`UserEpsilonFamily` — the two-phase program; the cap is split into
  a residue for the second phase so the composed emission still respects it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

from .builders import build_system_model, build_user_model_i, build_user_model_ii
from .domain import NetworkInstance
from .milp import (DEFAULT_SOLVER, LinExpr, MilpModel, ModelError, RowTag,
                   Solution, Solver, Status)
from .objectives import breakdown_from_solution, collected_quantities, merge_phases
from .scenarios import solve_system

THETA_DEFAULT = 1e-4
THETA_RANGE = (1e-6, 1e-3)
POINTS_DEFAULT = 10
_MERGE_TOL = 1e-7  # relative; grid solves landing on one vertex


@dataclass(frozen=True)
class ParetoPoint:
    v: int
    epsilon: float
    total_cost: float
    total_emission: float
    values: dict[str, float] = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class SkippedPoint:
    v: int
    epsilon: float
    reason: str


@dataclass
class ParetoFront:
    points: list[ParetoPoint]
    skipped: list[SkippedPoint]
    cost_anchor: tuple[float, float]      # (cost, emission) minimizing cost
    emission_anchor: tuple[float, float]  # (cost, emission) minimizing emission
    theta: float

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["v", "epsilon", "total_cost", "total_emission"])
            for p in self.points:
                writer.writerow([p.v, f"{p.epsilon:.6f}",
                                 f"{p.total_cost:.6f}", f"{p.total_emission:.6f}"])

    def format_text(self) -> str:
        lines = [f"anchors: cost ({self.cost_anchor[0]:.3f}, {self.cost_anchor[1]:.3f})"
                 f"  emission ({self.emission_anchor[0]:.3f}, {self.emission_anchor[1]:.3f})"]
        for p in self.points:
            lines.append(f"v={p.v:3d}  eps={p.epsilon:14.3f}  "
                         f"cost={p.total_cost:14.3f}  emission={p.total_emission:14.3f}")
        for s in self.skipped:
            lines.append(f"v={s.v:3d}  eps={s.epsilon:14.3f}  skipped: {s.reason}")
        return "\n".join(lines)


class TradeoffFamily(Protocol):
    """What the sweep needs from a problem family."""

    def anchor(self, objective: str) -> tuple[float, float, dict[str, float]]:
        """(cost, emission, values) after minimizing the named objective."""
        ...

    def solve_point(self, v: int, epsilon: float,
                    theta: float) -> tuple[float, float, dict[str, float]] | None:
        """Minimize cost subject to emission <= epsilon; None if infeasible."""
        ...


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _MERGE_TOL * max(1.0, abs(a), abs(b))


def _deduplicate(points: list[ParetoPoint]) -> list[ParetoPoint]:
    kept: list[ParetoPoint] = []
    for p in points:
        if not any(_close(p.total_cost, q.total_cost)
                   and _close(p.total_emission, q.total_emission) for q in kept):
            kept.append(p)
    return kept


def _nondominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    def dominates(q: ParetoPoint, p: ParetoPoint) -> bool:
        no_worse = (q.total_cost <= p.total_cost + _MERGE_TOL * max(1.0, abs(p.total_cost))
                    and q.total_emission <= p.total_emission
                    + _MERGE_TOL * max(1.0, abs(p.total_emission)))
        better = (q.total_cost < p.total_cost - _MERGE_TOL * max(1.0, abs(p.total_cost))
                  or q.total_emission < p.total_emission
                  - _MERGE_TOL * max(1.0, abs(p.total_emission)))
        return no_worse and better

    return [p for p in points
            if not any(dominates(q, p) for q in points if q is not p)]


def epsilon_sweep(family: TradeoffFamily, points: int = POINTS_DEFAULT,
                  theta: float = THETA_DEFAULT) -> ParetoFront:
    """Walk the emission range in `points` uniform steps (points+1 solves)."""
    if not THETA_RANGE[0] <= theta <= THETA_RANGE[1]:
        raise ValueError(f"theta must lie in [{THETA_RANGE[0]:g}, {THETA_RANGE[1]:g}], "
                         f"got {theta:g}")
    if points < 1:
        raise ValueError("the grid needs at least one step")

    cost_c, em_c, _ = family.anchor("cost")
    cost_e, em_e, _ = family.anchor("emission")
    em_min, em_max = em_e, max(em_e, em_c)

    found: list[ParetoPoint] = []
    skipped: list[SkippedPoint] = []
    if _close(em_min, em_max):
        grid = [(0, em_max)]
    else:
        delta = (em_max - em_min) / points
        grid = [(v, em_min + v * delta) for v in range(points + 1)]
    for v, eps in grid:
        result = family.solve_point(v, eps, theta)
        if result is None:
            skipped.append(SkippedPoint(v, eps, "no solution fits this emission cap"))
            continue
        cost, emission, values = result
        found.append(ParetoPoint(v, eps, cost, emission, values))

    front = _nondominated(_deduplicate(found))
    return ParetoFront(front, skipped, (cost_c, em_c), (cost_e, em_e), theta)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def _add_epsilon_row(model: MilpModel, emission: LinExpr, v: int, epsilon: float,
                     theta: float, cost: LinExpr) -> None:
    slack = model.add_variable(f"EPS_SLACK[{v}]", 0.0)
    row = emission.copy()
    row.add(slack, 1.0)
    model.add_row(row, "==", epsilon, RowTag("epsilon", (str(v),)))
    objective = cost.copy()
    objective.add(slack, theta)
    model.set_objective(objective)


class ExpressionFamily:
    """Family over a model factory returning (model, cost_expr, emission_expr).

    A fresh model is built per solve, so the factory must be deterministic.
    """

    def __init__(self, factory: Callable[[], tuple[MilpModel, LinExpr, LinExpr]],
                 solver: Solver | None = None):
        self.factory = factory
        self.solver = solver or DEFAULT_SOLVER

    def _solved(self, model: MilpModel) -> Solution | None:
        solution = self.solver.solve(model)
        if solution.status is Status.INFEASIBLE:
            return None
        if solution.status is not Status.OPTIMAL:
            raise ModelError(f"trade-off solve ended {solution.status.value}")
        return solution

    def anchor(self, objective: str) -> tuple[float, float, dict[str, float]]:
        model, cost, emission = self.factory()
        model.set_objective(cost if objective == "cost" else emission)
        solution = self._solved(model)
        if solution is None:
            raise ModelError("the family is infeasible; no anchor exists")
        return (cost.evaluate(solution.values), emission.evaluate(solution.values),
                dict(solution.values))

    def solve_point(self, v: int, epsilon: float,
                    theta: float) -> tuple[float, float, dict[str, float]] | None:
        model, cost, emission = self.factory()
        _add_epsilon_row(model, emission, v, epsilon, theta, cost)
        solution = self._solved(model)
        if solution is None:
            return None
        return (cost.evaluate(solution.values), emission.evaluate(solution.values),
                dict(solution.values))


class SystemEpsilonFamily:
    """Trade-off family for the whole-network program."""

    def __init__(self, instance: NetworkInstance, include_policy: bool = True,
                 solver: Solver | None = None):
        self.instance = instance
        self.include_policy = include_policy
        self.solver = solver or DEFAULT_SOLVER

    def anchor(self, objective: str) -> tuple[float, float, dict[str, float]]:
        side = solve_system(self.instance, objective, self.solver,
                            self.include_policy).require_optimal("anchor solve")
        return side.total_cost, side.total_emission, side.values

    def solve_point(self, v: int, epsilon: float,
                    theta: float) -> tuple[float, float, dict[str, float]] | None:
        artifacts = build_system_model(self.instance, "cost", self.include_policy)
        _add_epsilon_row(artifacts.model, artifacts.stages.total_emission(), v,
                         epsilon, theta, artifacts.stages.total_cost())
        solution = self.solver.solve(artifacts.model)
        if solution.status is Status.INFEASIBLE:
            return None
        if solution.status is not Status.OPTIMAL:
            raise ModelError(f"grid solve {v} ended {solution.status.value}")
        breakdown, _ = breakdown_from_solution(self.instance, artifacts.vars, solution)
        return breakdown.total_cost, breakdown.total_emission, dict(solution.values)


class UserEpsilonFamily:
    """Trade-off family for the two-phase (decentralized) program.

    The emission cap applies to the composed network total.  Phase one is
    capped at ``epsilon`` minus the best achievable downstream emission, so
    whatever it leaves on the table, phase two can still fit under the
    overall cap; phase two is then capped at the actual residue.
    """

    def __init__(self, instance: NetworkInstance, include_policy: bool = True,
                 solver: Solver | None = None):
        self.instance = instance
        self.include_policy = include_policy
        self.solver = solver or DEFAULT_SOLVER
        self._downstream_floor: float | None = None

    # phase-one emission: everything the assignment alone determines
    def _collection_emission(self, artifacts) -> LinExpr:
        stages = artifacts.stages
        expr = stages.transport_emission["residence-dropoff"].copy()
        expr.add_expr(stages.processing_emission["dropoff"])
        expr.add_expr(stages.emission_offset["dropoff"], -1.0)
        return expr

    def _solved(self, model: MilpModel, label: str) -> Solution | None:
        solution = self.solver.solve(model)
        if solution.status is Status.INFEASIBLE:
            return None
        if solution.status is not Status.OPTIMAL:
            raise ModelError(f"{label} ended {solution.status.value}")
        return solution

    def _compose(self, a1, s1: Solution, a2, s2: Solution):
        vars, merged = merge_phases(a1.vars, s1, a2.vars, s2)
        breakdown, _ = breakdown_from_solution(self.instance, vars, merged)
        return breakdown.total_cost, breakdown.total_emission, merged.values

    def _anchor_solutions(self, objective: str):
        a1 = build_user_model_i(self.instance, objective, self.include_policy)
        if objective == "emission":
            a1.model.set_objective(self._collection_emission(a1))
        s1 = self._solved(a1.model, "phase one anchor")
        if s1 is None:
            raise ModelError("the collection phase is infeasible; no anchor exists")
        rq = collected_quantities(self.instance, a1.vars, s1.values)
        a2 = build_user_model_ii(self.instance, rq, objective)
        s2 = self._solved(a2.model, "phase two anchor")
        if s2 is None:
            raise ModelError("the routing phase is infeasible; no anchor exists")
        return a1, s1, a2, s2

    def anchor(self, objective: str) -> tuple[float, float, dict[str, float]]:
        a1, s1, a2, s2 = self._anchor_solutions(objective)
        if objective == "emission":
            self._downstream_floor = a2.stages.total_emission().evaluate(s2.values)
        return self._compose(a1, s1, a2, s2)

    def _floor(self) -> float:
        if self._downstream_floor is None:
            self.anchor("emission")
        assert self._downstream_floor is not None
        return self._downstream_floor

    def solve_point(self, v: int, epsilon: float,
                    theta: float) -> tuple[float, float, dict[str, float]] | None:
        a1 = build_user_model_i(self.instance, "cost", self.include_policy)
        collection = self._collection_emission(a1)
        _add_epsilon_row(a1.model, collection, v, epsilon - self._floor(), theta,
                         a1.model.objective)
        s1 = self._solved(a1.model, f"grid solve {v} phase one")
        if s1 is None:
            return None

        rq = collected_quantities(self.instance, a1.vars, s1.values)
        a2 = build_user_model_ii(self.instance, rq, "cost")
        residue = epsilon - collection.evaluate(s1.values)
        _add_epsilon_row(a2.model, a2.stages.total_emission(), v, residue, theta,
                         a2.model.objective)
        s2 = self._solved(a2.model, f"grid solve {v} phase two")
        if s2 is None:
            return None
        return self._compose(a1, s1, a2, s2)
