"""Exact cost/emission trade-off fronts.

The sweep is the augmented epsilon-constraint method: solve both single
objectives to anchor the emission range, then walk a uniform grid of
emission caps, each time minimizing cost plus theta times the cap's slack.
AUGMECON rewards the slack (a negative coefficient), so that among
equal-cost plans a grid solve picks the lower-emission one; the positive
coefficient used here picks the higher-emission one, and a weakly
dominated plan can reach the front.

The walk goes from the loosest cap to the tightest and skips the caps an
answer has already settled, as AUGMECON2's bypass does (Mavrotas & Florios,
*Appl. Math. Comput.* 2013).  The slack is the cap minus the emission, so
the augmented objective is cost minus theta times emission, plus a
constant, at every cap, and a tighter cap only shrinks the feasible set: an
optimum that still fits a tighter cap is that cap's optimum too, whatever
the sign of theta.  Each grid solve reports the tightest cap its answer
fits, and the grid caps between that and its own are not solved; the point
is labelled with the lowest grid index it covers.  Duplicate and dominated
grid results are filtered from the front.

Families adapt concrete model shapes to the sweep:

* :class:`ExpressionFamily` — any single MilpModel with a cost and an
  emission expression.
* :class:`SystemEpsilonFamily` and :class:`UserEpsilonFamily` — the
  whole-network and the two-phase program.  Both ride on
  :func:`~rlnd.scenarios.solve_system` and :func:`~rlnd.scenarios.solve_user`:
  an anchor is the plain solve of one objective, the same optimum
  ``rlnd solve`` prints, and a grid solve is the cost solve under an
  :class:`~rlnd.scenarios.EmissionCap`.  The user emission anchor is thus
  the residents' own trip-emission optimum followed by the operator's
  emission-optimal routing.  The two-phase cap holds back that anchor's
  phase-two emission from phase one, so that phase two can still fit under
  the overall cap, and caps phase two at what phase one left.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

# the builders stay bound for perfbench, which wraps all three here by name
from .builders import build_system_model, build_user_model_i, build_user_model_ii
from .domain import NetworkInstance
from .milp import DEFAULT_SOLVER, LinExpr, MilpModel, ModelError, Solution, Solver, Status
from .scenarios import (EmissionCap, SideResult, add_epsilon_row, solve_system,
                        solve_user)

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

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, dict[str, float], float] | None:
        """Minimize cost subject to emission <= epsilon; None if infeasible.

        Returns (cost, emission, values, reach): ``reach`` is the tightest
        cap under which this answer is still feasible.
        """
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
    """Walk the emission range in `points` uniform steps, loosest cap first
    (at most points+1 solves)."""
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
    k = len(grid) - 1
    while k >= 0:
        v, eps = grid[k]
        k -= 1
        result = family.solve_point(v, eps, theta)
        if result is None:
            skipped.append(SkippedPoint(v, eps, "no solution fits this emission cap"))
            continue
        cost, emission, values, reach = result
        while k >= 0 and grid[k][1] >= reach:
            v, eps = grid[k]
            k -= 1
        found.append(ParetoPoint(v, eps, cost, emission, values))
    found.reverse()
    skipped.reverse()

    front = _nondominated(_deduplicate(found))
    return ParetoFront(front, skipped, (cost_c, em_c), (cost_e, em_e), theta)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

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

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, dict[str, float], float] | None:
        model, cost, emission = self.factory()
        add_epsilon_row(model, emission, v, epsilon, theta, cost)
        solution = self._solved(model)
        if solution is None:
            return None
        reach = emission.evaluate(solution.values)
        return cost.evaluate(solution.values), reach, dict(solution.values), reach


def _grid_answer(side: SideResult, v: int
                 ) -> tuple[float, float, dict[str, float], float] | None:
    if side.status is Status.INFEASIBLE:
        return None
    side.require_optimal(f"grid solve {v}")
    return side.total_cost, side.total_emission, side.values, side.reach


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

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, dict[str, float], float] | None:
        return _grid_answer(solve_system(self.instance, "cost", self.solver,
                                         self.include_policy,
                                         EmissionCap(v, epsilon, theta)), v)


class UserEpsilonFamily:
    """Trade-off family for the two-phase (decentralized) program.

    The emission cap applies to the composed network total.  Phase one is
    capped at ``epsilon`` minus the phase-two emission of the emission
    anchor, and phase two at what phase one left (see
    :class:`~rlnd.scenarios.EmissionCap`).
    """

    def __init__(self, instance: NetworkInstance, include_policy: bool = True,
                 solver: Solver | None = None):
        self.instance = instance
        self.include_policy = include_policy
        self.solver = solver or DEFAULT_SOLVER
        self._downstream_floor: float | None = None

    def anchor(self, objective: str) -> tuple[float, float, dict[str, float]]:
        side = solve_user(self.instance, objective, self.solver,
                          self.include_policy).require_optimal("anchor solve")
        if objective == "emission":
            phase2, s2 = side.phases[1]
            self._downstream_floor = phase2.stages.total_emission().evaluate(s2.values)
        return side.total_cost, side.total_emission, side.values

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, dict[str, float], float] | None:
        if self._downstream_floor is None:
            self.anchor("emission")
        cap = EmissionCap(v, epsilon, theta, held_back=self._downstream_floor)
        return _grid_answer(solve_user(self.instance, "cost", self.solver,
                                       self.include_policy, cap), v)
