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

Consecutive grid solves differ only in right-hand sides: the cap and, in
the two-phase program, the mass phase one collected.  A family given no
solver makes one :class:`~rlnd.milp.EmbeddedSolver` for all of its solves,
which restarts each root from the last optimal root of the same shape: the
emission anchor's from the cost anchor's, each grid solve's from the
previous one's, whose optimal basis a new right-hand side leaves dual
feasible.  No grid solve rebuilds its model: the builders keep what they
built for the family's instance, and each grid solve adds its epsilon row
to a fresh copy of the anchor's model (see :mod:`rlnd.builders`).

On a solver that can start a solve on a background thread, the sweep
overlaps two solves: :class:`~rlnd.external.ScipySolver` can
(``background`` and ``start``) when the process may use more than one CPU,
and the family must be able to build a step's first model ahead
(``build``): the whole-network model, or the two-phase program's phase one.
Before the sweep solves a step that nobody started, it builds the next
step's first model in the calling thread and starts it: the emission anchor
while the cost anchor solves, then the next cap of the walk, which the
sweep knows before the current cap ends because the bypass only ever skips
caps.  A started step only waits for its answer.  So at most two solves run
at once, and the solver needs one worker thread.  A started cap that the
bypass skips is waited for and dropped, with anything it raised.  Every
model is still built, handed to the solver's ``solve()`` and reported in
the calling thread, in the sequential walk's order of solves; only HiGHS's
``run()`` runs on the worker, so the fronts are the same.  The sweep holds
the solver's background scope for as long as the worker can run: on exit,
also on error, the scope waits for and drops a started solve, so none
outlives the sweep.  The embedded engine, and any solver without
``background``, keeps the sequential walk: the engine holds the
interpreter lock, and its kept roots make its answers depend on the order
of its solves.

Families adapt concrete model shapes to the sweep.  The sweep reads only
totals from them: each anchor's cost and emission, and each grid solve's
cost, emission and reach; the solution values stay with the family.  The
whole-network and two-phase families take their totals and the emission
each cap bounds from :data:`rlnd.objectives.TOTALS`:

* :class:`ExpressionFamily` — any single MilpModel with a cost and an
  emission expression.
* :class:`SystemEpsilonFamily` — the whole-network program, on
  :func:`~rlnd.scenarios.build_system` and
  :func:`~rlnd.scenarios.solve_first`: an anchor is the plain solve of one
  objective, the same optimum ``rlnd solve`` prints, and a grid solve is the
  cost solve under an :class:`~rlnd.scenarios.EmissionCap`.
* :class:`UserEpsilonFamily` — the same family on the two-phase program,
  :func:`~rlnd.scenarios.build_user`.  Its emission anchor is thus the
  residents' own trip-emission optimum followed by the operator's
  emission-optimal routing.  The two-phase cap holds back that anchor's
  phase-two emission from phase one, so that phase two can still fit under
  the overall cap, and caps phase two at what phase one left.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

# the builders stay bound for perfbench, which wraps all three here by name
from .builders import build_system_model, build_user_model_i, build_user_model_ii
from .domain import NetworkInstance
from .io import write_csv
from .milp import EmbeddedSolver, LinExpr, MilpModel, ModelError, Solution, Solver, Status
from .scenarios import (EmissionCap, FirstModel, add_epsilon_row, build_system, build_user,
                        solve_first)

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
        write_csv(path, ("v", "epsilon", "total_cost", "total_emission"),
                  ((p.v, p.epsilon, p.total_cost, p.total_emission) for p in self.points))

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
    """What the sweep needs from a problem family: the cost and emission
    totals of the two anchors and of each grid solve, and the tightest cap
    each grid answer fits.

    A family whose ``solver`` can start a solve in the background may also
    offer ``build(step)``, the first model of a step (an anchor's objective
    or a grid point ``(v, epsilon, theta)``) built ahead of its solve, and
    take it back as the ``built`` argument of ``anchor`` or
    ``solve_point``; the sweep then overlaps two solves."""

    def anchor(self, objective: str) -> tuple[float, float]:
        """(cost, emission) after minimizing the named objective."""
        ...

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, float] | None:
        """Minimize cost subject to emission <= epsilon; None if infeasible.

        Returns (cost, emission, reach): ``reach`` is the tightest cap under
        which this answer is still feasible.
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
    (at most points+1 solves).

    A family that can build a step's first model ahead, on a solver that
    can start it in the background, overlaps two solves (see the module
    docstring).
    """
    if not THETA_RANGE[0] <= theta <= THETA_RANGE[1]:
        raise ValueError(f"theta must lie in [{THETA_RANGE[0]:g}, {THETA_RANGE[1]:g}], "
                         f"got {theta:g}")
    if points < 1:
        raise ValueError("the grid needs at least one step")
    background = getattr(getattr(family, "solver", None), "background", None)
    if background is None or not hasattr(family, "build"):
        return _walk(family, points, theta, None)
    with background() as overlapping:
        return _walk(family, points, theta, family.solver.start if overlapping else None)


def _walk(family: TradeoffFamily, points: int, theta: float,
          start: Callable[[MilpModel], None] | None) -> ParetoFront:
    """The sweep; with ``start``, each step solved in the calling thread
    that nobody started first starts the next step's first model."""
    started = None  # (step, its FirstModel) whose solve ``start`` began

    def solve(step, upcoming=None):
        nonlocal started
        kwargs = {}
        if started is not None and started[0] == step:
            kwargs["built"] = started[1]
            started = None
        elif start is not None and upcoming is not None:
            ahead = family.build(upcoming)
            start(ahead.model)
            started = (upcoming, ahead)
        if isinstance(step, str):
            return family.anchor(step, **kwargs)
        return family.solve_point(*step, **kwargs)

    cost_c, em_c = solve("cost", "emission")
    cost_e, em_e = solve("emission")
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
        result = solve((v, eps, theta), (*grid[k], theta) if k >= 0 else None)
        if result is None:
            skipped.append(SkippedPoint(v, eps, "no solution fits this emission cap"))
            continue
        cost, emission, reach = result
        while k >= 0 and grid[k][1] >= reach:
            v, eps = grid[k]
            k -= 1
        found.append(ParetoPoint(v, eps, cost, emission))
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
        self.solver = solver or EmbeddedSolver()

    def _solved(self, model: MilpModel) -> Solution | None:
        solution = self.solver.solve(model)
        if solution.status is Status.INFEASIBLE:
            return None
        if solution.status is not Status.OPTIMAL:
            raise ModelError(f"trade-off solve ended {solution.status.value}")
        return solution

    def anchor(self, objective: str) -> tuple[float, float]:
        model, cost, emission = self.factory()
        model.set_objective(cost if objective == "cost" else emission)
        solution = self._solved(model)
        if solution is None:
            raise ModelError("the family is infeasible; no anchor exists")
        return cost.evaluate(solution.values), emission.evaluate(solution.values)

    def solve_point(self, v: int, epsilon: float, theta: float
                    ) -> tuple[float, float, float] | None:
        model, cost, emission = self.factory()
        add_epsilon_row(model, emission, v, epsilon, theta, cost)
        solution = self._solved(model)
        if solution is None:
            return None
        reach = emission.evaluate(solution.values)
        return cost.evaluate(solution.values), reach, reach


class SystemEpsilonFamily:
    """Trade-off family for the whole-network program."""

    _build = staticmethod(build_system)

    def __init__(self, instance: NetworkInstance, include_policy: bool = True,
                 solver: Solver | None = None):
        self.instance = instance
        self.include_policy = include_policy
        self.solver = solver or EmbeddedSolver()
        self._held_back: float | None = None

    def _cap(self, v: int, epsilon: float, theta: float) -> EmissionCap:
        return EmissionCap(v, epsilon, theta)

    def build(self, step: str | tuple[int, float, float]) -> FirstModel:
        """The first model of a sweep step, built ahead of its solve: of
        ``anchor(step)`` for an objective, of ``solve_point(*step)`` for a
        grid point; hand it to that call as ``built``."""
        if isinstance(step, str):
            return self._build(self.instance, step, self.include_policy)
        return self._build(self.instance, "cost", self.include_policy, self._cap(*step))

    def anchor(self, objective: str, built: FirstModel | None = None) -> tuple[float, float]:
        side = solve_first(built or self.build(objective), self.solver)
        side.require_optimal("anchor solve")
        if objective == "emission":  # later phases' emission, held back from phase one
            self._held_back = sum(artifacts.stages.total("emission").evaluate(solution.values)
                                  for artifacts, solution in side.phases[1:])
        return side.total_cost, side.total_emission

    def solve_point(self, v: int, epsilon: float, theta: float,
                    built: FirstModel | None = None) -> tuple[float, float, float] | None:
        return self._grid_solve(v, epsilon, theta, built)

    def _grid_solve(self, v: int, epsilon: float, theta: float,
                    built: FirstModel | None) -> tuple[float, float, float] | None:
        side = solve_first(built or self.build((v, epsilon, theta)), self.solver)
        if side.status is Status.INFEASIBLE:
            return None
        side.require_optimal(f"grid solve {v}")
        return side.total_cost, side.total_emission, side.reach


class UserEpsilonFamily(SystemEpsilonFamily):
    """Trade-off family for the two-phase (decentralized) program.

    The emission cap applies to the composed network total.  Phase one is
    capped at ``epsilon`` minus the phase-two emission of the emission
    anchor, and phase two at what phase one left (see
    :class:`~rlnd.scenarios.EmissionCap`); a grid solve asked for before
    the anchors solves the emission anchor first.
    """

    _build = staticmethod(build_user)

    def _cap(self, v: int, epsilon: float, theta: float) -> EmissionCap:
        if self._held_back is None:
            self.anchor("emission")
        return EmissionCap(v, epsilon, theta, self._held_back)

    # Each family defines its own solve_point, so that wrapping one family's
    # method (as perfbench's tracer does, per class) leaves the other's alone.
    def solve_point(self, v: int, epsilon: float, theta: float,
                    built: FirstModel | None = None) -> tuple[float, float, float] | None:
        return self._grid_solve(v, epsilon, theta, built)
