"""Named planning scenarios and centralized-vs-decentralized comparisons.

A scenario is the bundled (or a user-supplied) instance plus light
overrides: a different supply mix, a per-area trip factor, or primary-tier
throughput caps expressed as a fraction of the throughput the unconstrained
network actually uses.  `solve_scenario` solves the whole-network program
and the two-phase program on the materialized instance and reports both as
per-stage breakdowns; `run_scenario` does the same and raises when a solve
does not end optimal.

`solve_system` and `solve_user` are the one build, solve and report path
for the two programs, and each is two steps: `build_system` or `build_user`
builds the program's first model, a `FirstModel`, and `solve_first` solves
and reports it.  Every other caller, the CLI and the trade-off families
included, goes through them; the families take the two steps apart, so that
a sweep can build the next grid point's model ahead of its solve.  An
optional `EmissionCap` turns either program into a grid solve of the
epsilon-constraint sweep, and `solve_built` reports a whole-network model
built elsewhere, such as a robust counterpart.  An entry point given no
solver makes one :class:`~rlnd.milp.EmbeddedSolver` for all of its solves,
so each root starts from the last one of its shape (the baseline's for the
throughput solve, the previous step's in calibration).  Every solve on a
new instance builds its own model; a solve on an instance already built
from, such as a trade-off grid point, gets a fresh copy of that model (see
:mod:`rlnd.builders`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from .builders import (ModelArtifacts, build_system_model, build_user_model_i,
                       build_user_model_ii)
from .domain import (TIERS, NetworkInstance, with_supply_mass, with_total_capacity,
                     with_trip_factor)
from .io import Node, load_bundled_instance, read_document, write_csv
from .milp import (EmbeddedSolver, LinExpr, MilpModel, ModelError, RowTag, Solution,
                   Solver, Status)
from .objectives import (StageBreakdown, breakdown_from_solution, collected_quantities,
                         facility_inflows, merge_phases)

@dataclass(frozen=True)
class ScenarioSpec:
    """Overrides applied to a base instance before solving."""

    name: str
    description: str = ""
    supply_mass: dict[str, dict[str, float]] | None = None
    trip_factor: float | None = None
    total_capacity_fraction: float | None = None  # of solved base throughput
    total_capacity: dict[str, float] | None = None


# the five standard what-if cases for the bundled two-area instance, in order
_BUILTIN = (
    ScenarioSpec("baseline", "the instance as given"),
    ScenarioSpec("capacity-80", "every primary capped at 80% of the busiest "
                 "primary's baseline throughput", total_capacity_fraction=0.80),
    ScenarioSpec("capacity-40", "every primary capped at 40% of the busiest "
                 "primary's baseline throughput", total_capacity_fraction=0.40),
    ScenarioSpec("supply-mix-1", "second area generates most of both products",
                 supply_mass={"prod1": {"area1": 600.0, "area2": 1050.0},
                              "prod2": {"area1": 600.0, "area2": 1050.0}}),
    ScenarioSpec("supply-mix-2", "each area leads on a different product",
                 supply_mass={"prod1": {"area1": 1050.0, "area2": 600.0},
                              "prod2": {"area1": 600.0, "area2": 1050.0}}),
)
SCENARIO_ORDER = tuple(spec.name for spec in _BUILTIN)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """The built-in scenarios by name, in ``SCENARIO_ORDER``; every call
    hands out the same specs, so replace one, never change it."""
    return {spec.name: spec for spec in _BUILTIN}


def load_scenario_spec(path: str | Path) -> ScenarioSpec:
    """A spec file, its numbers converted; a missing key or a value of the
    wrong type raises a DocumentError that names the file and the key."""
    doc = read_document(path)
    return ScenarioSpec(
        name=doc["name"].text(),
        description=doc.get("description", Node.text, ""),
        supply_mass=doc.get("supply_mass", lambda n: n.map(Node.numbers)),
        trip_factor=doc.get("trip_factor", Node.number),
        total_capacity_fraction=doc.get("total_capacity_fraction", Node.number),
        total_capacity=doc.get("total_capacity", Node.numbers),
    )


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------

def derive_throughput(instance: NetworkInstance,
                      solver: Solver | None = None) -> tuple[str, float, dict[str, float]]:
    """Busiest primary under the cost-optimal whole-network plan.

    Returns (facility, inflow, all primary inflows); ties break toward the
    earlier facility in the instance's primary ordering.
    """
    side = solve_system(instance, "cost", solver).require_optimal("throughput solve")
    artifacts, _ = side.phases[0]
    inflows = facility_inflows(instance, artifacts.vars, side.values)
    per_primary = {p: inflows.get(p, 0.0) for p in instance.primaries}
    busiest = max(instance.primaries, key=lambda p: per_primary[p])
    return busiest, per_primary[busiest], per_primary


def _with_absolute_caps(spec: ScenarioSpec, instance: NetworkInstance,
                        throughput: float) -> ScenarioSpec:
    """``spec`` with its fraction caps turned into caps on every primary of
    ``instance``; caps the spec names itself still override them."""
    caps = {p: spec.total_capacity_fraction * throughput for p in instance.primaries}
    return replace(spec, total_capacity_fraction=None,
                   total_capacity={**caps, **(spec.total_capacity or {})})


def materialize(spec: ScenarioSpec, base: NetworkInstance | None = None,
                solver: Solver | None = None) -> NetworkInstance:
    """Apply a scenario's overrides to the base instance.

    Throughput-fraction caps are computed against the *unmodified* base, so
    "80% capacity" always means 80% of what the unconstrained network used.
    """
    instance = base if base is not None else load_bundled_instance()
    if spec.total_capacity_fraction is not None:
        _, throughput, _ = derive_throughput(instance, solver)
        spec = _with_absolute_caps(spec, instance, throughput)
    out = instance
    if spec.trip_factor is not None:
        out = with_trip_factor(out, spec.trip_factor)
    if spec.supply_mass is not None:
        out = with_supply_mass(out, spec.supply_mass)
    if spec.total_capacity is not None:
        out = with_total_capacity(out, spec.total_capacity)
    if spec.name and spec.name != instance.name:
        out = replace(out, name=f"{instance.name}:{spec.name}")
    return out


# ----------------------------------------------------------------------
# solving and reporting
# ----------------------------------------------------------------------

@dataclass
class SideResult:
    """One decision mode's solve: the solver's verdict, each phase's model
    and solution in solve order, and the report when there is one.

    A solve stops at the first phase that is not optimal; ``status`` is that
    phase's status.  The breakdown, open set and merged values are filled when
    every phase is optimal, or when the system solve ran out of budget with an
    incumbent in hand.
    """

    status: Status
    phases: list[tuple[ModelArtifacts, Solution]]
    breakdown: StageBreakdown | None = None
    opens: dict[str, bool] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    reach: float | None = None  # under a cap: the tightest cap the answer fits

    def require_optimal(self, label: str) -> SideResult:
        """This result, or ModelError naming `label` and carrying the status
        if it is not optimal."""
        if self.status is not Status.OPTIMAL:
            raise ModelError(f"{label} ended {self.status.value}", self.status)
        return self

    @property
    def fixed_cost(self) -> float:
        return sum(self.breakdown.fixed_cost.values())

    @property
    def revenue(self) -> float:
        return sum(self.breakdown.resale_revenue.values())

    @property
    def offset(self) -> float:
        return sum(self.breakdown.emission_offset.values())

    @property
    def total_cost(self) -> float:
        return self.breakdown.total_cost

    @property
    def total_emission(self) -> float:
        return self.breakdown.total_emission


@dataclass
class ScenarioResult:
    """A scenario solved both ways; the two-phase program is solved only
    when the whole-network one ends optimal, and ``user`` is None otherwise.

    A scenario whose caps could not be derived, because the base throughput
    solve failed, has that solve's status as its ``system`` status, with no
    phases, and its message as ``blocked_by``."""

    name: str
    objective: str
    instance: NetworkInstance
    system: SideResult
    user: SideResult | None
    blocked_by: str | None = None

    @property
    def status(self) -> Status:
        """OPTIMAL, or the status of the solve that was not."""
        return self.system.status if self.user is None else self.user.status

    @property
    def failure(self) -> str | None:
        """Which solve ended how, when one was not optimal."""
        if self.status is Status.OPTIMAL:
            return None
        if self.blocked_by is not None:
            return self.blocked_by
        mode = "whole-network" if self.user is None else "two-phase"
        return f"{mode} {self.objective} solve ended {self.status.value}"

    def format_text(self) -> str:
        title = f"scenario {self.name} ({self.objective} objective)"
        if self.failure is not None:
            return f"{title}: {self.failure}"
        lines = [title]
        header = (f"{'':10s} {'fixed':>10s} {'revenue':>10s} {'cost':>12s} "
                  f"{'offset':>10s} {'emission':>12s}")
        lines.append(header)
        for mode, side in (("system", self.system), ("user", self.user)):
            lines.append(f"{mode:10s} {side.fixed_cost:10.2f} {side.revenue:10.2f} "
                         f"{side.total_cost:12.2f} {side.offset:10.2f} "
                         f"{side.total_emission:12.2f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EmissionCap:
    """Grid point ``v`` of a trade-off sweep: emission at most ``epsilon``,
    with ``theta`` times the cap's slack added to the objective.

    The two-phase program caps phase one at ``epsilon - held_back``, so
    that phase two keeps that much emission for itself, and then caps phase
    two at what phase one left.
    """

    v: int
    epsilon: float
    theta: float
    held_back: float = 0.0


def add_epsilon_row(model: MilpModel, emission: LinExpr, v: int, epsilon: float,
                    theta: float, cost: LinExpr) -> None:
    """``emission + EPS_SLACK[v] == epsilon``; the objective becomes ``cost``
    plus theta times the slack."""
    slack = model.add_variable(f"EPS_SLACK[{v}]", 0.0)
    row = emission.copy()
    row.add(slack, 1.0)
    model.add_row(row, "==", epsilon, RowTag("epsilon", (str(v),)))
    objective = cost.copy()
    objective.add(slack, theta)
    model.set_objective(objective)


def solve_built(instance: NetworkInstance, artifacts: ModelArtifacts,
                solver: Solver | None = None) -> SideResult:
    """Solve a built whole-network model, robust counterparts included, and
    report it: an optimal answer, or the incumbent of a search that ran out
    of budget.  Any other verdict comes back as its status alone."""
    solution = (solver or EmbeddedSolver()).solve(artifacts.model)
    phases = [(artifacts, solution)]
    if not (solution.status is Status.OPTIMAL
            or solution.status is Status.BUDGET_EXCEEDED and solution.values):
        return SideResult(solution.status, phases)
    breakdown, opens = breakdown_from_solution(instance, artifacts.vars, artifacts.stages,
                                               solution)
    return SideResult(solution.status, phases, breakdown, opens, dict(solution.values))


@dataclass
class FirstModel:
    """A program's first model, built and, under a cap, capped, waiting for
    its solve: the whole-network model, or the two-phase program's phase
    one.  ``capped`` is the emission total the cap row bounds."""

    instance: NetworkInstance
    objective: str
    artifacts: ModelArtifacts
    two_phase: bool
    cap: EmissionCap | None = None
    capped: LinExpr | None = None

    @property
    def model(self) -> MilpModel:
        return self.artifacts.model


def build_system(instance: NetworkInstance, objective: str = "cost",
                 include_policy: bool = True, cap: EmissionCap | None = None) -> FirstModel:
    """The whole-network model, with the cap's epsilon row if there is a cap."""
    artifacts = build_system_model(instance, objective, include_policy)
    first = FirstModel(instance, objective, artifacts, False, cap)
    if cap is not None:
        first.capped = artifacts.stages.total("emission")
        add_epsilon_row(artifacts.model, first.capped, cap.v, cap.epsilon, cap.theta,
                        artifacts.model.objective)
    return first


def build_user(instance: NetworkInstance, objective: str = "cost",
               include_policy: bool = True, cap: EmissionCap | None = None) -> FirstModel:
    """The two-phase program's phase one; under a cap, the emission it
    settles alone is capped at the cap less what it holds back."""
    phase1 = build_user_model_i(instance, objective, include_policy)
    first = FirstModel(instance, objective, phase1, True, cap)
    if cap is not None:
        # what the users' phase settles alone: trips and dropoff processing, less offsets
        first.capped = phase1.stages.total("emission", {TIERS[0].leg, TIERS[0].name})
        add_epsilon_row(phase1.model, first.capped, cap.v, cap.epsilon - cap.held_back,
                        cap.theta, phase1.model.objective)
    return first


def solve_first(first: FirstModel, solver: Solver | None = None) -> SideResult:
    """Solve a built first model and report it; the two-phase program then
    builds, caps and solves the operator's phase on what phase one
    collected.  Under a cap, the result's ``reach`` is the tightest cap its
    answer fits."""
    if not first.two_phase:
        side = solve_built(first.instance, first.artifacts, solver)
        if first.cap is not None and side.values:
            side.reach = first.capped.evaluate(side.values)
        return side
    instance, cap, phase1 = first.instance, first.cap, first.artifacts
    solver = solver or EmbeddedSolver()
    s1 = solver.solve(phase1.model)
    phases = [(phase1, s1)]
    if s1.status is not Status.OPTIMAL:
        return SideResult(s1.status, phases)
    rq = collected_quantities(instance, phase1.vars, s1.values)
    phase2 = build_user_model_ii(instance, rq, first.objective)
    if cap is not None:
        collected = first.capped.evaluate(s1.values)
        downstream = phase2.stages.total("emission")
        add_epsilon_row(phase2.model, downstream, cap.v, cap.epsilon - collected,
                        cap.theta, phase2.model.objective)
    s2 = solver.solve(phase2.model)
    phases.append((phase2, s2))
    if s2.status is not Status.OPTIMAL:
        return SideResult(s2.status, phases)
    vars, merged = merge_phases(phase1.vars, s1, phase2.vars, s2)
    stages = phase1.stages.followed_by(phase2.stages)
    breakdown, opens = breakdown_from_solution(instance, vars, stages, merged)
    side = SideResult(Status.OPTIMAL, phases, breakdown, opens, merged.values)
    if cap is not None:
        side.reach = collected + max(cap.held_back, downstream.evaluate(s2.values))
    return side


def solve_system(instance: NetworkInstance, objective: str = "cost",
                 solver: Solver | None = None, include_policy: bool = True,
                 cap: EmissionCap | None = None) -> SideResult:
    """One decision maker routes everything."""
    return solve_first(build_system(instance, objective, include_policy, cap), solver)


def solve_user(instance: NetworkInstance, objective: str = "cost",
               solver: Solver | None = None, include_policy: bool = True,
               cap: EmissionCap | None = None) -> SideResult:
    """Residents choose dropoffs first; the operator routes what arrives."""
    return solve_first(build_user(instance, objective, include_policy, cap), solver)


def _builtin(name: str) -> ScenarioSpec:
    table = builtin_scenarios()
    if name not in table:
        raise ValueError(f"unknown scenario {name!r}; built-ins: {', '.join(SCENARIO_ORDER)}")
    return table[name]


def solve_scenario(spec: ScenarioSpec | str, objective: str = "cost",
                   base: NetworkInstance | None = None,
                   solver: Solver | None = None) -> ScenarioResult:
    """Materialize a scenario and solve it both ways.  A solve that does not
    end optimal keeps its status (see :attr:`ScenarioResult.failure`)."""
    if isinstance(spec, str):
        spec = _builtin(spec)
    solver = solver or EmbeddedSolver()
    instance = materialize(spec, base, solver)
    system = solve_system(instance, objective, solver)
    user = solve_user(instance, objective, solver) if system.status is Status.OPTIMAL else None
    return ScenarioResult(spec.name, objective, instance, system, user)


def run_scenario(spec: ScenarioSpec | str, objective: str = "cost",
                 base: NetworkInstance | None = None,
                 solver: Solver | None = None) -> ScenarioResult:
    """:func:`solve_scenario`, raising ModelError that names the solve that
    did not end optimal."""
    result = solve_scenario(spec, objective, base, solver)
    if result.failure is not None:
        raise ModelError(result.failure, result.status)
    return result


def run_all(objective: str = "cost", base: NetworkInstance | None = None,
            solver: Solver | None = None) -> list[ScenarioResult]:
    """Run the built-in scenarios in ``SCENARIO_ORDER`` on one base instance.

    The base throughput that fraction caps refer to is solved at most once,
    and each such scenario gets the caps it would derive from it; when that
    solve fails, each such scenario fails with it.  A scenario that does
    not solve keeps its status (see :attr:`ScenarioResult.failure`), and
    the run goes on to the next.
    """
    instance = base if base is not None else load_bundled_instance()
    solver = solver or EmbeddedSolver()
    throughput: float | ModelError | None = None
    results = []
    for name in SCENARIO_ORDER:
        spec = _builtin(name)
        if spec.total_capacity_fraction is not None:
            if throughput is None:
                try:
                    _, throughput, _ = derive_throughput(instance, solver)
                except ModelError as exc:
                    if exc.status is None:
                        raise
                    throughput = exc
            if isinstance(throughput, ModelError):
                results.append(ScenarioResult(name, objective, instance,
                                              SideResult(throughput.status, []), None,
                                              str(throughput)))
                continue
            spec = _with_absolute_caps(spec, instance, throughput)
        results.append(solve_scenario(spec, objective, instance, solver))
    return results


def comparison_rows(results: Iterable[ScenarioResult]) -> list[dict[str, Any]]:
    """Flat records (one per scenario x mode) for CSV export; a scenario
    that did not solve has none."""
    records = []
    for result in results:
        if result.failure is not None:
            continue
        for mode, side in (("system", result.system), ("user", result.user)):
            records.append({
                "scenario": result.name,
                "objective": result.objective,
                "mode": mode,
                "fixed_cost": side.fixed_cost,
                "revenue": side.revenue,
                "total_cost": side.total_cost,
                "offset": side.offset,
                "total_emission": side.total_emission,
                "open_facilities": " ".join(
                    sorted(f for f, is_open in side.opens.items() if is_open)),
            })
    return records


def write_comparison_csv(results: Iterable[ScenarioResult], path: str | Path) -> None:
    columns = ("scenario", "objective", "mode", "fixed_cost", "revenue",
               "total_cost", "offset", "total_emission", "open_facilities")
    write_csv(path, columns, ([record[k] for k in columns] for record in comparison_rows(results)))


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

@dataclass
class CalibrationResult:
    factor: float
    achieved_total_cost: float
    iterations: int
    trail: list[tuple[float, float]] = field(default_factory=list)


def calibrate_trip_factor(target_total_cost: float,
                          base: NetworkInstance | None = None,
                          solver: Solver | None = None,
                          max_iterations: int = 25) -> CalibrationResult:
    """Scale the lumped trip factor so the whole-network cost optimum hits a
    measured total.

    The optimum is piecewise linear in the factor, so refitting the linear
    piece (total = rest + factor * trip-leg cost) converges in a couple of
    steps unless the optimal routing keeps switching.  The total is reached
    when it is within 1e-9 of the target, relative.  Every step goes through
    one solver, and only the trip-leg costs change, so the embedded engine
    starts each step's root from the previous step's.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    instance = base if base is not None else load_bundled_instance()
    solver = solver or EmbeddedSolver()
    factor = 1.0
    trail: list[tuple[float, float]] = []
    for iteration in range(1, max_iterations + 1):
        scaled = with_trip_factor(instance, factor)
        side = solve_system(scaled, "cost", solver).require_optimal("calibration solve")
        total = side.total_cost
        trail.append((factor, total))
        if abs(total - target_total_cost) <= 1e-9 * max(1.0, abs(target_total_cost)):
            return CalibrationResult(factor, total, iteration, trail)
        trip_leg = side.breakdown.transport_cost.get(TIERS[0].leg, 0.0)
        if trip_leg <= 0.0:
            raise ModelError("the trip leg contributes no cost; "
                             "the target cannot be reached by scaling it")
        per_unit = trip_leg / factor
        factor += (target_total_cost - total) / per_unit
        if factor <= 0.0:
            raise ModelError(f"calibration drove the factor to {factor:g}; "
                             f"the target {target_total_cost:g} is below the "
                             f"trip-free cost floor")
    raise ModelError(f"calibration did not reach {target_total_cost:g} within "
                     f"{max_iterations} iterations; the last factor tried, "
                     f"{trail[-1][0]:g}, gave {trail[-1][1]:g}")
