"""Answer checks for the benchmark's flows.

Every check runs outside the timed phases and returns a list of problems
(empty when the answer is right):

* `reference_solve` solves a model with HiGHS at a zero relative MIP gap,
  so an embedded answer can be compared with it at 1e-6 relative;
* `compare_with_reference` is that comparison;
* `certificate` checks a solution against its own model: rows, variable
  bounds and binary integrality within `milp.FEASIBILITY_TOL` (a row's
  tolerance scales with its right-hand side and its terms), and the
  objective recomputed from the stage expressions the model was built from.
  Each violation says how far out it is, in multiples of its tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from rlnd.milp import FEASIBILITY_TOL, LinExpr, MilpModel, Solution, SolveStats, Status
from rlnd.multiobjective import THETA_DEFAULT

AGREE_REL = 1e-6
_STATUS = {0: Status.OPTIMAL, 1: Status.BUDGET_EXCEEDED, 2: Status.INFEASIBLE,
           3: Status.UNBOUNDED}


def _close(a: float, b: float, rel: float = AGREE_REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def reference_solve(model: MilpModel) -> Solution:
    """HiGHS with the relative MIP gap closed, as the reference answer."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    variables = list(model.variables.values())
    index = {v.name: k for k, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for name, coeff in model.objective.terms.items():
        c[index[name]] += coeff
    a = np.zeros((len(model.rows), len(variables)))
    lo = np.full(len(model.rows), -np.inf)
    hi = np.full(len(model.rows), np.inf)
    for r, row in enumerate(model.rows):
        for name, coeff in row.expr.terms.items():
            a[r, index[name]] += coeff
        if row.relation in ("<=", "=="):
            hi[r] = row.rhs
        if row.relation in (">=", "=="):
            lo[r] = row.rhs
    res = milp(c, constraints=[LinearConstraint(a, lo, hi)] if model.rows else [],
               integrality=np.array([1 if v.binary else 0 for v in variables]),
               bounds=Bounds([v.lb for v in variables], [v.ub for v in variables]),
               options={"mip_rel_gap": 0.0})
    status = _STATUS.get(res.status, Status.NUMERICALLY_UNSTABLE)
    if res.x is None:
        return Solution(status if status is not Status.OPTIMAL
                        else Status.NUMERICALLY_UNSTABLE, None, {})
    values = {v.name: float(res.x[k]) for k, v in enumerate(variables)}
    objective = float(res.fun) + model.objective.constant
    return Solution(status, objective, values, SolveStats(), objective)


def compare_with_reference(got: Solution, want: Solution) -> list[str]:
    if got.status is not want.status:
        return [f"status {got.status.value}, reference {want.status.value}"]
    if got.status is Status.OPTIMAL and not _close(got.objective, want.objective):
        return [f"objective {got.objective!r}, reference {want.objective!r}"]
    return []


class Violation(NamedTuple):
    text: str
    # how far outside the tolerance, as a multiple of it; inf for a problem
    # that no tolerance covers (a wrong status or objective)
    times_tol: float = math.inf


def _row_excess(lhs: float, relation: str, rhs: float) -> float:
    """How far `lhs relation rhs` is violated (0 when it holds)."""
    over = max(0.0, lhs - rhs) if relation in ("<=", "==") else 0.0
    under = max(0.0, rhs - lhs) if relation in (">=", "==") else 0.0
    return max(over, under)


def _stage_candidates(stages) -> list[LinExpr]:
    """Objective expressions the builders and families compose from stages."""
    out = [stages.total_cost(), stages.total_emission()]
    leg = "residence-dropoff"
    if leg in stages.transport_cost:
        out.append(stages.transport_cost[leg])
        collection = stages.transport_emission[leg].copy()
        collection.add_expr(stages.processing_emission["dropoff"])
        collection.add_expr(stages.emission_offset["dropoff"], -1.0)
        out += [stages.transport_emission[leg], collection]
    return out


def _same_terms(a: dict[str, float], b: dict[str, float]) -> bool:
    if a.keys() != b.keys():
        return False
    return all(_close(a[k], b[k], 1e-12) for k in a)


def certificate(model: MilpModel, solution: Solution, stages) -> list[Violation]:
    """Problems with an OPTIMAL solution judged against its own model."""
    if solution.status is not Status.OPTIMAL:
        return [Violation(f"status {solution.status.value}")]
    x = solution.values
    problems = []
    for row in model.rows:
        lhs = row.expr.evaluate(x)
        # each variable may sit FEASIBILITY_TOL outside its bounds (checked
        # below), which moves the row by |coefficient| times that much
        scale = 1.0 + abs(row.rhs) + sum(abs(c) * max(1.0, abs(x[v]))
                                         for v, c in row.expr.terms.items())
        times = _row_excess(lhs, row.relation, row.rhs) / (FEASIBILITY_TOL * scale)
        if times > 1.0:
            problems.append(Violation(f"row {row.tag}: {lhs!r} {row.relation} {row.rhs!r}",
                                      times))
    for var in model.variables.values():
        value = x[var.name]
        times = max(var.lb - value, value - var.ub, 0.0) / FEASIBILITY_TOL
        if times > 1.0:
            problems.append(Violation(f"bound {var.name}: {value!r} outside "
                                      f"[{var.lb}, {var.ub}]", times))
        times = abs(value - round(value)) / FEASIBILITY_TOL if var.binary else 0.0
        if times > 1.0:
            problems.append(Violation(f"binary {var.name} = {value!r}", times))

    slacks = [v for v in model.variables if v.startswith("EPS_SLACK[")]
    own = {v: c for v, c in model.objective.terms.items() if v not in slacks}
    expr = next((e for e in _stage_candidates(stages) if _same_terms(e.terms, own)), None)
    if expr is None:
        problems.append(Violation("objective is not one of the stage expressions"))
    else:
        recomputed = expr.evaluate(x) + sum(THETA_DEFAULT * x[v] for v in slacks
                                            if v in model.objective.terms)
        if not _close(recomputed, solution.objective):
            problems.append(Violation(f"objective {solution.objective!r}, "
                                      f"recomputed {recomputed!r}"))
    return sorted(problems, key=lambda p: -p.times_tol)[:5]


def nondecreasing(values: list[float], rel: float) -> bool:
    return all(b >= a - rel * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
