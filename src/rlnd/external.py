"""Optional scipy-backed solver.

`ScipySolver` maps a MilpModel onto scipy.optimize.milp (HiGHS) and adapts
the result to the same Solution type the embedded solver returns, so the
two backends are interchangeable behind the Solver protocol.
"""

from __future__ import annotations

import numpy as np

from .milp import MilpModel, Solution, SolveStats, Status


class ScipySolver:
    """Solver protocol adapter around scipy.optimize.milp."""

    def solve(self, model: MilpModel) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp

        variables = list(model.variables.values())
        index = {v.name: k for k, v in enumerate(variables)}
        n = len(variables)
        if n == 0:
            return Solution(Status.OPTIMAL, model.objective.constant, {},
                            SolveStats(), model.objective.constant)

        c = np.zeros(n)
        for name, coeff in model.objective.terms.items():
            c[index[name]] += coeff

        lb = np.array([v.lb for v in variables], dtype=float)
        ub = np.array([v.ub for v in variables], dtype=float)
        integrality = np.array([1 if v.binary else 0 for v in variables])

        constraints = []
        if model.rows:
            a = np.zeros((len(model.rows), n))
            lo = np.full(len(model.rows), -np.inf)
            hi = np.full(len(model.rows), np.inf)
            for r, row in enumerate(model.rows):
                for name, coeff in row.expr.terms.items():
                    a[r, index[name]] += coeff
                if row.relation in ("<=", "=="):
                    hi[r] = row.rhs
                if row.relation in (">=", "=="):
                    lo[r] = row.rhs
            constraints.append(LinearConstraint(a, lo, hi))

        res = milp(c, constraints=constraints, integrality=integrality,
                   bounds=Bounds(lb, ub))

        status = {0: Status.OPTIMAL, 1: Status.BUDGET_EXCEEDED,
                  2: Status.INFEASIBLE, 3: Status.UNBOUNDED}.get(
                      res.status, Status.NUMERICALLY_UNSTABLE)
        if res.x is None and status is Status.OPTIMAL:
            status = Status.NUMERICALLY_UNSTABLE

        values: dict[str, float] = {}
        objective = None
        bound = None
        if res.x is not None:
            values = {v.name: float(res.x[k]) for k, v in enumerate(variables)}
            objective = float(res.fun) + model.objective.constant
            bound = objective
            if getattr(res, "mip_dual_bound", None) is not None:
                bound = float(res.mip_dual_bound) + model.objective.constant
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        return Solution(status, objective, values, SolveStats(0, nodes, []), bound)
