"""Optional scipy-backed solver.

`ScipySolver` hands a MilpModel's dense arrays (:meth:`MilpModel.to_arrays`,
the mapping the embedded engine scales) to scipy.optimize.milp (HiGHS)
unchanged and adapts the result to the same Solution type the embedded
solver returns, so the two backends are interchangeable behind the Solver
protocol.
"""

from __future__ import annotations

from .milp import MilpModel, Solution, SolveStats, Status


class ScipySolver:
    """Solver protocol adapter around scipy.optimize.milp."""

    def solve(self, model: MilpModel) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp

        names = list(model.variables)
        if not names:
            return Solution(Status.OPTIMAL, model.objective.constant, {},
                            SolveStats(), model.objective.constant)
        c, a, row_lb, row_ub, lb, ub, binary = model.to_arrays()
        res = milp(c, constraints=[LinearConstraint(a, row_lb, row_ub)] if model.rows else [],
                   integrality=binary, bounds=Bounds(lb, ub))

        status = {0: Status.OPTIMAL, 1: Status.BUDGET_EXCEEDED,
                  2: Status.INFEASIBLE, 3: Status.UNBOUNDED}.get(
                      res.status, Status.NUMERICALLY_UNSTABLE)
        if res.x is None and status is Status.OPTIMAL:
            status = Status.NUMERICALLY_UNSTABLE

        values: dict[str, float] = {}
        objective = None
        bound = None
        if res.x is not None:
            values = dict(zip(names, res.x.tolist()))
            objective = float(res.fun) + model.objective.constant
            bound = objective
            if getattr(res, "mip_dual_bound", None) is not None:
                bound = float(res.mip_dual_bound) + model.objective.constant
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        return Solution(status, objective, values, SolveStats(0, nodes, []), bound)
