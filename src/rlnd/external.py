"""Optional scipy-backed solver.

`ScipySolver` hands a MilpModel's arrays (:meth:`MilpModel.to_arrays`, the
mapping the embedded engine scales) to scipy.optimize.milp (HiGHS)
unchanged, the row matrix as the sparse matrix its CSR arrays describe, and
adapts the result to the same Solution type the embedded solver returns, so
the two backends are interchangeable behind the Solver protocol.
"""

from __future__ import annotations

import warnings

from .milp import MilpModel, Solution, SolveStats, Status

# scipy.optimize.milp has no status of its own for HiGHS's node limit: it
# returns status 4 and keeps HiGHS's model status (kSolutionLimit) in the
# message.
_NODE_LIMIT_MESSAGE = "(HiGHS Status 16:"

# scipy.optimize.milp passes options it does not know to HiGHS verbatim and
# warns that it did so; this adapter sets such an option on purpose.
_VERBATIM_WARNING = "Unrecognized options detected"


class ScipySolver:
    """Solver protocol adapter around scipy.optimize.milp.

    rlnd's models close at HiGHS's root node, so HiGHS runs without two
    parts of its MIP machinery whose cost there is overhead: its MIP
    presolve, and its feasibility-jump primal heuristic (Luteberget &
    Sartor, Math. Prog. Comp. 2023), which costs about 15 ms per call
    whatever the model's size.  Without them, the 24 system and user
    phase-one models of the benchmark's 20x8x5 ladder took 0.25 s, against
    0.44 s with feasibility jump on, with the same statuses, objectives and
    node counts (one BLAS thread, shared 2-vCPU machine).  The row matrix
    goes over as a sparse matrix of the model's CSR arrays; no dense copy
    is made.  HiGHS stops at its default relative MIP gap (1e-4), so an
    ``optimal`` answer may sit above the optimum by up to that gap; the
    returned ``bound`` says by how much. ``node_budget`` caps HiGHS's
    branch-and-bound nodes (``node_limit``); a stop there returns
    BUDGET_EXCEEDED with the incumbent, if any, and the proven bound.
    """

    def __init__(self, node_budget: int = 200_000):
        if node_budget < 1:
            raise ValueError(f"node budget must be at least 1, got {node_budget}")
        self.node_budget = node_budget

    def solve(self, model: MilpModel) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array

        names = list(model.variables)
        if not names:
            return Solution(Status.OPTIMAL, model.objective.constant, {},
                            SolveStats(), model.objective.constant)
        c, (indptr, indices, data), row_lb, row_ub, lb, ub, binary = model.to_arrays()
        a = csr_array((data, indices, indptr), shape=(len(model.rows), len(names)))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _VERBATIM_WARNING, RuntimeWarning)
            res = milp(c, constraints=[LinearConstraint(a, row_lb, row_ub)] if model.rows else [],
                       integrality=binary, bounds=Bounds(lb, ub),
                       options={"presolve": False, "node_limit": self.node_budget,
                                "mip_heuristic_run_feasibility_jump": False})

        if res.status == 4 and _NODE_LIMIT_MESSAGE in (res.message or ""):
            status = Status.BUDGET_EXCEEDED
        else:
            status = {0: Status.OPTIMAL, 1: Status.BUDGET_EXCEEDED,
                      2: Status.INFEASIBLE, 3: Status.UNBOUNDED}.get(
                          res.status, Status.NUMERICALLY_UNSTABLE)
        if res.x is None and status is Status.OPTIMAL:
            status = Status.NUMERICALLY_UNSTABLE

        values: dict[str, float] = {}
        objective = None
        bound = None
        if getattr(res, "mip_dual_bound", None) is not None:
            bound = float(res.mip_dual_bound) + model.objective.constant
        if res.x is not None:
            values = dict(zip(names, res.x.tolist()))
            objective = float(res.fun) + model.objective.constant
            if bound is None:
                bound = objective
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        return Solution(status, objective, values, SolveStats(0, nodes, []), bound)
