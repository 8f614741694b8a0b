"""Optional scipy-backed solver.

`ScipySolver` hands a MilpModel's arrays (:meth:`MilpModel.to_arrays`, the
mapping the embedded engine scales) to HiGHS unchanged, through the HiGHS
project's own binding that scipy ships (``scipy.optimize._highspy``, the
layer under scipy.optimize.milp), and adapts the result to the Solution
type the embedded solver returns, so the two backends are interchangeable
behind the Solver protocol.

The adapter can also solve one model on one background thread while the
calling thread goes on (see :meth:`ScipySolver.background`).  A trade-off
sweep uses it to overlap two HiGHS solves, and a scenario to solve its
whole-network model while the calling thread solves both two-phase models;
the scenario takes the whole-network answer after the two-phase side.
HiGHS's ``run()`` releases the interpreter lock while it solves, so the two
solves run side by side.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

from .milp import FEASIBILITY_TOL, MilpModel, Solution, SolveStats, Status

# HiGHS's model statuses by name, as this adapter reports them; any other,
# kUnboundedOrInfeasible among them, is NUMERICALLY_UNSTABLE.
_STATUSES = {"kOptimal": Status.OPTIMAL, "kTimeLimit": Status.BUDGET_EXCEEDED,
             "kIterationLimit": Status.BUDGET_EXCEEDED,
             "kSolutionLimit": Status.BUDGET_EXCEEDED,  # the node limit
             "kInfeasible": Status.INFEASIBLE, "kModelError": Status.INFEASIBLE,
             "kUnbounded": Status.UNBOUNDED}

# A HiGHS too old to know this switch also lacks the heuristic it turns off.
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


class _Run(NamedTuple):
    """One HiGHS run's model status, incumbent objective and column values
    (None without one), proven bound, nodes and simplex pivots."""
    status: Any
    objective: float | None
    x: list[float] | None
    bound: float | None
    nodes: int
    pivots: int


def _run_highs(highs: Any, name: str, arrays: tuple, node_budget: int) -> _Run:
    """Run a fresh object of the HiGHS binding module ``highs`` on a model's
    :meth:`MilpModel.to_arrays`.  As scipy.optimize.milp does, it reads an
    incumbent when HiGHS ends optimal or, on a MIP, when a limit stops it
    with a finite objective, and a MIP's bound and nodes when it ends
    either way; an LP's bound is its objective."""
    c, (indptr, indices, data), row_lb, row_ub, lb, ub, binary = arrays
    solver = highs._Highs()
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("mip_max_nodes", node_budget), (_FEASIBILITY_JUMP, False)):
        if (solver.setOptionValue(option, value) == highs.HighsStatus.kError
                and option != _FEASIBILITY_JUMP):
            raise RuntimeError(f"HiGHS rejects its option {option} = {value!r}")
    if solver.passModel(len(c), len(row_lb), len(data), highs.MatrixFormat.kRowwise,
                        highs.ObjSense.kMinimize, 0.0, c, lb, ub, row_lb, row_ub,
                        indptr, indices, data, binary) == highs.HighsStatus.kError:
        raise RuntimeError(f"HiGHS rejects the model {name!r}")
    solver.run()
    status, info = solver.getModelStatus(), solver.getInfo()
    mip = bool(binary.any())
    kind = _STATUSES.get(status.name)
    ended = kind is Status.OPTIMAL or (mip and kind is Status.BUDGET_EXCEEDED)
    found = ended and info.objective_function_value < highs.kHighsInf
    objective = info.objective_function_value if found else None
    return _Run(status, objective, solver.getSolution().col_value if found else None,
                info.mip_dual_bound if mip and ended else objective,
                info.mip_node_count if mip and ended else 0, info.simplex_iteration_count)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _holds_at_zero(relation: str, rhs: float) -> bool:
    """Whether a row without terms, ``0 relation rhs``, holds."""
    return {"<=": -rhs, ">=": rhs, "==": abs(rhs)}[relation] <= FEASIBILITY_TOL


class ScipySolver:
    """Solver protocol adapter around HiGHS, one HiGHS object per solve.

    rlnd's models close at HiGHS's root node, so HiGHS runs without two
    parts of its MIP machinery whose cost there is overhead: its MIP
    presolve, and its feasibility-jump primal heuristic (Luteberget &
    Sartor, Math. Prog. Comp. 2023), which costs about 15 ms per call
    whatever the model's size.  Without them, the 24 system and user
    phase-one models of the benchmark's 20x8x5 ladder took 0.25 s, against
    0.44 s with feasibility jump on, with the same statuses, objectives and
    node counts (one BLAS thread, shared 2-vCPU machine).  The row matrix
    goes over as the model's CSR arrays, row-wise; no dense or column-wise
    copy is made.  HiGHS stops at its default relative MIP gap (1e-4), so an
    ``optimal`` answer may sit above the optimum by up to that gap; the
    returned ``bound`` says by how much. ``node_budget`` caps HiGHS's
    branch-and-bound nodes (``mip_max_nodes``); a stop there returns
    BUDGET_EXCEEDED with the incumbent, if any, and the proven bound.
    """

    def __init__(self, node_budget: int = 200_000):
        if node_budget < 1:
            raise ValueError(f"node budget must be at least 1, got {node_budget}")
        self.node_budget = node_budget
        self._worker: ThreadPoolExecutor | None = None
        self._started: tuple[MilpModel, Future] | None = None

    @contextmanager
    def background(self) -> Iterator[bool]:
        """A scope in which :meth:`start` may solve a model on one worker
        thread; it yields whether it may, which it does when the process
        may use more than one CPU.

        On exit, also on error, the scope waits for a started solve nobody
        asked for, drops it with any exception it raised, and stops the
        worker, so no started solve outlives it.  A scope entered inside
        another yields True and leaves the worker and the final drop to the
        outer one, so a scenario solve may run inside a caller's scope.
        """
        if self._worker is not None:
            yield True
            return
        if _usable_cpus() < 2:
            yield False
            return
        self._worker = ThreadPoolExecutor(1, thread_name_prefix="rlnd-highs")
        try:
            yield True
        finally:
            self._drop()
            self._worker.shutdown()
            self._worker = None

    def start(self, model: MilpModel) -> None:
        """Start solving ``model`` on the worker of :meth:`background`; the
        next :meth:`solve` of this same model object returns the result.

        At most one model is started at a time: starting another drops the
        one before it, after waiting for it.  scipy is imported and the
        arrays HiGHS reads are made here, in the calling thread; only the
        HiGHS run runs on the worker.
        """
        if self._worker is None:
            raise RuntimeError("start() runs only inside background()")
        self._drop()
        if model.variables:
            self._started = (model, self._worker.submit(self._problem(model)))

    def _drop(self) -> None:
        """Forget the started solve after waiting for it to end, and swallow
        what it raised, since nobody asked for its answer."""
        started, self._started = self._started, None
        if started is not None:
            started[1].exception()

    def _problem(self, model: MilpModel) -> Callable[[], _Run]:
        """The HiGHS run of ``model``'s arrays, waiting to be called."""
        from scipy.optimize._highspy import _core

        return partial(_run_highs, _core, model.name, model.to_arrays(), self.node_budget)

    def solve(self, model: MilpModel) -> Solution:
        """Solve ``model``; when it is the model :meth:`start` started,
        wait for that solve instead, and raise what it raised.  A model
        without variables is judged here, each row as ``0 relation rhs``
        within the embedded engine's feasibility tolerance."""
        if not model.variables:
            if all(_holds_at_zero(row.relation, row.rhs) for row in model.rows):
                return Solution(Status.OPTIMAL, model.objective.constant, {},
                                SolveStats(), model.objective.constant)
            return Solution(Status.INFEASIBLE, None, {}, SolveStats())
        if self._started is not None and self._started[0] is model:
            future, self._started = self._started[1], None
            run = future.result()
        else:
            run = self._problem(model)()
        shifted = lambda v: None if v is None else v + model.objective.constant
        return Solution(_STATUSES.get(run.status.name, Status.NUMERICALLY_UNSTABLE),
                        shifted(run.objective),
                        {} if run.x is None else dict(zip(model.variables, run.x)),
                        SolveStats(run.pivots, run.nodes, []), shifted(run.bound))
