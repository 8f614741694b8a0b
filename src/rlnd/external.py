"""Optional scipy-backed solver.

`ScipySolver` hands a MilpModel's arrays (:meth:`MilpModel.to_arrays`, the
mapping the embedded engine scales) to scipy.optimize.milp (HiGHS)
unchanged, the row matrix as the sparse matrix its CSR arrays describe, and
adapts the result to the same Solution type the embedded solver returns, so
the two backends are interchangeable behind the Solver protocol.

The adapter can also solve one model on one background thread while the
calling thread goes on, which a trade-off sweep uses to overlap two HiGHS
solves (see :meth:`ScipySolver.background`).  scipy's HiGHS releases the
interpreter lock while it solves, so the two solves run side by side.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Callable, Iterator

from .milp import MilpModel, Solution, SolveStats, Status

# scipy.optimize.milp has no status of its own for HiGHS's node limit: it
# returns status 4 and keeps HiGHS's model status (kSolutionLimit) in the
# message.
_NODE_LIMIT_MESSAGE = "(HiGHS Status 16:"

# scipy.optimize.milp passes options it does not know to HiGHS verbatim and
# warns that it did so; this adapter sets such an option on purpose.
_VERBATIM_WARNING = "Unrecognized options detected"


@contextmanager
def _verbatim_options_silenced() -> Iterator[None]:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _VERBATIM_WARNING, RuntimeWarning)
        yield


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
        self._worker: ThreadPoolExecutor | None = None
        self._started: tuple[MilpModel, Future] | None = None

    @contextmanager
    def background(self) -> Iterator[bool]:
        """A scope in which :meth:`start` may solve a model on one worker
        thread; it yields whether it may, which it does when the process
        may use more than one CPU.

        The worker's milp() warns of the verbatim options like any call,
        and warning filters are global to the process.  So the scope holds
        one ``warnings.catch_warnings`` that silences that warning for as
        long as the worker can run, and inside it :meth:`solve` opens no
        scope of its own: a per-call scope would let the worker's warning
        through between two calls, and entering one briefly drops the
        filter it adds again.  On exit, also on error, the scope waits for
        a started solve nobody asked for, drops it with any exception it
        raised, and stops the worker, so no started solve outlives it.
        """
        if _usable_cpus() < 2:
            yield False
            return
        with _verbatim_options_silenced():
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
        arrays HiGHS reads are made here, in the calling thread; only
        milp() runs on the worker.
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

    def _problem(self, model: MilpModel) -> Callable:
        """milp() of ``model``'s arrays, waiting to be called."""
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array

        c, (indptr, indices, data), row_lb, row_ub, lb, ub, binary = model.to_arrays()
        a = csr_array((data, indices, indptr), shape=(len(model.rows), len(c)))
        return partial(milp, c,
                       constraints=[LinearConstraint(a, row_lb, row_ub)] if model.rows else [],
                       integrality=binary, bounds=Bounds(lb, ub),
                       options={"presolve": False, "node_limit": self.node_budget,
                                "mip_heuristic_run_feasibility_jump": False})

    def solve(self, model: MilpModel) -> Solution:
        """Solve ``model``; when it is the model :meth:`start` started,
        wait for that solve instead, and raise what it raised."""
        if not model.variables:
            return Solution(Status.OPTIMAL, model.objective.constant, {},
                            SolveStats(), model.objective.constant)
        if self._started is not None and self._started[0] is model:
            future = self._started[1]
            self._started = None
            res = future.result()
        else:
            problem = self._problem(model)
            with nullcontext() if self._worker is not None else _verbatim_options_silenced():
                res = problem()

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
            values = dict(zip(model.variables, res.x.tolist()))
            objective = float(res.fun) + model.objective.constant
            if bound is None:
                bound = objective
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        return Solution(status, objective, values, SolveStats(0, nodes, []), bound)
