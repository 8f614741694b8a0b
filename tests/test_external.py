"""Agreement between the bundled branch-and-bound solver and HiGHS, and the
options and statuses of the HiGHS adapter."""

import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult, OptimizeWarning

from helpers import ExactHighs, MilpSpy, netgen_instance, on_highs_worker
from rlnd import external
from rlnd.builders import build_system_model, build_user_model_i, build_user_model_ii
from rlnd.cli import main
from rlnd.external import ScipySolver
from rlnd.milp import EmbeddedSolver, LinExpr, MilpModel, RowTag, Status, solve_milp
from rlnd.objectives import collected_quantities
from rlnd.robust import capacity_preset, robustify_artifacts
from rlnd.scenarios import EmissionCap, build_system, solve_scenario

scipy_solver = ScipySolver()
exact_highs = ExactHighs()


def agree(model, rel=1e-6):
    ours = solve_milp(model)
    theirs = scipy_solver.solve(model)
    assert theirs.status is ours.status
    if ours.status is Status.OPTIMAL:
        assert theirs.objective == pytest.approx(ours.objective, rel=rel)
    return ours, theirs


def test_system_models_agree(bundled, tight40):
    for instance in (bundled, tight40):
        for objective in ("cost", "emission"):
            agree(build_system_model(instance, objective).model)


def test_user_phase_agrees(bundled):
    agree(build_user_model_i(bundled).model)


def test_robust_model_agrees(tight40):
    art = build_system_model(tight40, "cost")
    preset = capacity_preset(art, fraction=0.1, gamma=1.0)
    agree(robustify_artifacts(art, preset).model)


def test_infeasible_and_unbounded_statuses_agree():
    bad = MilpModel("bad")
    bad.add_variable("x", 0.0, 1.0)
    bad.add_row(LinExpr({"x": 1.0}), ">=", 2.0, RowTag("impossible"))
    bad.set_objective(LinExpr({"x": 1.0}))
    agree(bad)

    free = MilpModel("free")
    free.add_variable("x", float("-inf"), float("inf"))
    free.set_objective(LinExpr({"x": 1.0}))
    ours = solve_milp(free)
    theirs = scipy_solver.solve(free)
    assert ours.status is Status.UNBOUNDED
    assert theirs.status is Status.UNBOUNDED


def test_a_model_without_rows_solves_on_both_backends():
    model = MilpModel("rowless")
    model.add_variable("x", 0.0, 3.0)
    model.add_variable("y", 0.0, 1.0, binary=True)
    model.set_objective(LinExpr({"x": 1.0, "y": -2.0}, constant=1.0))
    indptr, indices, data = model.to_arrays()[1]
    assert indptr.tolist() == [0] and indices.size == data.size == 0
    for solver in (EmbeddedSolver(), scipy_solver):
        solution = solver.solve(model)
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(-1.0)
        assert solution.values == pytest.approx({"x": 0.0, "y": 1.0})


@pytest.mark.parametrize("relation, rhs", [(">=", -1.0), ("<=", 0.0), ("==", 0.0),
                                           ("==", 1e-9), (">=", 1e-3)])
def test_a_model_without_variables_judges_its_rows_alike_on_both_backends(relation, rhs):
    model = MilpModel("empty")
    model.add_row(LinExpr(), relation, rhs, RowTag("r"))
    ours, theirs = EmbeddedSolver().solve(model), scipy_solver.solve(model)
    assert theirs.status is ours.status
    assert theirs.objective == ours.objective
    assert ours.status is (Status.INFEASIBLE if rhs == 1e-3 else Status.OPTIMAL)


def test_values_are_usable(bundled):
    model = build_system_model(bundled, "cost").model
    theirs = scipy_solver.solve(model)
    assert theirs.status is Status.OPTIMAL
    assert set(theirs.values) == set(model.variables)
    assert theirs.objective == pytest.approx(model.objective.evaluate(theirs.values))


@pytest.mark.parametrize("seed", range(6))
def test_scipy_solver_matches_zero_gap_highs_on_the_ladder(seed):
    """The benchmark's HiGHS ladder, every model kind its flows solve:
    without presolve or feasibility jump, at the default gap, against the
    presolved zero-gap oracle."""
    instance = netgen_instance(20, 8, 5, seed)
    phase1 = build_user_model_i(instance, "cost")
    collected = collected_quantities(phase1.tiers, exact_highs.solve(phase1.model).values)
    for label, artifacts in (("system cost", build_system_model(instance, "cost")),
                             ("system emission", build_system_model(instance, "emission")),
                             ("user phase I cost", phase1),
                             ("user phase I emission", build_user_model_i(instance, "emission")),
                             ("user phase II cost",
                              build_user_model_ii(instance, collected, "cost"))):
        ours, ref = scipy_solver.solve(artifacts.model), exact_highs.solve(artifacts.model)
        assert ours.status is ref.status, label
        if ref.status is Status.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, rel=1e-4), label


def test_the_cli_hands_highs_its_options(monkeypatch, capsys):
    real, options = scipy.optimize.milp, []

    def recording(*args, **kwargs):
        options.append(dict(kwargs["options"]))  # milp pops from the dict it is given
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", recording)
    assert main(["solve", "--model", "user", "--solver", "scipy", "--node-budget", "7"]) == 0
    assert len(options) == 2
    assert all(o == {"presolve": False, "node_limit": 7,
                     "mip_heuristic_run_feasibility_jump": False} for o in options)


def test_the_adapter_lets_no_warning_escape(bundled):
    model = build_user_model_i(bundled).model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        solution = scipy_solver.solve(model)
        assert warnings.filters == before
    assert solution.status is Status.OPTIMAL


def test_only_the_verbatim_options_warning_is_silenced(monkeypatch, bundled):
    """An older HiGHS that does not know an option says so with an
    OptimizeWarning, which gets through like any other warning."""
    real = scipy.optimize.milp

    def warning(*args, **kwargs):
        warnings.warn("Unrecognized options detected: {'x'}. These will be passed to "
                      "HiGHS verbatim.", RuntimeWarning)
        warnings.warn("Unrecognized options detected: {'x': False}", OptimizeWarning)
        warnings.warn("another runtime warning", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", warning)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scipy_solver.solve(build_system_model(bundled, "cost").model)
    assert [(w.category, str(w.message)) for w in caught] == [
        (OptimizeWarning, "Unrecognized options detected: {'x': False}"),
        (RuntimeWarning, "another runtime warning")]


def test_a_node_budget_below_one_is_rejected():
    with pytest.raises(ValueError, match="node budget must be at least 1, got 0"):
        ScipySolver(node_budget=0)


NODE_LIMIT = ("The HiGHS status code was not recognized. "
              "(HiGHS Status 16: Solution limit reached)")


@pytest.mark.parametrize("x, fun", [([1.0, 0.0], 5.0), (None, None)])
def test_a_node_limit_stop_is_budget_exceeded(monkeypatch, x, fun):
    """scipy reports HiGHS's node limit as status 4 with HiGHS's own status
    in the message; the stop keeps its incumbent, if any, and its bound."""
    monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: OptimizeResult(
        status=4, message=NODE_LIMIT, x=None if x is None else np.array(x), fun=fun,
        mip_node_count=1, mip_dual_bound=3.0))
    model = MilpModel("stub")
    for name in ("a", "b"):
        model.add_variable(name, 0.0, 1.0, binary=True)
    model.add_row(LinExpr({"a": 1.0, "b": 1.0}), ">=", 1.0, RowTag("cover"))
    model.set_objective(LinExpr({"a": 5.0, "b": 4.0}, constant=10.0))
    solution = ScipySolver(node_budget=1).solve(model)
    assert solution.status is Status.BUDGET_EXCEEDED
    assert solution.bound == 13.0
    assert solution.stats.nodes == 1
    if x is None:
        assert solution.objective is None and solution.values == {}
    else:
        assert solution.objective == 15.0
        assert solution.values == {"a": 1.0, "b": 0.0}


def _no_worker_alive() -> bool:
    return not any(on_highs_worker(t.name) for t in threading.enumerate())


def test_a_started_solve_raises_when_asked_for_and_is_swallowed_when_dropped(
        two_cpus, monkeypatch, bundled):
    spy = MilpSpy(scipy.optimize.milp, fail=lambda k, thread: on_highs_worker(thread))
    monkeypatch.setattr(scipy.optimize, "milp", spy)
    solver = ScipySolver()
    cost, emission = (build_system_model(bundled, o).model for o in ("cost", "emission"))
    with solver.background() as overlapping:
        assert overlapping
        solver.start(cost)
        solver.start(emission)  # drops the cost model's solve, and what it raised
        with pytest.raises(RuntimeError, match="milp call 1 on rlnd-highs"):
            solver.solve(emission)
        # a model no longer started is solved in the calling thread
        assert solver.solve(cost).status is Status.OPTIMAL
    assert [on_highs_worker(t) for t in spy.threads] == [True, True, False]
    assert spy.running == 0 and _no_worker_alive()


def test_start_needs_the_background_scope_and_more_than_one_cpu(monkeypatch, bundled):
    model = build_system_model(bundled, "cost").model
    solver = ScipySolver()
    with pytest.raises(RuntimeError, match="only inside background"):
        solver.start(model)
    monkeypatch.setattr(external, "_usable_cpus", lambda: 1)
    with solver.background() as overlapping:
        assert not overlapping
        assert _no_worker_alive()
        with pytest.raises(RuntimeError, match="only inside background"):
            solver.start(model)


def test_a_nested_background_scope_leaves_the_worker_to_the_outer_one(two_cpus, bundled):
    """The inner scope yields True and keeps no worker, filter or drop of its
    own; a solve started in it is still there for the outer scope, and a
    scenario solved inside a caller's scope leaves that scope working."""
    cost, emission = (build_system_model(bundled, o).model for o in ("cost", "emission"))
    sequential = scipy_solver.solve(cost)
    solver = ScipySolver()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with solver.background() as outer:
            worker, filters = solver._worker, list(warnings.filters)
            with solver.background() as inner:
                assert outer and inner
                assert solver._worker is worker and warnings.filters == filters
                solver.start(cost)
            assert solver._worker is worker and warnings.filters == filters
            assert solver.solve(cost) == sequential
            assert solve_scenario("baseline", base=bundled, solver=solver).status is Status.OPTIMAL
            assert solver._worker is worker
            solver.start(emission)  # left for the outer scope to drop
        assert solver._worker is None and solver._started is None
    assert _no_worker_alive()


def _ladder_models() -> list[MilpModel]:
    """For each of five networks of the benchmark's 20x8x5 ladder, the
    whole-network model of each objective and under an emission cap, and
    the user phase one of each objective: 25 models of several sizes."""
    models = []
    for seed in range(5):
        instance = netgen_instance(20, 8, 5, seed)
        models += [build_system_model(instance, "cost").model,
                   build_system_model(instance, "emission").model,
                   build_user_model_i(instance, "cost").model,
                   build_user_model_i(instance, "emission").model]
        emission = models[-3]
        loose = solve_milp(emission).objective * 1.2
        models.append(build_system(instance, "cost", cap=EmissionCap(5, loose, 1e-4)).model)
    return models


def test_pairs_of_concurrent_solves_equal_their_sequential_results(two_cpus):
    """Fifty pairs: one model started on the worker while the calling
    thread solves another, each answer equal to the model's own sequential
    one, and no warning escapes either thread."""
    models = _ladder_models()
    sequential = [scipy_solver.solve(m) for m in models]
    solver = ScipySolver()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with solver.background() as overlapping:
                assert overlapping
                for k in range(50):
                    a, b = k % len(models), (k + 1 + k // len(models)) % len(models)
                    solver.start(models[a])
                    assert solver.solve(models[b]) == sequential[b], (a, b)
                    assert solver.solve(models[a]) == sequential[a], (a, b)
    finally:
        sys.setswitchinterval(interval)
    assert _no_worker_alive()
