import copy
import gc
import math
import random
import weakref

import numpy as np
import pytest

from helpers import (ExactHighs, netgen_instance, pattern_enumeration_optimum,
                     random_network_instance, with_bounds)
from rlnd import load_bundled_instance
from rlnd.builders import build_system_model, build_user_model_i
from rlnd.milp import (FEASIBILITY_TOL, EmbeddedSolver, LinExpr, MilpModel, ModelError,
                       RowTag, Solution, SolveStats, Status, _cut, _Lp, _Simplex, _verify,
                       solve_milp)
from rlnd.robust import capacity_preset, robustify_artifacts

TAG = RowTag("row")


def _model(name="m"):
    return MilpModel(name)


def test_simple_lp():
    m = _model()
    m.add_variable("x")
    m.add_variable("y")
    m.add_row(LinExpr({"x": 1.0, "y": 1.0}), "<=", 1.0, TAG)
    m.set_objective(LinExpr({"x": -1.0, "y": -2.0}))
    sol = solve_milp(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.values["y"] == pytest.approx(1.0, abs=1e-9)


def test_lp_with_equality_and_free_variable():
    # min x + 2|y|-ish: y free, x >= 0, x - y == 3, x + y >= 1
    m = _model()
    m.add_variable("x")
    m.add_variable("y", lb=-math.inf)
    m.add_row(LinExpr({"x": 1.0, "y": -1.0}), "==", 3.0, TAG)
    m.add_row(LinExpr({"x": 1.0, "y": 1.0}), ">=", 1.0, RowTag("row2"))
    m.set_objective(LinExpr({"x": 1.0, "y": 2.0}))
    sol = solve_milp(m)
    assert sol.status is Status.OPTIMAL
    # substituting y = x - 3: minimize 3x - 6 s.t. 2x >= 4 -> x = 2, y = -1
    assert sol.objective == pytest.approx(0.0, abs=1e-8)
    assert sol.values["x"] == pytest.approx(2.0, abs=1e-8)
    assert sol.values["y"] == pytest.approx(-1.0, abs=1e-8)


def test_lp_respects_variable_bounds():
    m = _model()
    m.add_variable("x", lb=1.5, ub=4.0)
    m.set_objective(LinExpr({"x": 1.0}))
    sol = solve_milp(m)
    assert sol.values["x"] == pytest.approx(1.5, abs=1e-9)
    sol = solve_milp(with_bounds(m, {"x": (2.5, 4.0)}))
    assert sol.values["x"] == pytest.approx(2.5, abs=1e-9)


def test_a_free_column_enters_falling():
    """The slack basis puts y = 0 above its row's bound; only the free
    column y can repair that row, and it must fall to do so."""
    m = _model()
    m.add_variable("x")
    m.add_variable("y", lb=-math.inf)
    m.add_row(LinExpr({"y": 1.0}), "<=", -2.0, TAG)
    m.set_objective(LinExpr({"x": 1.0}))
    sol = solve_milp(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == 0.0
    assert sol.values["y"] == -2.0


def test_infeasible_lp():
    m = _model()
    m.add_variable("x", ub=1.0)
    m.add_row(LinExpr({"x": 1.0}), ">=", 2.0, TAG)
    m.set_objective(LinExpr({"x": 1.0}))
    assert solve_milp(m).status is Status.INFEASIBLE


def test_unbounded_lp():
    m = _model()
    m.add_variable("x")
    m.set_objective(LinExpr({"x": -1.0}))
    assert solve_milp(m).status is Status.UNBOUNDED


def test_objective_constant_carries_through():
    m = _model()
    m.add_variable("x", ub=2.0)
    m.set_objective(LinExpr({"x": 1.0}, constant=10.0))
    assert solve_milp(m).objective == pytest.approx(10.0, abs=1e-9)


def test_row_constant_folds_into_rhs():
    m = _model()
    m.add_variable("x")
    expr = LinExpr({"x": 1.0}, constant=5.0)
    m.add_row(expr, "<=", 7.0, TAG)  # means x <= 2
    m.set_objective(LinExpr({"x": -1.0}))
    assert solve_milp(m).values["x"] == pytest.approx(2.0, abs=1e-9)


def test_unknown_variable_rejected():
    m = _model()
    m.add_variable("x")
    with pytest.raises(ModelError):
        m.add_row(LinExpr({"ghost": 1.0}), "<=", 1.0, TAG)
    with pytest.raises(ModelError):
        m.set_objective(LinExpr({"ghost": 1.0}))
    with pytest.raises(ModelError):
        m.add_variable("x")


def _rows_written_term_by_term(model):
    col = {name: j for j, name in enumerate(model.variables)}
    a = np.zeros((len(model.rows), len(model.variables)))
    for i, row in enumerate(model.rows):
        for var, coeff in row.expr.terms.items():
            a[i, col[var]] += coeff
    return a


@pytest.mark.parametrize("network", ["bundled", "netgen 5x4x3 seed 0"])
def test_the_csr_arrays_are_the_row_matrix(network, bundled):
    instance = bundled if network == "bundled" else netgen_instance(5, 4, 3, 0)
    for artifacts in (build_system_model(instance, "cost"),
                      build_user_model_i(instance, "emission")):
        model = artifacts.model
        indptr, indices, data = model.to_arrays()[1]
        assert indptr[0] == 0 and indptr.size == len(model.rows) + 1
        assert indptr[-1] == indices.size == data.size
        dense = np.zeros((len(model.rows), len(model.variables)))
        for i in range(len(model.rows)):
            cols = indices[indptr[i]:indptr[i + 1]]
            assert np.unique(cols).size == cols.size  # one entry per column
            dense[i, cols] = data[indptr[i]:indptr[i + 1]]
        assert dense.tobytes() == _rows_written_term_by_term(model).tobytes()


def test_a_zero_coefficient_is_no_entry():
    m = _model()
    for name in ("x", "y"):
        m.add_variable(name, ub=1.0)
    m.add_row(LinExpr({"x": 0.0, "y": 2.0}), "<=", 1.0, TAG)
    m.add_row(LinExpr({"x": -0.0}), ">=", -1.0, TAG)
    indptr, indices, data = m.to_arrays()[1]
    assert (indptr.tolist(), indices.tolist(), data.tolist()) == ([0, 1, 1], [1], [2.0])
    assert not np.signbit(_Lp(m).mat[:, :2]).any()


def test_knapsack_against_enumeration():
    values = [6.0, 10.0, 12.0, 7.0, 3.0]
    weights = [1.0, 2.0, 3.0, 2.0, 1.0]
    m = _model("knapsack")
    load = LinExpr()
    gain = LinExpr()
    for k, (v, w) in enumerate(zip(values, weights)):
        name = m.add_variable(f"z{k}", binary=True)
        load.add(name, w)
        gain.add(name, -v)
    m.add_row(load, "<=", 5.0, TAG)
    m.set_objective(gain)
    sol = solve_milp(m)
    status, best = pattern_enumeration_optimum(m)
    assert sol.status is status is Status.OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-9)
    assert all(abs(x - round(x)) <= 1e-6 for x in sol.values.values())


def test_infeasible_milp():
    m = _model()
    a = m.add_variable("a", binary=True)
    b = m.add_variable("b", binary=True)
    m.add_row(LinExpr({a: 1.0, b: 1.0}), ">=", 3.0, TAG)
    m.set_objective(LinExpr({a: 1.0}))
    assert solve_milp(m).status is Status.INFEASIBLE


@pytest.mark.parametrize("coeff, status", [(2.0, Status.INFEASIBLE),
                                           (1.0, Status.UNBOUNDED)])
def test_unbounded_relaxation_needs_a_feasible_assignment(coeff, status):
    # min -x, x >= 0 free above: the relaxation is unbounded, so the model is
    # unbounded exactly when coeff * z == 1 has a binary solution
    m = _model()
    m.add_variable("x")
    z = m.add_variable("z", binary=True)
    m.add_row(LinExpr({z: coeff}), "==", 1.0, TAG)
    m.set_objective(LinExpr({"x": -1.0}))
    assert _Lp(m).root().status is Status.UNBOUNDED
    assert solve_milp(m).status is status


@pytest.mark.parametrize("budget", [0, -3])
def test_a_node_budget_below_one_is_rejected(budget):
    with pytest.raises(ValueError, match="node budget"):
        EmbeddedSolver(node_budget=budget)
    with pytest.raises(ValueError, match="node budget"):
        solve_milp(_model(), node_budget=budget)


def test_budget_exhaustion_reports_bound():
    m = _model()
    load = LinExpr()
    gain = LinExpr()
    for k in range(8):
        name = m.add_variable(f"z{k}", binary=True)
        load.add(name, 1.0 + 0.1 * k)
        gain.add(name, -(2.0 + 0.3 * k))
    m.add_row(load, "<=", 4.55, TAG)
    m.set_objective(gain)
    sol = solve_milp(m, node_budget=1)
    assert sol.status is Status.BUDGET_EXCEEDED
    assert sol.bound is not None
    full = solve_milp(m)
    assert full.status is Status.OPTIMAL
    assert sol.bound <= full.objective + 1e-9


def test_an_exhausted_budget_keeps_the_incumbent_it_found():
    """An integral child becomes the incumbent when it is solved, so a node
    budget that stops the search still returns a plan: read on the model's
    own rows, feasible, and bracketing zero-gap HiGHS's optimum with the
    bound."""
    model = build_system_model(random_network_instance(random.Random(7), 10, 6, 4),
                               "cost").model
    sol = solve_milp(model, node_budget=12)
    assert sol.status is Status.BUDGET_EXCEEDED
    assert sol.objective is not None
    assert sol.objective == model.objective.evaluate(sol.values)
    assert _doctored(model, sol.values) is Status.OPTIMAL
    exact = ExactHighs().solve(model).objective
    assert sol.bound <= exact <= sol.objective + 1e-9 * abs(exact)
    assert sol.stats.incumbent_history[-1] <= sol.objective * (1.0 + 1e-9)


def test_determinism():
    rng = random.Random(7)
    m = _model()
    total = LinExpr()
    obj = LinExpr()
    for k in range(6):
        name = m.add_variable(f"z{k}", binary=True)
        total.add(name, rng.uniform(0.5, 2.0))
        obj.add(name, -rng.uniform(0.5, 2.0))
    m.add_row(total, "<=", 3.0, TAG)
    m.set_objective(obj)
    first = EmbeddedSolver().solve(m)
    second = EmbeddedSolver().solve(m)
    assert first.values == second.values
    assert first.objective == second.objective


def test_random_mixed_models_match_enumeration():
    rng = random.Random(20240815)
    for trial in range(30):
        m = _model(f"rand{trial}")
        n_bin, n_cont = rng.randint(1, 5), rng.randint(0, 3)
        names = [m.add_variable(f"z{k}", binary=True) for k in range(n_bin)]
        names += [m.add_variable(f"x{k}", ub=rng.uniform(1.0, 5.0))
                  for k in range(n_cont)]
        for r in range(rng.randint(1, 4)):
            expr = LinExpr({v: rng.uniform(-2.0, 3.0) for v in names
                            if rng.random() < 0.8})
            if not expr.terms:
                continue
            m.add_row(expr, rng.choice(["<=", ">=", "<="]),
                      rng.uniform(-1.0, 6.0), RowTag("r", (str(r),)))
        m.set_objective(LinExpr({v: rng.uniform(-3.0, 3.0) for v in names}))
        sol = solve_milp(m)
        status, best = pattern_enumeration_optimum(m)
        assert sol.status is status, f"trial {trial}: {sol.status} vs {status}"
        if status is Status.OPTIMAL:
            scale = max(1.0, abs(best))
            assert abs(sol.objective - best) <= 1e-6 * scale, f"trial {trial}"


def test_incumbent_history_is_monotone():
    rng = random.Random(99)
    m = _model()
    load, obj = LinExpr(), LinExpr()
    for k in range(10):
        name = m.add_variable(f"z{k}", binary=True)
        load.add(name, rng.uniform(0.5, 2.0))
        obj.add(name, -rng.uniform(0.1, 3.0))
    m.add_row(load, "<=", 6.0, TAG)
    m.set_objective(obj)
    sol = solve_milp(m)
    hist = sol.stats.incumbent_history
    assert hist == sorted(hist, reverse=True)
    assert sol.status is Status.OPTIMAL
    assert sol.gap == pytest.approx(0.0, abs=1e-9)


def test_lp_format_dump_mentions_tags():
    m = _model("dumped")
    m.add_variable("x", ub=1.0)
    m.add_row(LinExpr({"x": 1.0}), "<=", 1.0, RowTag("capacity", ("dropoff", "a", "b")))
    m.set_objective(LinExpr({"x": -1.0}))
    text = m.to_lp_format()
    assert "capacity[dropoff,a,b]" in text
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text


def test_negative_cost_without_upper_bound_is_still_bounded():
    # the slack basis is dual infeasible (x wants to grow without bound),
    # so the engine needs its dual phase one before the rows bound x
    m = _model()
    m.add_variable("x")
    m.add_variable("y", lb=-math.inf)
    m.add_row(LinExpr({"x": 1.0, "y": 1.0}), "<=", 4.0, TAG)
    m.add_row(LinExpr({"y": 1.0}), ">=", -1.0, RowTag("row2"))
    m.set_objective(LinExpr({"x": -1.0, "y": 0.5}))
    sol = solve_milp(m)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(-5.5, abs=1e-9)
    assert sol.values["x"] == pytest.approx(5.0, abs=1e-9)


def test_dual_infeasible_lp_tells_unbounded_from_infeasible():
    m = _model()
    m.add_variable("x")
    m.add_variable("y")
    m.add_row(LinExpr({"x": 1.0, "y": -1.0}), "==", 1.0, TAG)
    m.set_objective(LinExpr({"x": -1.0}))
    assert solve_milp(m).status is Status.UNBOUNDED
    m.add_row(LinExpr({"y": 1.0}), "<=", -1.0, RowTag("row2"))  # y >= 0 and y <= -1
    assert solve_milp(m).status is Status.INFEASIBLE


def _doctored(model, values):
    sol = Solution(Status.OPTIMAL, 0.0, dict(values), bound=0.0)
    _verify(model, sol)
    return sol.status


def test_verify_checks_bounds_and_integrality_in_original_units():
    m = _model()
    m.add_variable("x", lb=0.0, ub=1000.0)
    m.add_variable("z", binary=True)
    m.add_row(LinExpr({"x": 1.0, "z": -2000.0}), "<=", 0.0, RowTag("capacity"))
    assert _doctored(m, {"x": 1000.0, "z": 1.0}) is Status.OPTIMAL
    # within FEASIBILITY_TOL * (1 + |bound|) passes, beyond it does not
    assert _doctored(m, {"x": 1000.0 + 0.5 * FEASIBILITY_TOL * 1001, "z": 1.0}) \
        is Status.OPTIMAL
    assert _doctored(m, {"x": 1000.0 + 2.0 * FEASIBILITY_TOL * 1001, "z": 1.0}) \
        is Status.NUMERICALLY_UNSTABLE
    assert _doctored(m, {"x": -1e-6, "z": 0.0}) is Status.NUMERICALLY_UNSTABLE
    # a fractional binary that every row still accepts
    assert _doctored(m, {"x": 0.0, "z": 0.5}) is Status.NUMERICALLY_UNSTABLE
    # and rows are still checked
    assert _doctored(m, {"x": 10.0, "z": 0.0}) is Status.NUMERICALLY_UNSTABLE


def _network_model(seed=6, objective="cost"):
    instance = random_network_instance(random.Random(seed), 5, 4, 3)
    return build_system_model(instance, objective).model


def test_solving_twice_gives_identical_values():
    for objective in ("cost", "emission"):
        model = _network_model(objective=objective)
        first = solve_milp(model)
        again = solve_milp(model)
        rebuilt = solve_milp(_network_model(objective=objective))
        assert first.status is Status.OPTIMAL
        assert first.values == again.values == rebuilt.values
        assert first.objective == again.objective == rebuilt.objective
        assert first.stats == again.stats == rebuilt.stats


def test_binaries_come_back_exactly_integral():
    sol = solve_milp(_network_model())
    binaries = _network_model().binary_names
    assert binaries and all(sol.values[b] in (0.0, 1.0) for b in binaries)


def test_warm_started_bounds_match_a_cold_solve():
    """Bounds re-solved from the root relaxation's basis and factorization,
    as a branch-and-bound child is, match the root of a model with those
    bounds built in, which starts from the slack basis."""
    model = _network_model()
    lp = _Lp(model)
    root = lp.root()
    col = {name: j for j, name in enumerate(lp.names)}
    binaries = model.binary_names
    rng = random.Random(5)
    statuses = set()
    patterns = [{name: (0.0, 0.0) for name in binaries}]
    for _ in range(12):
        picked = rng.sample(binaries, rng.randint(1, len(binaries)))
        patterns.append({name: (float(b), float(b)) for name, b in
                         zip(picked, (rng.randint(0, 1) for _ in picked))})
    for trial, bounds in enumerate(patterns):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for name, (lo, hi) in bounds.items():
            j = col[name]
            lb[j], ub[j] = lo / lp.scale[j], hi / lp.scale[j]
        warm = _Simplex(lp, lp.cost, lb, ub).solve(root)
        cold = _Lp(with_bounds(model, bounds)).root()
        statuses.add(warm.status)
        assert warm.status is cold.status, trial
        if warm.status is Status.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9), trial
    assert statuses == {Status.OPTIMAL, Status.INFEASIBLE}


def _without_share_bounds(model):
    """``model`` with its continuous columns bounded by 1 (the RTD shares)
    unbounded above.  Each trip balance row keeps them at most 1, so the LP
    is the same, but no implied-bound cut applies and the root keeps the
    tree the cuts would prune."""
    return with_bounds(model, {name: (var.lb, math.inf) for name, var in model.variables.items()
                               if var.ub == 1.0 and not var.binary})


def test_children_restart_from_their_parents_basis():
    """A deterministic guard on pivot counts: a child re-solved from scratch
    costs 15 to 35 pivots on these models, one restarted from its parent's
    basis about 3 to 11."""
    bundled = solve_milp(build_system_model(load_bundled_instance(), "cost").model)
    assert bundled.status is Status.OPTIMAL
    assert bundled.stats.simplex_iterations <= 40
    sol = solve_milp(_without_share_bounds(_network_model(seed=6)))
    assert sol.status is Status.OPTIMAL
    assert sol.stats.nodes >= 20
    assert sol.stats.simplex_iterations / sol.stats.nodes <= 8.0


# (status, nodes, pivots) of a fresh solve of each model; the pivots count
# the root's cut rounds and the read-out of a cut tree's incumbent
PIVOT_PATHS = {
    ("bundled", "system", "cost"): ("optimal", 3, 22),
    ("bundled", "system", "emission"): ("optimal", 3, 22),
    ("bundled", "user-I", "cost"): ("optimal", 1, 10),
    ("bundled", "user-I", "emission"): ("optimal", 1, 10),
    (0, "system", "cost"): ("optimal", 9, 81),
    (0, "system", "emission"): ("optimal", 7, 61),
    (0, "user-I", "cost"): ("optimal", 1, 19),
    (0, "user-I", "emission"): ("optimal", 1, 19),
    (1, "system", "cost"): ("optimal", 7, 72),
    (1, "system", "emission"): ("optimal", 9, 73),
    (1, "user-I", "cost"): ("optimal", 1, 23),
    (1, "user-I", "emission"): ("optimal", 1, 20),
    (2, "system", "cost"): ("optimal", 7, 63),
    (2, "system", "emission"): ("optimal", 5, 54),
    (2, "user-I", "cost"): ("optimal", 1, 21),
    (2, "user-I", "emission"): ("optimal", 1, 21),
    (3, "system", "cost"): ("optimal", 5, 63),
    (3, "system", "emission"): ("optimal", 9, 73),
    (3, "user-I", "cost"): ("optimal", 1, 21),
    (3, "user-I", "emission"): ("optimal", 1, 21),
}


@pytest.mark.parametrize("network", ["bundled", 0, 1, 2, 3],
                         ids=["bundled", *(f"netgen-5x4x3-{s}" for s in range(4))])
def test_pivot_paths_are_pinned(network, bundled):
    """A change to the simplex's arithmetic that keeps its pivot rules keeps
    every pivot; these counts hold under any BLAS thread count."""
    instance = bundled if network == "bundled" else netgen_instance(5, 4, 3, network)
    for model, build in (("system", build_system_model), ("user-I", build_user_model_i)):
        for objective in ("cost", "emission"):
            sol = solve_milp(build(instance, objective).model)
            path = (sol.status.value, sol.stats.nodes, sol.stats.simplex_iterations)
            assert path == PIVOT_PATHS[network, model, objective], (model, objective)


def test_solving_children_leaves_the_parent_untouched():
    """Both children of the root start from its factorization, which they
    share with it and with each other: their pivots must not write to it."""
    lp = _Lp(_network_model())
    root = lp.root()
    k = lp.most_fractional(root.x)
    assert k >= 0
    kept = [a.copy() for a in (root.binv, root.d, root.weights, root.head, root.upper, root.x)]
    for value in (0, 1):
        child = _Simplex(lp, lp.cost, *lp.branch(root, k, value)).solve(root)
        assert child.pivots > 0
    after = (root.binv, root.d, root.weights, root.head, root.upper, root.x)
    for before, now in zip(kept, after):
        assert np.array_equal(before, now)


@pytest.mark.parametrize("seed", range(8))
def test_nodes_invert_only_the_bases_they_pivot_to(seed, monkeypatch):
    """The root inverts the slack basis and its optimal basis; every child
    starts from its parent's factorization and inverts at most its own
    optimal basis, so one solve makes at most nodes + 1 inversions."""
    calls = []
    factor = _Lp.factor
    monkeypatch.setattr(_Lp, "factor", lambda lp, head: calls.append(1) or factor(lp, head))
    instance = netgen_instance(5, 4, 3, seed)
    for build in (build_system_model, build_user_model_i):
        for objective in ("cost", "emission"):
            calls.clear()
            sol = solve_milp(build(instance, objective).model)
            assert sol.status is Status.OPTIMAL
            assert len(calls) <= sol.stats.nodes + 1, (build.__name__, objective)


def _inverting(monkeypatch):
    """A list that gets one entry per LAPACK inversion from now on."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    return calls


def _netgen_models(seed):
    """System, user-I and capacity-preset robust (gamma 1 and 2) models of a
    generated 5x4x3 network, for both objectives."""
    instance = netgen_instance(5, 4, 3, seed)
    for objective in ("cost", "emission"):
        yield f"system {objective}", build_system_model(instance, objective).model
        yield f"user-I {objective}", build_user_model_i(instance, objective).model
        for gamma in (1.0, 2.0):
            system = build_system_model(instance, objective)
            robust = robustify_artifacts(system, capacity_preset(system, gamma=gamma))
            yield f"robust gamma {gamma:g} {objective}", robust.model


@pytest.mark.parametrize("seed", range(8))
def test_an_optimal_solve_inverts_once(seed, monkeypatch):
    """The slack basis's inverse is built directly and every LP keeps the
    inverse its pivots updated unless a residual check finds it drifted, so
    the one LAPACK inversion of a solve is the fresh one behind the reported
    values, also on the longer paths of the robust counterparts."""
    calls = _inverting(monkeypatch)
    for name, model in _netgen_models(seed):
        calls.clear()
        sol = solve_milp(model)
        assert sol.status is Status.OPTIMAL
        assert len(calls) == 1, (name, sol.stats.nodes)


@pytest.mark.parametrize("size", [(40, 12, 6), (60, 16, 8)], ids=["40x12x6", "60x16x8"])
def test_every_lp_end_keeps_its_updated_inverse(size, monkeypatch):
    """On the larger generated rungs every LP ends on the inverse its pivots
    updated: each end passes the residual check, the solve inverts once, and
    the answer is zero-gap HiGHS's."""
    model = build_system_model(netgen_instance(*size, 0), "cost").model
    checks = []
    consistent = _Simplex.consistent
    monkeypatch.setattr(_Simplex, "consistent", lambda s: checks.append(consistent(s)) or checks[-1])
    calls = _inverting(monkeypatch)
    sol = solve_milp(model)
    assert sol.status is Status.OPTIMAL
    assert checks and all(checks)
    assert len(calls) == 1
    exact = ExactHighs().solve(model)
    assert sol.objective == pytest.approx(exact.objective, rel=1e-9)


def _root_and_drifted():
    """The root relaxation of a generated network, and a copy of it whose
    carried inverse has each row scaled by up to 1e-6: off enough to fail
    every residual check, while every entry the ratio test reads as zero
    stays zero."""
    lp = _Lp(_network_model())
    root = lp.root()
    assert root.status is Status.OPTIMAL and root.updates > 0
    noise = np.random.default_rng(0).uniform(-1e-6, 1e-6, (root.binv.shape[0], 1))
    drifted = copy.copy(root)
    drifted.binv = root.binv * (1.0 + noise)
    return lp, root, drifted


def test_a_drifted_inverse_is_refactored_before_an_lp_ends(monkeypatch):
    """A carried inverse ends the LP as it stands; a drifted one fails the
    end check, is inverted afresh, and gives the cold solve's answer."""
    lp, root, drifted = _root_and_drifted()
    lb, ub = lp.branch(root, lp.most_fractional(root.x), 1)
    cold = _Simplex(lp, lp.cost, lb, ub).solve()
    checks = []
    consistent = _Simplex.consistent
    monkeypatch.setattr(_Simplex, "consistent",
                        lambda s: checks.append(consistent(s)) or checks[-1])
    carried = _Simplex(lp, lp.cost, lb, ub).solve(root)
    assert checks == [True]
    checks.clear()
    warm = _Simplex(lp, lp.cost, lb, ub).solve(drifted)
    assert checks == [False, True]
    for result in (carried, warm):
        assert result.status is cold.status is Status.OPTIMAL
        assert result.objective == pytest.approx(cold.objective, rel=1e-12)
        assert np.abs(lp.mat @ result.x).max() <= 1e-9 * np.abs(result.x).max()
        assert lp.values(result) == pytest.approx(lp.values(cold), rel=1e-9)


def test_a_drifted_inverse_proves_no_infeasibility(monkeypatch):
    """With every binary closed the child is infeasible; a carried inverse
    proves it as it stands, a drifted one only after a refactorization."""
    lp, root, drifted = _root_and_drifted()
    lb, ub = lp.lb.copy(), lp.ub.copy()
    ub[lp.binaries] = 0.0
    refactors = []
    refactor = _Simplex.refactor
    monkeypatch.setattr(_Simplex, "refactor", lambda s: refactors.append(1) or refactor(s))
    assert _Simplex(lp, lp.cost, lb, ub).solve(root).status is Status.INFEASIBLE
    assert not refactors
    assert _Simplex(lp, lp.cost, lb, ub).solve(drifted).status is Status.INFEASIBLE
    assert refactors


def _rebuilt(model, scale=1.0, extra_row=False):
    """A copy of ``model`` with its first row's first coefficient times
    ``scale`` and, with ``extra_row``, one more row that never binds."""
    out = MilpModel(model.name)
    for var in model.variables.values():
        out.add_variable(var.name, var.lb, var.ub, var.binary)
    for k, row in enumerate(model.rows):
        expr = row.expr.copy()
        if k == 0:
            first = next(iter(expr.terms))
            expr.terms[first] *= scale
        out.add_row(expr, row.relation, row.rhs, row.tag)
    if extra_row:
        out.add_row(LinExpr({next(iter(model.variables)): 1.0}), "<=", 1e6, RowTag("extra"))
    out.set_objective(model.objective)
    return out


@pytest.mark.parametrize("change", [{"scale": 3.0}, {"extra_row": True}],
                         ids=["coefficient", "row"])
def test_a_start_with_another_matrix_is_ignored(change):
    start = _network_model()
    cold = solve_milp(_rebuilt(start, **change))
    solver = EmbeddedSolver()
    assert solver.solve(start).status is Status.OPTIMAL
    model = _rebuilt(start, **change)
    assert not np.array_equal(_Lp(model).mat, _Lp(start).mat)
    warm = solver.solve(model)
    assert warm.status is Status.OPTIMAL
    assert warm.stats == cold.stats
    assert warm.values == cold.values and warm.objective == cold.objective


@pytest.mark.parametrize("objective", ["cost", "emission"])
def test_a_start_with_the_same_matrix_lends_its_root(objective, monkeypatch):
    """The root starts from the kept root's optimal basis; it takes that
    root's factorization too only under the same costs, and otherwise
    inverts the kept root's basis first."""
    start = _network_model(objective="cost")
    cold = solve_milp(_network_model(objective=objective))
    solver = EmbeddedSolver()
    assert solver.solve(start).status is Status.OPTIMAL
    (root,) = solver._roots.values()
    starts, inverted = [], []
    solve, factor = _Simplex.solve, _Lp.factor
    monkeypatch.setattr(_Simplex, "solve",
                        lambda s, start=None: starts.append(start) or solve(s, start))
    monkeypatch.setattr(_Lp, "factor", lambda lp, head: inverted.append(
        (len(starts), head.copy())) or factor(lp, head))
    model = _network_model(objective=objective)
    assert np.array_equal(_Lp(model).mat, root.lp.mat)
    warm = solver.solve(model)
    assert starts[0] is root
    at_root = [head for lp_count, head in inverted if lp_count == 1]
    if objective == "cost":
        assert not at_root
    else:
        assert np.array_equal(at_root[0], root.head)
    assert warm.status is cold.status is Status.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.stats.nodes == cold.stats.nodes
    if objective == "cost":
        assert warm.stats.simplex_iterations < cold.stats.simplex_iterations


def test_a_later_optimal_root_of_the_same_shape_replaces_the_kept_one():
    """The solver keeps one root per matrix shape: a model of another shape
    leaves the kept root alone, one of the same shape replaces it, and the
    replaced root is then freed."""
    solver = EmbeddedSolver()
    first = _network_model()
    assert solver.solve(first).status is Status.OPTIMAL
    (kept,) = solver._roots.values()
    held = weakref.ref(kept)
    other_shape = _rebuilt(first, extra_row=True)
    del first, kept
    assert solver.solve(other_shape).status is Status.OPTIMAL
    gc.collect()
    assert held() is not None and len(solver._roots) == 2
    assert solver.solve(_network_model(objective="emission")).status is Status.OPTIMAL
    gc.collect()
    assert held() is None and len(solver._roots) == 2


def test_a_solved_model_is_freed_without_the_cycle_collector(monkeypatch):
    """A kept root holds its ``_Lp`` and nothing holds either of them but the
    solver: with a reference cycle among them only the cyclic collector
    would free a model's matrix and every kept factorization, which would
    then outlive the last reference to them."""
    held = []
    root = _Lp.root
    monkeypatch.setattr(_Lp, "root", lambda lp, start=None: held.append(weakref.ref(lp))
                        or root(lp, start))
    gc.collect()
    gc.disable()
    try:
        alone = _network_model()
        assert solve_milp(alone).status is Status.OPTIMAL
        solver = EmbeddedSolver()
        kept = _network_model(objective="emission")
        assert solver.solve(kept).status is Status.OPTIMAL
        held += map(weakref.ref, [alone, kept, *solver._roots.values()])
        assert len(held) == 5
        del solver
        del alone, kept
        assert [ref() for ref in held] == [None] * 5
    finally:
        gc.enable()


def test_a_solve_leaves_the_model_as_plain_data():
    """The solver, not the model, keeps what a solve learned: a solved model
    equals its unsolved self, and two fresh solvers answer it identically."""
    model = _network_model()
    unsolved = copy.deepcopy(vars(model))
    first = EmbeddedSolver().solve(model)
    assert vars(model) == unsolved
    second = EmbeddedSolver().solve(model)
    assert first.status is second.status is Status.OPTIMAL
    assert (first.values, first.objective, first.stats) == (second.values, second.objective,
                                                             second.stats)


def test_a_start_without_an_optimal_root_is_ignored():
    """A fresh solver, or one whose only solve had an infeasible root
    relaxation (every binary closed: same matrix, other bounds), starts the
    next root from the slack basis."""
    unsolved = _network_model()
    closed = with_bounds(unsolved, {b: (0.0, 0.0) for b in unsolved.binary_names})
    cold = solve_milp(_network_model())
    after_closed = EmbeddedSolver()
    assert after_closed.solve(closed).status is Status.INFEASIBLE
    assert _Lp(closed).root().status is Status.INFEASIBLE
    assert not after_closed._roots
    for solver in (EmbeddedSolver(), after_closed):
        model = _network_model()
        assert np.array_equal(_Lp(model).mat, _Lp(closed).mat)
        assert solver.solve(model).stats == cold.stats


def _violated_cuts(seed=6):
    """A generated network's root relaxation and its violated implied-bound
    cuts, appended to its LP."""
    lp = _Lp(_network_model(seed))
    root = lp.root()
    assert lp.most_fractional(root.x) >= 0
    return lp, root, lp.with_cuts(*lp.implied_bound_cuts(root.x))


def test_the_violated_implied_bounds_are_share_gates():
    """Each cut is an RTD share against its own dropoff's X, fractional at
    the root, one cut row per pair: ``RTD - X <= 0`` scaled by powers of
    two, which the root's values violate."""
    lp, root, _ = _violated_cuts()
    x, y, ratio, scale = lp.implied_bound_cuts(root.x)
    assert x.size and np.unique(x * len(lp.names) + y).size == x.size
    for j, k in zip(x, y):
        share, opens = lp.names[j], lp.names[k]
        assert share.startswith("RTD[") and opens == f"X[{share[:-1].rsplit(',', 1)[1]}]"
        assert 0.0 < root.x[k] * lp.scale[k] < 1.0
    assert np.array_equal(ratio * lp.scale[x], lp.scale[y])  # RTD <= 1 * X
    original = root.x[x] * lp.scale[x] - root.x[y] * lp.scale[y]
    cut = scale * root.x[x] - ratio * scale * root.x[y]
    assert np.allclose(cut, original * scale / lp.scale[x], rtol=1e-12, atol=0.0)
    assert (cut > FEASIBILITY_TOL).all()


def test_appending_cuts_borders_the_inverse():
    """The cut rows' logicals enter the basis and the bordered inverse is
    the basis's inverse; the reduced costs are the root's, so the start is
    dual feasible, and the dual simplex goes on from it to an optimum that
    satisfies every cut."""
    lp, root, cuts = _violated_cuts()
    start = root.appended(cuts)
    m, k = root.head.size, cuts.mat.shape[0] - root.head.size
    width = cuts.mat.shape[1]
    assert np.array_equal(start.head[:m], root.head)
    assert np.array_equal(start.head[m:], np.arange(width - k, width))
    identity = start.binv @ cuts.mat[:, start.head]
    assert np.abs(identity - np.eye(m + k)).max() <= 1e-12
    assert np.array_equal(start.d[:root.d.size], root.d)
    assert not start.d[root.d.size:].any()
    assert start.cost is cuts.cost and not start.upper[root.upper.size:].any()
    solved = _Simplex(cuts, cuts.cost, cuts.lb, cuts.ub).solve(start)
    assert solved.status is Status.OPTIMAL
    assert solved.objective >= root.objective - 1e-9 * abs(root.objective)
    assert solved.x[width - k:].max() <= FEASIBILITY_TOL  # each cut's activity
    assert solved.consistent()


def test_cut_rounds_leave_the_root_and_the_kept_root_uncut():
    """The cut rounds work on a copy: the model's own LP and root stay as
    they were, and the solver keeps the uncut root."""
    model = _network_model()
    lp = _Lp(model)
    root = lp.root()
    kept = (lp.mat.copy(), root.binv.copy(), root.head.copy())
    top = _cut(lp, root, SolveStats())
    assert top.lp is not lp and top.lp.mat.shape[0] > lp.mat.shape[0]
    assert top.objective > root.objective
    assert all(np.array_equal(a, b) for a, b in zip(kept, (lp.mat, root.binv, root.head)))
    solver = EmbeddedSolver()
    assert solver.solve(model).status is Status.OPTIMAL
    (kept_root,) = solver._roots.values()
    assert kept_root.lp.mat.shape == lp.mat.shape
