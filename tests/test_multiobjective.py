import threading

import pytest

from helpers import (HighsSpy, RecordingSolver, SolveOnly, netgen_instance, on_highs_worker,
                     three_plan_tradeoff)
from rlnd import external, scenarios
from rlnd.external import ScipySolver
from rlnd.milp import EmbeddedSolver, LinExpr, MilpModel, RowTag, Status, solve_milp
from rlnd.multiobjective import (THETA_DEFAULT, ExpressionFamily, SystemEpsilonFamily,
                                 UserEpsilonFamily, epsilon_sweep)


def test_three_plan_front_is_exact():
    factory, expected = three_plan_tradeoff()
    front = epsilon_sweep(ExpressionFamily(factory), points=10, theta=1e-4)
    got = {(round(p.total_cost, 9), round(p.total_emission, 9)) for p in front}
    assert got == expected
    assert len(front) == 3
    assert front.skipped == []
    # every surviving point honours its own emission cap
    for p in front:
        assert p.total_emission <= p.epsilon + 1e-9
    # grid endpoints recover the single-objective anchors
    by_v = {p.v: p for p in front.points}
    assert by_v[0].total_emission == pytest.approx(front.emission_anchor[1])
    assert by_v[10].total_cost == pytest.approx(front.cost_anchor[0])


def test_sweep_skips_the_caps_an_answer_still_fits(monkeypatch):
    """Walking loosest first, the answer at cap 30 reaches only 30, the one
    at 28 reaches down to 18 and the one at 16 to 10: three solves, each
    point labelled with the lowest grid index it covers."""
    factory, _ = three_plan_tradeoff()
    caps = []
    solve_point = ExpressionFamily.solve_point
    monkeypatch.setattr(ExpressionFamily, "solve_point",
                        lambda self, v, eps, theta: caps.append(v)
                        or solve_point(self, v, eps, theta))
    front = epsilon_sweep(ExpressionFamily(factory), points=10, theta=1e-4)
    assert caps == [10, 9, 3]
    assert [(p.v, p.epsilon, p.total_cost, p.total_emission) for p in front] == [
        (0, 10.0, 30.0, 10.0), (4, 18.0, 16.0, 18.0), (10, 30.0, 10.0, 30.0)]


@pytest.mark.xfail(strict=True, reason="the epsilon row adds +theta * slack, a penalty; "
                   "perfbench's certificate recomputes grid objectives with that sign")
def test_slack_reward_picks_the_lower_emission_among_equal_costs():
    """(10, 7.2) is weakly dominated by (10, 7): a slack reward makes every
    cap that admits both choose (10, 7)."""
    plans = {"z1": (12.0, 5.0), "z2": (10.0, 7.0), "z3": (10.0, 7.2), "z4": (9.0, 20.0)}

    def factory():
        model = MilpModel("four-plans")
        cost, emission, pick = LinExpr(), LinExpr(), LinExpr()
        for name, (c, e) in plans.items():
            model.add_variable(name, binary=True)
            cost.add(name, c)
            emission.add(name, e)
            pick.add(name, 1.0)
        model.add_row(pick, "==", 1.0, RowTag("pick-one"))
        model.set_objective(cost)
        return model, cost, emission

    front = epsilon_sweep(ExpressionFamily(factory), points=10)
    got = {(round(p.total_cost, 9), round(p.total_emission, 9)) for p in front}
    assert got == {(9.0, 20.0), (10.0, 7.0), (12.0, 5.0)}


@pytest.mark.parametrize("seed", range(4))
def test_skipping_covered_caps_leaves_fronts_unchanged(seed, monkeypatch):
    instance = netgen_instance(5, 4, 3, seed)
    for family in (SystemEpsilonFamily, UserEpsilonFamily):
        with_bypass = epsilon_sweep(family(instance), points=10)
        with monkeypatch.context() as m:
            solve_point = family.solve_point

            def unreached(self, v, eps, theta, _solve_point=solve_point):
                result = _solve_point(self, v, eps, theta)
                return None if result is None else (*result[:2], float("inf"))

            m.setattr(family, "solve_point", unreached)
            without = epsilon_sweep(family(instance), points=10)
        assert with_bypass.format_text() == without.format_text(), family.__name__
        assert with_bypass.points == without.points
        assert with_bypass.skipped == without.skipped


def _sweep(family, instance, warm=True):
    """The family's front, and the summed pivots and nodes of its grid
    solves; with ``warm`` false, every root starts cold."""
    solver = RecordingSolver(warm)
    front = epsilon_sweep(family(instance, solver=solver), points=10)
    grid = [s.stats for model, s in solver.solves
            if any(row.tag.family == "epsilon" for row in model.rows)]
    return front, sum(s.simplex_iterations for s in grid), sum(s.nodes for s in grid)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3],
                         ids=lambda s: "bundled" if s is None else f"netgen-{s}")
def test_grid_solves_started_from_the_previous_one_give_the_cold_front(seed, bundled):
    """The printed fronts are identical, and so is every grid point's
    ``(v, epsilon)``: the values come from the final basis alone, whatever
    order its rows reached it in."""
    instance = bundled if seed is None else netgen_instance(5, 4, 3, seed)
    for family in (SystemEpsilonFamily, UserEpsilonFamily):
        warm, _, _ = _sweep(family, instance)
        cold, _, _ = _sweep(family, instance, warm=False)
        label = family.__name__
        assert warm.format_text() == cold.format_text(), label
        assert warm.skipped == cold.skipped, label
        assert [(p.v, p.epsilon) for p in warm] == [(p.v, p.epsilon) for p in cold], label
        for p, q in zip(warm, cold):
            assert p.total_cost == pytest.approx(q.total_cost, rel=1e-9), label
            assert p.total_emission == pytest.approx(q.total_emission, rel=1e-9), label


def test_grid_solves_started_from_the_previous_one_save_pivots():
    """A deterministic guard: on netgen 5x4x3 seed 0 the grid solves take
    769 (system) and 870 (user) pivots cold, 465 and 385 warm."""
    instance = netgen_instance(5, 4, 3, 0)
    for family in (SystemEpsilonFamily, UserEpsilonFamily):
        _, warm_pivots, warm_nodes = _sweep(family, instance)
        _, cold_pivots, cold_nodes = _sweep(family, instance, warm=False)
        assert warm_nodes == cold_nodes, family.__name__
        assert warm_pivots <= 0.75 * cold_pivots, (family.__name__, warm_pivots, cold_pivots)


def test_three_plan_front_none_dominated():
    factory, _ = three_plan_tradeoff()
    front = epsilon_sweep(ExpressionFamily(factory), points=10, theta=1e-4)
    pts = list(front)
    for p in pts:
        for q in pts:
            if q is p:
                continue
            assert not (q.total_cost <= p.total_cost
                        and q.total_emission <= p.total_emission
                        and (q.total_cost < p.total_cost
                             or q.total_emission < p.total_emission))


def test_weighted_sum_oracle_lands_on_front():
    factory, expected = three_plan_tradeoff()
    found = set()
    for k in range(1001):
        w = k / 1000.0
        model, cost, emission = factory()
        combo = cost.scaled(w)
        combo.add_expr(emission, 1.0 - w)
        model.set_objective(combo)
        sol = solve_milp(model)
        assert sol.status is Status.OPTIMAL
        found.add((round(cost.evaluate(sol.values), 9),
                   round(emission.evaluate(sol.values), 9)))
    # all three efficient points are supported, so scalarization finds each,
    # and nothing outside the known front ever wins
    assert found == expected


def test_coarse_grid_misses_interior_point():
    factory, _ = three_plan_tradeoff()
    front = epsilon_sweep(ExpressionFamily(factory), points=1, theta=1e-4)
    got = {(p.total_cost, p.total_emission) for p in front}
    assert got == {(30.0, 10.0), (10.0, 30.0)}


def test_degenerate_single_point_front():
    def factory():
        model = MilpModel("aligned")
        plans = {"z1": (10.0, 10.0), "z2": (20.0, 20.0)}
        cost, emission, pick = LinExpr(), LinExpr(), LinExpr()
        for name, (c, e) in plans.items():
            model.add_variable(name, binary=True)
            cost.add(name, c)
            emission.add(name, e)
            pick.add(name, 1.0)
        model.add_row(pick, "==", 1.0, RowTag("pick-one"))
        model.set_objective(cost)
        return model, cost, emission

    front = epsilon_sweep(ExpressionFamily(factory), points=10)
    assert len(front) == 1
    assert front.points[0].total_cost == pytest.approx(10.0)


def test_parameter_validation():
    factory, _ = three_plan_tradeoff()
    family = ExpressionFamily(factory)
    with pytest.raises(ValueError):
        epsilon_sweep(family, theta=1e-2)
    with pytest.raises(ValueError):
        epsilon_sweep(family, theta=0.0)
    with pytest.raises(ValueError):
        epsilon_sweep(family, points=0)


def test_front_csv(tmp_path):
    factory, _ = three_plan_tradeoff()
    front = epsilon_sweep(ExpressionFamily(factory))
    path = tmp_path / "front.csv"
    front.to_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "v,epsilon,total_cost,total_emission"
    assert len(lines) == 1 + len(front)


def test_system_family_on_slack_instance(bundled):
    # cost and emission optima coincide here, so the front is one point
    front = epsilon_sweep(SystemEpsilonFamily(bundled), points=4)
    assert len(front) == 1
    assert front.cost_anchor == pytest.approx(front.emission_anchor)


def test_system_family_on_tight_instance(tight40):
    front = epsilon_sweep(SystemEpsilonFamily(tight40), points=10)
    assert len(front) >= 2
    assert front.skipped == []
    pts = sorted(front, key=lambda p: p.v)
    for a, b in zip(pts, pts[1:]):
        assert b.total_cost <= a.total_cost + 1e-6
        assert b.total_emission >= a.total_emission - 1e-6
    for p in pts:
        assert p.total_emission <= p.epsilon + 1e-6
    assert pts[0].total_emission == pytest.approx(front.emission_anchor[1], rel=1e-9)
    assert pts[-1].total_cost == pytest.approx(front.cost_anchor[0], rel=1e-9)
    # the augmented solve may only improve on the raw emission anchor's cost
    assert pts[0].total_cost <= front.emission_anchor[0] + 1e-6


def test_user_family_on_tight_instance(tight40):
    front = epsilon_sweep(UserEpsilonFamily(tight40), points=10)
    assert len(front) >= 2
    for p in front:
        assert p.total_emission <= p.epsilon + 1e-6
    system = epsilon_sweep(SystemEpsilonFamily(tight40), points=10)
    # a composed two-phase plan is feasible for the one-shot model, so the
    # decentralized cost anchor cannot beat the centralized one
    assert front.cost_anchor[0] >= system.cost_anchor[0] - 1e-6
    assert front.emission_anchor[1] >= system.emission_anchor[1] - 1e-6


def test_user_grid_solve_before_the_anchors_holds_back_the_same_emission():
    """A user grid solve asked for first solves the emission anchor itself:
    without that, phase one would get the whole cap and (on this network)
    the point would read (119867.22, 129509.04)."""
    instance = netgen_instance(5, 4, 3, 3)
    anchored = UserEpsilonFamily(instance)
    anchored.anchor("cost")
    _, emission = anchored.anchor("emission")
    first = UserEpsilonFamily(instance).solve_point(0, emission, THETA_DEFAULT)
    assert first == anchored.solve_point(0, emission, THETA_DEFAULT)
    assert first[:2] == pytest.approx((148280.37, 145545.75), abs=0.01)


# ----------------------------------------------------------------------
# HiGHS sweeps that overlap two solves
# ----------------------------------------------------------------------

class RecordingHighs(ScipySolver):
    """HiGHS, keeping each model it is asked to solve in the order of the
    calls, as the benchmark's recorder keeps them."""

    def __init__(self):
        super().__init__()
        self.solved = []

    def solve(self, model):
        self.solved.append(model)
        return super().solve(model)


def _worker_idle(solver: ScipySolver, spy: HighsSpy) -> bool:
    return (spy.running == 0 and solver._started is None and solver._worker is None
            and not any(on_highs_worker(t.name) for t in threading.enumerate()))


@pytest.mark.parametrize("seed", [None, *range(6)],
                         ids=lambda s: "bundled" if s is None else f"netgen-20x8x5-{s}")
def test_overlapped_highs_sweeps_print_the_sequential_fronts(seed, bundled, two_cpus,
                                                             tmp_path):
    """As text and as CSV, byte for byte; and ``solve()`` sees the same
    models in the same order."""
    instance = bundled if seed is None else netgen_instance(20, 8, 5, seed)
    for family in (SystemEpsilonFamily, UserEpsilonFamily):
        label = family.__name__
        overlapped, sequential = RecordingHighs(), RecordingHighs()
        fronts = [epsilon_sweep(family(instance, solver=overlapped), points=10),
                  epsilon_sweep(family(instance, solver=SolveOnly(sequential)), points=10)]
        assert fronts[0].format_text() == fronts[1].format_text(), label
        for front, name in zip(fronts, ("overlapped.csv", "sequential.csv")):
            front.to_csv(tmp_path / name)
        assert ((tmp_path / "overlapped.csv").read_bytes()
                == (tmp_path / "sequential.csv").read_bytes()), label
        assert ([m.to_lp_format() for m in overlapped.solved]
                == [m.to_lp_format() for m in sequential.solved]), label


def test_an_overlapped_sweep_leaves_no_started_solve(two_cpus, monkeypatch):
    """Two solves ran at once, and after the sweep none runs and the solver
    holds none."""
    spy = HighsSpy(external._run_highs)
    monkeypatch.setattr(external, "_run_highs", spy)
    solver = ScipySolver()
    front = epsilon_sweep(SystemEpsilonFamily(netgen_instance(20, 8, 5, 0), solver=solver))
    assert len(front) == 11
    assert spy.most == 2
    assert _worker_idle(solver, spy)


def test_a_started_cap_the_bypass_skips_is_dropped_with_its_error(two_cpus, monkeypatch):
    """On netgen 5x4x3 seed 0 the answer at cap 6 reaches below caps 5 to
    2.  Cap 5 was started while cap 6 solved; its solve, made to fail
    here, is waited for and dropped, and the front is the sequential one."""
    instance = netgen_instance(5, 4, 3, 0)
    sequential = epsilon_sweep(SystemEpsilonFamily(instance, solver=SolveOnly(ScipySolver())))
    # the worker solves the emission anchor and caps 9, 7 and 5, then cap 0
    spy = HighsSpy(external._run_highs, fail=lambda k, thread: on_highs_worker(thread) and k == 3)
    monkeypatch.setattr(external, "_run_highs", spy)
    solver = ScipySolver()
    front = epsilon_sweep(SystemEpsilonFamily(instance, solver=solver))
    assert [p.v for p in front] == [0, 1, 2, 7, 8, 9, 10]
    assert front.format_text() == sequential.format_text()
    # 2 anchors and 7 caps asked for, and cap 5 dropped
    assert sum(map(on_highs_worker, spy.threads)) == 5 and len(spy.threads) == 10
    assert _worker_idle(solver, spy)


@pytest.mark.parametrize("on_worker", [False, True], ids=["calling", "worker"])
def test_a_grid_solve_that_raises_leaves_no_started_solve(on_worker, two_cpus, monkeypatch):
    """Cap 8 fails in the calling thread while cap 7 runs on the worker, or
    cap 7 fails on the worker and raises when the sweep asks for it."""
    spy = HighsSpy(external._run_highs,
                  fail=lambda k, thread: k == 2 and on_highs_worker(thread) == on_worker)
    monkeypatch.setattr(external, "_run_highs", spy)
    solver = ScipySolver()
    with pytest.raises(RuntimeError, match="HiGHS run 2 on"):
        epsilon_sweep(SystemEpsilonFamily(netgen_instance(5, 4, 3, 1), solver=solver))
    assert _worker_idle(solver, spy)


@pytest.mark.parametrize("family, steps", [
    (SystemEpsilonFamily, ["system:cost", "system:emission"] + ["system:cost"] * 11),
    (UserEpsilonFamily, ["user-I:cost", "user-II:cost", "user-I:emission", "user-II:emission"]
     + ["user-I:cost", "user-II:cost"] * 11)], ids=["system", "user"])
def test_an_embedded_sweep_builds_each_model_just_before_its_solve(family, steps, monkeypatch):
    """The embedded engine keeps the sequential walk: the cost anchor, the
    emission anchor, then the caps from the loosest, each model solved
    right after it was built."""
    events = []
    for name in ("build_system_model", "build_user_model_i", "build_user_model_ii"):
        def logged(*args, _build=getattr(scenarios, name), **kwargs):
            artifacts = _build(*args, **kwargs)
            events.append(("build", artifacts.model))
            return artifacts
        monkeypatch.setattr(scenarios, name, logged)

    class Logged(EmbeddedSolver):
        def solve(self, model):
            events.append(("solve", model))
            return super().solve(model)

    front = epsilon_sweep(family(netgen_instance(5, 4, 3, 1), solver=Logged()))
    assert len(front) == 11
    solved = [model for event, model in events if event == "solve"]
    assert events == [(event, m) for m in solved for event in ("build", "solve")]
    assert [m.name.split(":", 1)[1] for m in solved] == steps
