import math
import threading

import pytest
import scipy.optimize

from helpers import MilpSpy, RecordingSolver, UnstableSolver, netgen_instance, on_highs_worker
from rlnd import external, scenarios
from rlnd.cli import main
from rlnd.domain import with_total_capacity
from rlnd.external import ScipySolver
from rlnd.io import save_instance
from rlnd.milp import EmbeddedSolver, ModelError, RowTag, Status
from rlnd.scenarios import (SCENARIO_ORDER, EmissionCap, builtin_scenarios,
                            calibrate_trip_factor, comparison_rows,
                            derive_throughput, load_scenario_spec, materialize,
                            run_all, run_scenario, solve_scenario, solve_system,
                            solve_user, write_comparison_csv)

BASE_THROUGHPUT = 2784.87  # busiest primary inflow on the unmodified instance


def test_builtin_catalog_matches_order():
    catalog = builtin_scenarios()
    assert tuple(catalog) == SCENARIO_ORDER
    assert catalog["capacity-80"].total_capacity_fraction == 0.80
    assert catalog["capacity-40"].total_capacity_fraction == 0.40
    assert catalog["baseline"].supply_mass is None
    mix1 = catalog["supply-mix-1"].supply_mass
    mix2 = catalog["supply-mix-2"].supply_mass
    assert mix1["prod1"] == {"area1": 600.0, "area2": 1050.0}
    assert mix2["prod1"] == {"area1": 1050.0, "area2": 600.0}
    assert mix1["prod2"] == mix2["prod2"] == {"area1": 600.0, "area2": 1050.0}


def test_an_unstable_answer_comes_back_as_its_status(bundled):
    side = solve_system(bundled, "cost", UnstableSolver())
    assert side.status is Status.NUMERICALLY_UNSTABLE
    assert side.breakdown is None and not side.values


def test_throughput_of_unmodified_network(bundled):
    busiest, inflow, per_primary = derive_throughput(bundled)
    assert busiest == "prim3"
    assert inflow == pytest.approx(BASE_THROUGHPUT, abs=1e-9)
    assert set(per_primary) == set(bundled.primaries)
    assert inflow == max(per_primary.values())


def test_materialize_fraction_caps_use_unmodified_base(bundled):
    catalog = builtin_scenarios()
    tight = materialize(catalog["capacity-40"], bundled)
    assert tight.name.endswith(":capacity-40")
    assert set(tight.processing.total_capacity) == set(bundled.primaries)
    for cap in tight.processing.total_capacity.values():
        assert cap == pytest.approx(0.40 * BASE_THROUGHPUT, abs=1e-9)
    # the base instance is untouched by materialization
    assert not bundled.processing.total_capacity

    relaxed = materialize(catalog["capacity-80"], bundled)
    for cap in relaxed.processing.total_capacity.values():
        assert cap == pytest.approx(0.80 * BASE_THROUGHPUT, abs=1e-9)


def test_materialize_supply_mix(bundled):
    catalog = builtin_scenarios()
    mix1 = materialize(catalog["supply-mix-1"], bundled)
    mix2 = materialize(catalog["supply-mix-2"], bundled)
    assert mix2.supply.mass["prod1"] == {"area1": 1050.0, "area2": 600.0}
    assert mix2.supply.mass["prod2"] == {"area1": 600.0, "area2": 1050.0}
    # the two mixes move the same masses between areas, and the overall pool
    # matches the instance as given
    for product in bundled.products:
        assert mix1.total_supply(product) == mix2.total_supply(product)
    grand = sum(bundled.total_supply(i) for i in bundled.products)
    assert sum(mix2.total_supply(i) for i in mix2.products) == pytest.approx(grand)
    assert mix2.supply.trip_factor == bundled.supply.trip_factor


def test_spec_json_loading(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"name": "probe", "trip_factor": 0.5, '
                    '"total_capacity": {"prim1": 900.0}}', encoding="utf-8")
    spec = load_scenario_spec(path)
    assert spec.name == "probe"
    assert spec.trip_factor == 0.5
    assert spec.total_capacity == {"prim1": 900.0}
    probe = materialize(spec)
    assert set(probe.supply.trip_factor.values()) == {0.5}
    assert probe.processing.total_capacity == {"prim1": 900.0}


def test_calibration_hits_measured_total(bundled):
    result = calibrate_trip_factor(57978.0, bundled)
    assert result.achieved_total_cost == pytest.approx(57978.0, abs=1e-5)
    assert result.factor == pytest.approx(0.973505987919, rel=1e-9)
    assert result.iterations <= 5
    assert len(result.trail) == result.iterations
    assert result.trail[0][0] == 1.0  # starts from the instance as given


def test_calibration_steps_start_from_the_previous_root(bundled):
    """Each step re-solves the same matrix under new trip-leg costs from the
    previous step's root basis.  The answers match the cold ones."""
    networks = [(bundled, 57978.0)]
    for seed in range(8):
        instance = netgen_instance(5, 4, 3, seed)
        side = solve_system(instance, "cost")
        networks.append((instance, side.total_cost
                         + 0.05 * side.breakdown.transport_cost["residence-dropoff"]))
    pivots = {True: 0, False: 0}
    for instance, target in networks:
        results = {}
        for warm in (True, False):
            solver = RecordingSolver(warm)
            results[warm] = calibrate_trip_factor(target, instance, solver)
            pivots[warm] += sum(s.stats.simplex_iterations for _, s in solver.solves)
        warm, cold = results[True], results[False]
        assert warm.iterations == cold.iterations, instance.name
        assert warm.factor == pytest.approx(cold.factor, rel=1e-12), instance.name
        assert warm.achieved_total_cost == pytest.approx(cold.achieved_total_cost,
                                                         rel=1e-12), instance.name
    assert pivots[True] < pivots[False]


def test_calibration_raises_when_iterations_run_out(bundled):
    # one solve at factor 1.0 misses the target; the refitted factor is untried
    with pytest.raises(ModelError, match="within 1 iterations"):
        calibrate_trip_factor(57978.0, bundled, max_iterations=1)


@pytest.mark.parametrize("iterations", [0, -1])
def test_calibration_needs_at_least_one_iteration(iterations, bundled):
    with pytest.raises(ValueError, match=f"max_iterations must be at least 1, got {iterations}"):
        calibrate_trip_factor(57978.0, bundled, max_iterations=iterations)


@pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
def test_calibration_rejects_a_target_that_is_not_finite(target, bundled):
    """An infinite target would pass the convergence test at once, and a
    nan one fail later naming the factor; neither may reach a solve."""
    solver = RecordingSolver()
    with pytest.raises(ValueError, match=f"target total cost must be finite, got {target}"):
        calibrate_trip_factor(target, bundled, solver)
    assert solver.solves == []


def test_calibration_rejects_unreachable_target(bundled):
    # below the trip-free cost floor the factor would have to go negative
    with pytest.raises(Exception, match="floor"):
        calibrate_trip_factor(100.0, bundled)


def test_baseline_scenario_frozen_values(bundled):
    result = run_scenario("baseline", "cost", bundled)
    assert result.system.total_cost == pytest.approx(58899.99162041, abs=1e-6)
    assert result.system.revenue == pytest.approx(2474.39813306, abs=1e-6)
    assert result.system.offset == pytest.approx(4480.95672671, abs=1e-6)
    assert result.system.fixed_cost == pytest.approx(200.0, abs=1e-9)
    assert result.user.fixed_cost == pytest.approx(400.0, abs=1e-9)
    assert result.user.total_cost >= result.system.total_cost


def test_user_never_beats_system(bundled):
    for objective, metric in (("cost", "total_cost"), ("emission", "total_emission")):
        result = run_scenario("baseline", objective, bundled)
        assert getattr(result.user, metric) >= getattr(result.system, metric)


def test_tight_capacity_closes_the_gap(tight40):
    system = solve_system(tight40, "cost")
    user = solve_user(tight40, "cost")
    # with every primary throttled, decentralized choices coincide with the
    # planner's and both modes must open all five candidate facilities
    assert user.total_cost == pytest.approx(system.total_cost, abs=1e-6)
    assert system.fixed_cost == pytest.approx(500.0, abs=1e-9)
    assert user.fixed_cost == pytest.approx(500.0, abs=1e-9)


def test_supply_mixes_share_system_totals(bundled):
    catalog = builtin_scenarios()
    mix1 = solve_system(materialize(catalog["supply-mix-1"], bundled))
    mix2 = solve_system(materialize(catalog["supply-mix-2"], bundled))
    # trip legs bill per trip, not per kilogram, and the per-product totals
    # match, so the planner's optimum is identical across the two mixes
    assert mix1.total_cost == pytest.approx(mix2.total_cost, rel=1e-12)
    assert mix1.total_emission == pytest.approx(mix2.total_emission, rel=1e-12)


def test_run_all_order_and_rows(bundled, tmp_path):
    results = run_all("cost", bundled)
    assert [r.name for r in results] == list(SCENARIO_ORDER)

    records = comparison_rows(results)
    assert len(records) == 2 * len(SCENARIO_ORDER)
    assert records[0]["mode"] == "system"
    assert records[1]["mode"] == "user"
    assert all(r["objective"] == "cost" for r in records)

    path = tmp_path / "table.csv"
    write_comparison_csv(results, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ("scenario,objective,mode,fixed_cost,revenue,"
                        "total_cost,offset,total_emission,open_facilities")
    assert len(lines) == 1 + len(records)

    text = results[0].format_text()
    assert "baseline" in text and "system" in text and "user" in text
    assert f"{results[0].system.revenue:10.2f}" in text


def test_unknown_scenario_name_is_a_value_error(bundled):
    # the CLI prints a ValueError as its one ``error:`` line
    with pytest.raises(ValueError, match="unknown scenario 'bogus'; built-ins: baseline"):
        run_scenario("bogus", base=bundled)


def test_run_all_solves_the_base_throughput_once(bundled, two_cpus):
    """Five scenarios solved both ways (one system and two user phases
    each) plus one throughput solve shared by both capacity scenarios, on
    the embedded engine and on HiGHS, where each scenario overlaps them."""
    for backend in (EmbeddedSolver, ScipySolver):

        class Counting(backend):
            def __init__(self):
                super().__init__()
                self.solves = 0

            def solve(self, model):
                self.solves += 1
                return super().solve(model)

        solver = Counting()
        results = run_all("cost", bundled, solver)
        assert solver.solves == 16, backend.__name__
        one_by_one = [run_scenario(name, "cost", bundled, backend()) for name in SCENARIO_ORDER]
        assert comparison_rows(results) == comparison_rows(one_by_one), backend.__name__
        assert [r.instance for r in results] == [r.instance for r in one_by_one]


def test_run_all_shares_its_solver_roots(bundled):
    """A deterministic guard: one solver across the run lets the throughput
    solve reuse the baseline's identical root (22 pivots cold, 2 warm) and
    later phases start from earlier ones of their shape; on the bundled
    network the run takes 331 pivots against 392 cold, with the same nodes
    and the same tables."""
    runs = {}
    for warm in (True, False):
        solver = RecordingSolver(warm)
        runs[warm] = solver, run_all("cost", bundled, solver)
    (warm, warm_results), (cold, cold_results) = runs[True], runs[False]
    pivots = {solver: sum(s.stats.simplex_iterations for _, s in solver.solves)
              for solver in (warm, cold)}
    assert pivots[warm] <= 0.9 * pivots[cold], pivots
    assert ([s.stats.nodes for _, s in warm.solves]
            == [s.stats.nodes for _, s in cold.solves])
    assert ([r.format_text() for r in warm_results]
            == [r.format_text() for r in cold_results])
    throughput, = [s for model, s in warm.solves
                   if model.name == f"{bundled.name}:system:cost"]
    assert throughput.stats.simplex_iterations <= 5


def test_capacity_scenarios_only_tighten(bundled):
    baseline = run_scenario("baseline", "cost", bundled)
    tighter = run_scenario("capacity-80", "cost", bundled)
    tightest = run_scenario("capacity-40", "cost", bundled)
    assert tighter.system.total_cost >= baseline.system.total_cost - 1e-9
    assert tightest.system.total_cost >= tighter.system.total_cost - 1e-9
    # collected mass and resale fractions are scenario-invariant here
    assert tighter.system.revenue == pytest.approx(baseline.system.revenue, abs=1e-6)
    assert tightest.system.revenue == pytest.approx(baseline.system.revenue, abs=1e-6)


def test_solve_user_reports_exhausted_budget_without_raising(bundled):
    side = solve_user(bundled, "cost", EmbeddedSolver(node_budget=1))
    assert side.status is Status.BUDGET_EXCEEDED
    assert side.breakdown is None
    assert side.phases[-1][1].status is Status.BUDGET_EXCEEDED


def test_solves_return_their_phases(bundled):
    system = solve_system(bundled, "cost")
    user = solve_user(bundled, "cost")
    assert system.status is user.status is Status.OPTIMAL
    assert [a.model.name.split(":")[1] for a, _ in system.phases] == ["system"]
    assert [a.model.name.split(":")[1] for a, _ in user.phases] == ["user-I", "user-II"]
    # the merged user values hold both phases' variables
    for _, solution in user.phases:
        assert all(user.values[name] == value for name, value in solution.values.items())


def test_emission_cap_ends_each_phase_model(bundled):
    free = solve_user(bundled, "cost")
    phase2, _ = free.phases[1]
    held_back = phase2.stages.total_emission().evaluate(free.values)
    cap = EmissionCap(3, free.total_emission + 1.0, 1e-4, held_back)
    user = solve_user(bundled, "cost", cap=cap).require_optimal("capped user solve")
    system = solve_system(bundled, "cost", cap=cap).require_optimal("capped system solve")

    tag = RowTag("epsilon", ("3",))
    (a1, s1), (a2, s2) = user.phases
    row1, row2 = a1.model.rows[-1], a2.model.rows[-1]
    assert row1.tag == row2.tag == system.phases[0][0].model.rows[-1].tag == tag
    assert row1.rhs == cap.epsilon - held_back
    collected = row1.rhs - s1.values["EPS_SLACK[3]"]
    assert row2.rhs == pytest.approx(cap.epsilon - collected, abs=1e-6)
    downstream = row2.rhs - s2.values["EPS_SLACK[3]"]
    assert user.reach == pytest.approx(collected + max(held_back, downstream), abs=1e-6)
    assert a1.model.objective.terms["EPS_SLACK[3]"] == cap.theta
    assert system.reach == pytest.approx(system.total_emission, abs=1e-6)
    assert free.reach is None


def test_run_scenario_raises_on_infeasible_instance(bundled):
    throttled = with_total_capacity(bundled, {p: 1.0 for p in bundled.primaries})
    assert solve_system(throttled, "cost").status is Status.INFEASIBLE
    for name, solve in (("baseline", "whole-network cost solve"),
                        ("capacity-80", "throughput solve")):
        with pytest.raises(ModelError, match=f"^{solve} ended infeasible$") as excinfo:
            run_scenario(name, "cost", throttled)
        assert excinfo.value.status is Status.INFEASIBLE


def test_run_all_solves_a_failing_throughput_once(bundled, monkeypatch):
    """Both capacity scenarios fail with the throughput solve they derive
    their caps from, which is tried once, and the run goes on."""
    throttled = with_total_capacity(bundled, {p: 1.0 for p in bundled.primaries})
    calls = []
    derive = scenarios.derive_throughput
    monkeypatch.setattr(scenarios, "derive_throughput",
                        lambda *args: calls.append(1) or derive(*args))
    results = run_all("emission", throttled)
    assert len(calls) == 1
    assert [r.name for r in results] == list(SCENARIO_ORDER)
    assert all(r.status is Status.INFEASIBLE and r.user is None for r in results)
    for result in results:
        solve = ("throughput solve" if result.name.startswith("capacity")
                 else "whole-network emission solve")
        assert result.failure == f"{solve} ended infeasible"
    assert comparison_rows(results) == []


def test_run_all_records_a_failed_scenario_and_runs_the_rest():
    """On netgen 5x4x3 seed 0 the capacity-40 caps leave no feasible plan;
    run_scenario raises on it, and run_all keeps its status and goes on."""
    instance = netgen_instance(5, 4, 3, 0)
    results = run_all("cost", instance)
    assert [r.name for r in results] == list(SCENARIO_ORDER)
    failed = results[SCENARIO_ORDER.index("capacity-40")]
    assert failed.status is Status.INFEASIBLE and failed.user is None
    assert failed.failure == "whole-network cost solve ended infeasible"
    assert failed.format_text() == ("scenario capacity-40 (cost objective): "
                                    "whole-network cost solve ended infeasible")
    assert all(r.status is Status.OPTIMAL and r.failure is None
               for r in results if r is not failed)
    assert [(r["scenario"], r["mode"]) for r in comparison_rows(results)] == [
        (r.name, mode) for r in results if r is not failed for mode in ("system", "user")]
    with pytest.raises(ModelError, match="^whole-network cost solve ended infeasible$"):
        run_scenario("capacity-40", "cost", instance)


# ----------------------------------------------------------------------
# HiGHS scenarios that overlap the two programs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [None, *range(6)],
                         ids=lambda s: "bundled" if s is None else f"netgen-20x8x5-{s}")
def test_overlapped_highs_scenarios_print_the_sequential_results(seed, bundled, two_cpus,
                                                                 monkeypatch):
    """The same text and comparison rows with the overlap on and with one
    usable CPU, which turns it off."""
    instance = bundled if seed is None else netgen_instance(20, 8, 5, seed)
    cases = [(name, objective) for name in ("baseline", "capacity-80")
             for objective in ("cost", "emission")]
    overlapped = [solve_scenario(name, objective, instance, ScipySolver())
                  for name, objective in cases]
    monkeypatch.setattr(external, "_usable_cpus", lambda: 1)
    sequential = [solve_scenario(name, objective, instance, ScipySolver())
                  for name, objective in cases]
    assert all(r.failure is None for r in overlapped)
    assert [r.format_text() for r in overlapped] == [r.format_text() for r in sequential]
    assert comparison_rows(overlapped) == comparison_rows(sequential)


class OrderedHighs(ScipySolver):
    """HiGHS, logging each model it starts, each solve it returns and each
    started solve it drops unasked."""

    def __init__(self):
        super().__init__()
        self.events = []

    def start(self, model):
        self.events.append(("start", model.name))
        super().start(model)

    def solve(self, model):
        solution = super().solve(model)
        self.events.append(("solved", model.name))
        return solution

    def _drop(self):
        if self._started is not None:
            self.events.append(("dropped", self._started[0].name))
        super()._drop()


def test_a_scenario_starts_the_whole_network_model_and_takes_it_last(bundled, two_cpus,
                                                                      monkeypatch):
    """The whole-network model runs on the worker while both user phases
    are solved in the calling thread; its answer is asked for after them,
    and no started solve is dropped."""
    spy = MilpSpy(scipy.optimize.milp)
    monkeypatch.setattr(scipy.optimize, "milp", spy)
    solver = OrderedHighs()
    result = solve_scenario("baseline", "cost", bundled, solver)
    assert result.failure is None
    name = f"{bundled.name}:baseline"
    assert solver.events == [("start", f"{name}:system:cost"),
                             ("solved", f"{name}:user-I:cost"),
                             ("solved", f"{name}:user-II:cost"),
                             ("solved", f"{name}:system:cost")]
    assert sorted(map(on_highs_worker, spy.threads)) == [False, False, True]
    assert spy.running == 0 and solver._worker is None and solver._started is None


def test_an_infeasible_whole_network_side_drops_the_two_phase_one(two_cpus, tmp_path,
                                                                   capsys):
    """On netgen 5x4x3 seed 0 the capacity-40 caps leave no whole-network
    plan: the two-phase side solved meanwhile is dropped, the command exits 2
    with the one line it prints without the overlap, and no worker is left."""
    instance = netgen_instance(5, 4, 3, 0)
    solver = OrderedHighs()
    result = solve_scenario("capacity-40", "cost", instance, solver)
    assert result.status is Status.INFEASIBLE and result.user is None
    assert result.failure == "whole-network cost solve ended infeasible"
    name = f"{instance.name}:capacity-40"
    assert solver.events == [("solved", f"{instance.name}:system:cost"),  # the throughput
                             ("start", f"{name}:system:cost"),
                             ("solved", f"{name}:user-I:cost"),
                             ("solved", f"{name}:user-II:cost"),
                             ("solved", f"{name}:system:cost")]
    path = tmp_path / "netgen.json"
    save_instance(instance, path)
    assert main(["scenario", "--name", "capacity-40", "--solver", "scipy",
                 "--instance", str(path)]) == 2
    assert capsys.readouterr().out == ("scenario capacity-40 (cost objective): "
                                       "whole-network cost solve ended infeasible\n\n")
    assert not any(on_highs_worker(t.name) for t in threading.enumerate())
