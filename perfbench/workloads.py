"""Workloads, flows, the closed loop and the metrics of the benchmark.

Importing this module imports numpy, scipy.optimize and rlnd; `run.py` times
that import as part of set-up.

A workload is a fixed set of flows, a pass, run over and over in whole
passes; each pass runs its flows in an order drawn from the seed.  The
paper study's pass is its twelve flows on the bundled network.  A ladder's
pass runs over a fixed ladder of generated networks (generator seeds
0, 1, ... of its tier, see LADDERS), so every run times the same work and the
figures compare the program rather than the networks a seed happened to
draw.  `<kind>_s` averages over the kind's variants (say
`pareto --model system` and `--model user`) the interquartile mean of each
variant's flow times; `solve_tail_s` is a fixed percentile of solve flows;
`flows_per_s` is flows over the seconds they took, so every slow flow counts.

The speed of a shared machine drifts by 20% and more over tens of seconds,
and a flow slows with it.  A fixed pure-Python loop, the probe, runs before
and after every flow; each flow's time is scaled by PROBE_REF_S over the
median of the probes of the flows around it, which gives its time at the
probe's reference speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import checker
import netgen
from tracer import Tracer

from rlnd import builders, cli, external, multiobjective, scenarios
from rlnd.domain import validate, with_trip_factor
from rlnd.io import instance_from_dict, load_bundled_instance, save_instance
from rlnd.milp import EmbeddedSolver, MilpModel, Solution, Status

COST_TARGET = 57978.0  # the paper's measured annual total
PAPER_REL = 0.01       # tolerance of the paper's reference totals
EXACT_REL = 1e-6       # embedded answers, checked against HiGHS at a zero gap
HIGHS_REL = 2e-4       # HiGHS stops at a 1e-4 relative MIP gap by default

# Known defects of the program under test (README.md).  A failure is marked
# known only where the seed commit shows that defect; it then counts in
# `failed` but leaves `correct` true.  Any other failure makes `correct` false.
KNOWN = "[known: {}] "
DEFECT = "embedded/HiGHS disagreement"         # ladder-embedded only
OUTSIDE_TOL = "HiGHS value outside FEASIBILITY_TOL"  # ladder-highs, < 10x the tolerance
OUTSIDE_TOL_TIMES = 10.0
EMPTY_FRONT = "user sweep skipped every grid point"  # user fronts of generated networks

# acceptance totals of the calibrated bundled network (tests/test_acceptance.py)
PAPER_TABLES = {
    "cost": {("baseline", "system"): COST_TARGET, ("baseline", "user"): 59493.0,
             ("capacity-80", "system"): 58257.0, ("capacity-40", "system"): 62485.0,
             ("capacity-40", "user"): 62485.0},
    "emission": {("baseline", "system"): 50413.0, ("baseline", "user"): 54461.0,
                 ("capacity-80", "system"): 51737.0, ("capacity-40", "system"): 58238.0},
}
PAPER_SOLVE = {("system", "cost"): COST_TARGET, ("user", "cost"): 59493.0,
               ("system", "emission"): 50413.0, ("user", "emission"): 54461.0}
PAPER_ROBUST_NOMINAL = 62485.0  # capacity-40 system cost: the gamma-0 counterpart

# tier (areas, dropoffs, primaries) and number of networks of each ladder
LADDERS = {"ladder-embedded": ((5, 4, 3), 8), "ladder-highs": ((20, 8, 5), 6)}

# the probe's loop count, and its time at the reference speed (about its
# median on the machine of baseline.json)
PROBE_LOOPS = 40_000
PROBE_REF_S = 0.0035
PROBE_WINDOW = 4  # flows on each side whose probes set a flow's speed

KINDS = ("solve", "pareto", "scenario", "robust", "calibrate")
TAIL_PERCENTILE = 95
BUILDERS = ("build_system_model", "build_user_model_i", "build_user_model_ii")
REPORTS = ("breakdown_from_solution", "collected_quantities", "compose_user_totals",
           "effective_opens")


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes: the machine's speed now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def at_reference_speed(seconds: float, probes: list[float]) -> float:
    return seconds * PROBE_REF_S / statistics.median(probes)


def known(defect: str, text: str) -> str:
    return KNOWN.format(defect) + text


def is_known(problem: str) -> bool:
    return problem.startswith(KNOWN.split("{", 1)[0])


# ----------------------------------------------------------------------
# flows and their outcomes
# ----------------------------------------------------------------------

@dataclass
class Flow:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[["Outcome"], list[str]]
    cache_key: str | None = None  # deterministic flows: differential once per key
    out_path: Path | None = None
    variant: str = ""  # the flow without its instance, e.g. "pareto --model user"
    network: str = ""  # the instance it runs on


@dataclass
class Outcome:
    flow: Flow
    result: object
    stdout: str
    seconds: float
    solves: list[tuple[str, MilpModel, Solution]]
    built: dict[int, object]
    fronts: list[int] = field(default_factory=list)  # points of each sweep
    robustified: list[tuple[int, int]] = field(default_factory=list)  # rows, vars added
    traced: int | None = None  # the tracer's flow id, in a traced execution
    probes: tuple[float, float] = (0.0, 0.0)  # speed probes just before and after
    adjusted: float = 0.0  # `seconds` at the probe's reference speed
    problems: list[str] = field(default_factory=list)
    front: list[dict[str, float]] = field(default_factory=list)

    @property
    def exit_code(self) -> int | None:
        return self.result if isinstance(self.result, int) else None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


class Recorder:
    """Keeps what a flow built and solved, so its answers can be checked.

    Installed in both runs: a solver subclass appends each (model, solution)
    and the builders' import sites keep each ModelArtifacts by model.  The
    tracer, when on, adds spans around the same calls.
    """

    def __init__(self) -> None:
        self.solves: list[tuple[str, MilpModel, Solution]] = []
        self.built: dict[int, object] = {}
        self.fronts: list[int] = []
        self.robustified: list[tuple[int, int]] = []
        self.tracer: Tracer | None = None

    def solver_class(self, base: type, layer: str) -> type:
        recorder = self

        class Recording(base):
            def solve(self, model: MilpModel) -> Solution:
                tracer = recorder.tracer
                span = tracer.open(f"{layer}.solve") if tracer else None
                try:
                    solution = super().solve(model)
                finally:
                    if span is not None:
                        tracer.close(span)
                recorder.solves.append((layer, model, solution))
                return solution

        Recording.__name__ = f"Recording{base.__name__}"
        return Recording

    def keep_built(self, fn: Callable) -> Callable:
        def kept(*args, **kwargs):
            artifacts = fn(*args, **kwargs)
            self.built[id(artifacts.model)] = artifacts
            return artifacts
        return kept

    def keep_robust(self, fn: Callable) -> Callable:
        def kept(artifacts, spec):
            out = fn(artifacts, spec)
            self.built[id(out.model)] = out
            self.robustified.append((len(out.model.rows) - len(artifacts.model.rows),
                                     len(out.model.variables) - len(artifacts.model.variables)))
            return out
        return kept

    def keep_front(self, fn: Callable) -> Callable:
        def kept(*args, **kwargs):
            front = fn(*args, **kwargs)
            self.fronts.append(len(front))
            return front
        return kept

    def install(self) -> None:
        for module in (cli, scenarios, multiobjective):
            for name in BUILDERS:
                setattr(module, name, self.keep_built(getattr(module, name)))
        cli.robustify_artifacts = self.keep_robust(cli.robustify_artifacts)
        cli.epsilon_sweep = self.keep_front(cli.epsilon_sweep)
        cli.EmbeddedSolver = self.solver_class(EmbeddedSolver, "milp")
        external.ScipySolver = self.solver_class(external.ScipySolver, "external")

    def clear(self) -> None:
        self.solves, self.built, self.fronts, self.robustified = [], {}, [], []


def _trace_points(tracer: Tracer) -> None:
    """Spans around each layer's public functions, at their import sites."""
    for name in ("load_instance", "load_bundled_instance"):
        tracer.patch(cli, name, "io.load")
    tracer.patch(builders, "validate", "domain.validate")
    for module in (cli, scenarios, multiobjective):
        for name in BUILDERS:
            tracer.patch(module, name, "builders.build")
        for name in REPORTS:
            if hasattr(module, name):
                tracer.patch(module, name, "objectives.report")
    tracer.patch(cli, "robustify_artifacts", "robust.robustify")
    tracer.patch(cli, "epsilon_sweep", "multiobjective.sweep")
    for family in (multiobjective.SystemEpsilonFamily, multiobjective.UserEpsilonFamily):
        tracer.patch(family, "solve_point", "multiobjective.grid_solve")
    tracer.patch(scenarios, "materialize", "scenarios.materialize")
    tracer.patch(scenarios, "derive_throughput", "scenarios.throughput")


# ----------------------------------------------------------------------
# output parsing
# ----------------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _breakdown_totals(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as f:
        return {row[0]: float(row[2]) for row in csv.reader(f)
                if row and row[1] == "all"}


def _printed_objective(stdout: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith("status: optimal  objective:"):
            return float(line.split()[-1])
    return None


def _near(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 started: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.recorder = Recorder()
        self.recorder.install()
        self.embedded = cli.EmbeddedSolver
        self.highs = external.ScipySolver
        self.on_highs = workload == "ladder-highs"
        self.rel = HIGHS_REL if self.on_highs else EXACT_REL
        # flow key -> answers of its first run, their problems, wrong embedded ones
        self.answer_cache: dict[str, tuple[list, list[str], int]] = {}
        self.robust_ramps: dict[str, dict[float, float]] = {}
        self.calibration_targets: dict[Path, float] = {}
        self.agree = [0, 0]  # embedded answers matching the reference, checked
        self.executed = 0
        work.mkdir(parents=True, exist_ok=True)
        self._out = 0
        if workload == "paper-study":
            self._setup_bundled()
        else:
            self._setup_ladder(*LADDERS[workload])
        self.setup_raw_s = time.perf_counter() - started
        self.setup_s = at_reference_speed(self.setup_raw_s,
                                          [speed_probe() for _ in range(2 * PROBE_WINDOW + 1)])

    # -- set-up ----------------------------------------------------------

    def _warm_up(self, instance) -> None:
        """First HiGHS call of the process, and the first embedded one if the
        workload uses that engine."""
        model = builders.build_system_model(instance, "cost").model
        if not self.on_highs:
            self.embedded().solve(model)
        started = time.perf_counter()
        self.highs().solve(model)
        self.first_highs_s = time.perf_counter() - started
        self.recorder.clear()

    def _write(self, instance_dict_or_instance, name: str) -> Path:
        path = self.work / f"{name}.json"
        if isinstance(instance_dict_or_instance, dict):
            path.write_text(json.dumps(instance_dict_or_instance), encoding="utf-8")
        else:
            save_instance(instance_dict_or_instance, path)
        return path

    def _setup_bundled(self) -> None:
        """Calibrated bundled network and its capacity-40 variant."""
        bundled = load_bundled_instance()
        self.bundled = bundled
        self._warm_up(bundled)
        calibration = scenarios.calibrate_trip_factor(COST_TARGET, bundled, self.embedded())
        calibrated = with_trip_factor(bundled, calibration.factor)
        tight = scenarios.materialize(scenarios.builtin_scenarios()["capacity-40"],
                                      calibrated, self.embedded())
        self.calibrated_path = self._write(calibrated, "calibrated")
        self.tight_path = self._write(tight, "capacity-40")
        self.recorder.clear()

    def _setup_ladder(self, tier: tuple[int, int, int], size: int) -> None:
        self.networks = []
        for k in range(size):
            data = netgen.generate(*tier, seed=k)
            validate(instance_from_dict(data)).assert_valid()
            self.networks.append(self._write(data, data["name"]))
        self._warm_up(instance_from_dict(netgen.generate(*tier, seed=size)))

    # -- flows -----------------------------------------------------------

    def _cli_flow(self, kind: str, argv: list[str],
                  check: Callable[[Outcome], list[str]], output: str | None = None) -> Flow:
        label = " ".join(Path(a).stem if "/" in a else a for a in argv)
        k = argv.index("--instance")
        variant = " ".join(argv[:k] + argv[k + 2:])
        out_path = None
        if output is not None:
            self._out += 1
            out_path = self.work / f"out{self._out % 64}.{output}"
            argv = argv + ["--output", str(out_path)]
        return Flow(kind, label, lambda: cli.main(argv), check, label, out_path, variant,
                    Path(argv[k + 1]).stem)

    def _paper_flows(self) -> list[Flow]:
        cal = str(self.calibrated_path)
        tight = str(self.tight_path)
        flows = [Flow("calibrate", "calibrate bundled",
                      lambda: scenarios.calibrate_trip_factor(
                          COST_TARGET, self.bundled, self.embedded()),
                      self._paper_check(self._check_paper_calibration), "calibrate bundled",
                      variant="calibrate", network="bundled")]
        for objective in ("cost", "emission"):
            flows.append(self._cli_flow(
                "scenario", ["scenario", "--name", "all", "--objective", objective,
                             "--instance", cal],
                self._paper_check(self._check_paper_scenarios(objective)), "csv"))
        for model in ("system", "user"):
            for objective in ("cost", "emission"):
                flows.append(self._cli_flow(
                    "solve", ["solve", "--model", model, "--objective", objective,
                              "--instance", cal],
                    self._paper_check(self._check_paper_solve(model, objective)), "csv"))
        for model in ("system", "user"):
            flows.append(self._cli_flow(
                "pareto", ["pareto", "--model", model, "--points", "10", "--instance", cal],
                self._paper_check(self._check_paper_front(model)), "csv"))
        for gamma in ("0", "1", "2"):
            flows.append(self._cli_flow(
                "robust", ["robust", "--gamma", gamma, "--instance", tight],
                self._paper_check(self._check_paper_robust(float(gamma)))))
        return flows

    def _ladder_flows(self) -> list[Flow]:
        """Every solve variant on every network of the ladder.  On HiGHS each
        network also runs the robust budgets 0, 1, 2, a calibration, and the
        (index mod 2)-th variant of pareto and of scenario.  On the embedded
        engine the other kinds run on the first network only, every variant
        twice, so that a run that is one pass times each more than once."""
        solver = ["--solver", "scipy"] if self.on_highs else []
        flows = []
        for n, path in enumerate(self.networks):
            inst = ["--instance", str(path)] + solver
            flows += [self._cli_flow("solve", ["solve", "--model", model, "--objective",
                                               objective] + inst,
                                     self._ladder_check(), "csv")
                      for model in ("system", "user") for objective in ("cost", "emission")]
            if self.on_highs:
                models, names, repeat = [("system", "user")[n % 2]], \
                    [("baseline", "capacity-80")[n % 2]], 1
            elif n == 0:
                models, names, repeat = ["system", "user"], ["baseline", "capacity-80"], 2
            else:
                continue
            kinds = [self._cli_flow("pareto", ["pareto", "--model", model, "--points", "10"]
                                    + inst, self._ladder_check(self._check_front(model)), "csv")
                     for model in models]
            kinds += [self._cli_flow("scenario", ["scenario", "--name", name] + inst,
                                     self._ladder_check(self._check_scenario), "csv")
                      for name in names]
            kinds += [self._cli_flow("robust", ["robust", "--gamma", str(gamma)] + inst,
                                     self._ladder_check(self._check_robust(gamma)))
                      for gamma in (0, 1, 2)]
            kinds.append(Flow("calibrate", f"calibrate {path.stem}",
                              self._ladder_calibration(path),
                              self._ladder_check(self._check_calibration(path)),
                              f"calibrate {path.stem}", variant="calibrate", network=path.stem))
            flows += repeat * kinds
        return flows

    def _ladder_calibration(self, path: Path) -> Callable[[], object]:
        """Calibrate to the factor-1 total plus 5% of its trip leg.

        The target comes from HiGHS, outside the timed flow, on first use.
        A small step keeps the optimal routing, so calibration takes two
        solves on most networks, as it does on the bundled one."""
        instance = instance_from_dict(json.loads(path.read_text(encoding="utf-8")))
        solver = self.highs if self.on_highs else self.embedded

        def run():
            return scenarios.calibrate_trip_factor(self.calibration_targets[path],
                                                   instance, solver())

        def prepare():
            if path not in self.calibration_targets:
                side = scenarios.solve_system(instance, "cost", self.highs())
                leg = side.breakdown.transport_cost["residence-dropoff"]
                self.calibration_targets[path] = side.total_cost + 0.05 * leg
                self.recorder.clear()
        run.prepare = prepare
        return run

    def passes(self) -> Iterator[list[Flow]]:
        """Endless passes over the workload's flows, each in a seeded order."""
        rng = random.Random(self.seed)
        while True:
            flows = self._paper_flows() if self.workload == "paper-study" \
                else self._ladder_flows()
            yield rng.sample(flows, len(flows))

    # -- checks ----------------------------------------------------------

    def _engine_problems(self, outcome: Outcome) -> list[str]:
        """The engine's answers: embedded ones against HiGHS, HiGHS ones by
        certificate.  A flow repeated on the same input must give the same
        answers as the first time; the check of those is reused."""
        key = outcome.flow.cache_key
        answers = [(s.status, s.objective, s.values) for _, _, s in outcome.solves]
        embedded = sum(1 for layer, _, _ in outcome.solves if layer == "milp")
        self.agree[1] += embedded
        cached = self.answer_cache.get(key)
        if cached is not None and cached[0] == answers:
            problems, wrong = cached[1], cached[2]
        elif cached is not None and not self.on_highs:
            return ["embedded answers differ from the first run of this flow"]
        elif self.on_highs:
            problems, wrong = self._certify(outcome), 0
        else:
            problems = self._differential(outcome)
            wrong = len(problems)
        self.answer_cache[key] = (answers, problems, wrong)
        self.agree[0] += embedded - wrong
        return list(problems)

    def _differential(self, outcome: Outcome) -> list[str]:
        """Every embedded answer against the HiGHS reference of its model.
        A disagreement is a known defect on ladder-embedded only."""
        problems = []
        for layer, model, solution in outcome.solves:
            if layer != "milp":
                continue
            found = checker.compare_with_reference(solution, checker.reference_solve(model))
            if found:
                text = f"{model.name}: {found[0]}"
                problems.append(known(DEFECT, text) if self.workload == "ladder-embedded"
                                else f"{DEFECT}: {text}")
        return problems

    def _certify(self, outcome: Outcome) -> list[str]:
        """A certificate of every HiGHS answer.  A value outside the
        tolerance by less than OUTSIDE_TOL_TIMES of it is the known defect."""
        problems = []
        for layer, model, solution in outcome.solves:
            if solution.status is Status.INFEASIBLE:
                reference = checker.reference_solve(model)
                if reference.status is not Status.INFEASIBLE:
                    problems.append(f"{model.name}: infeasible, reference "
                                    f"{reference.status.value}")
                continue
            artifacts = outcome.built.get(id(model))
            if artifacts is None:
                problems.append(f"{model.name}: built outside the recorded builders")
                continue
            for v in checker.certificate(model, solution, artifacts.stages):
                text = f"{model.name}: {v.text} ({v.times_tol:.3g} x tolerance)"
                problems.append(known(OUTSIDE_TOL, text) if v.times_tol < OUTSIDE_TOL_TIMES
                                else text)
        return problems

    def _exit_ok(self, outcome: Outcome) -> list[str]:
        if outcome.exit_code == 0 or outcome.flow.kind == "calibrate":
            return []
        last = outcome.solves[-1][2] if outcome.solves else None
        if last is not None and last.status is Status.INFEASIBLE:
            return []  # proven infeasible; the engine checks compare the status
        return [f"exit {outcome.exit_code}: {outcome.stdout.strip().splitlines()[-1:]}"]

    def _paper_check(self, values: Callable[[Outcome], list[str]]
                     ) -> Callable[[Outcome], list[str]]:
        """Every check of a paper-study flow; no failure there is known."""
        def check(outcome: Outcome) -> list[str]:
            return self._engine_problems(outcome) + self._exit_ok(outcome) + values(outcome)
        return check

    def _ladder_check(self, then: Callable[[Outcome], list[str]] | None = None
                      ) -> Callable[[Outcome], list[str]]:
        """The engine's answers first.  On the embedded engine a wrong answer
        explains whatever the flow did next, so the flow's own checks run
        only when the differential passes; on HiGHS they always run."""
        def check(outcome: Outcome) -> list[str]:
            problems = self._engine_problems(outcome)
            if problems and not self.on_highs:
                return problems
            problems += self._exit_ok(outcome)
            if then is not None and outcome.exit_code in (0, None):
                problems += then(outcome)
            return problems
        return check

    def _check_paper_calibration(self, outcome: Outcome) -> list[str]:
        result, problems = outcome.result, []
        if abs(result.achieved_total_cost - COST_TARGET) > 1e-5:
            problems.append(f"calibrated total {result.achieved_total_cost!r}")
        if result.iterations >= 25:
            problems.append("calibration used every iteration")
        return problems

    def _check_paper_scenarios(self, objective: str) -> Callable[[Outcome], list[str]]:
        metric = "total_cost" if objective == "cost" else "total_emission"

        def tables(outcome: Outcome) -> list[str]:
            problems = []
            table = {(r["scenario"], r["mode"]): r for r in _csv_rows(outcome.flow.out_path)}
            value = lambda key, column=metric: float(table[key][column])
            for key, want in PAPER_TABLES[objective].items():
                if not _near(value(key), want, PAPER_REL):
                    problems.append(f"{key} {metric} {value(key)} vs {want}")
            for name in scenarios.SCENARIO_ORDER:
                for column in (metric, "fixed_cost"):
                    if value((name, "user"), column) < value((name, "system"), column) - 1e-6:
                        problems.append(f"{name}: user {column} below system")
            if objective == "cost":
                base = value(("baseline", "system"))
                for name in ("capacity-80", "capacity-40"):
                    if value((name, "system")) < base - 1e-6:
                        problems.append(f"{name} undercuts the baseline")
                revenue = [value((n, "system"), "revenue")
                           for n in ("baseline", "capacity-80", "capacity-40")]
                if max(revenue) - min(revenue) > 1e-5:
                    problems.append("capped runs change the revenue")
                if abs(value(("capacity-40", "user")) - value(("capacity-40", "system"))) > 2e-6:
                    problems.append("capacity-40 modes differ")
            return problems
        return tables

    def _check_paper_solve(self, model: str, objective: str) -> Callable[[Outcome], list[str]]:
        metric = "total_cost" if objective == "cost" else "total_emission"
        want = PAPER_SOLVE[(model, objective)]

        def total(outcome: Outcome) -> list[str]:
            got = _breakdown_totals(outcome.flow.out_path)[metric]
            return [] if _near(got, want, PAPER_REL) else [f"{model} {metric} {got} vs {want}"]
        return total

    def _front_problems(self, outcome: Outcome, empty_known: bool) -> list[str]:
        points = _csv_rows(outcome.flow.out_path)
        if not points:
            return [known(EMPTY_FRONT, "empty front") if empty_known else "empty front"]
        points = [{k: float(v) for k, v in r.items()} for r in points]
        problems = []
        for p in points:
            if p["total_emission"] > p["epsilon"] + self.rel * max(1.0, abs(p["epsilon"])):
                problems.append(f"point v={p['v']:g} exceeds its emission cap")
            for q in points:
                if (q is not p
                        and q["total_cost"] < p["total_cost"] - self.rel * abs(p["total_cost"])
                        and q["total_emission"] < p["total_emission"]
                        - self.rel * abs(p["total_emission"])):
                    problems.append(f"point v={p['v']:g} is dominated")
        outcome.front = points
        return problems

    def _check_paper_front(self, model: str) -> Callable[[Outcome], list[str]]:
        def anchors(outcome: Outcome) -> list[str]:
            problems = self._front_problems(outcome, empty_known=False)
            for objective in ("cost", "emission") if outcome.front else ():
                best = min(p[f"total_{objective}"] for p in outcome.front)
                if not _near(best, PAPER_SOLVE[(model, objective)], PAPER_REL):
                    problems.append(f"front {objective} {best}")
            return problems
        return anchors

    def _record_ramp(self, outcome: Outcome, gamma: float) -> float | None:
        got = _printed_objective(outcome.stdout)
        if got is not None:
            self.robust_ramps.setdefault(outcome.flow.network, {})[gamma] = got
        return got

    def _check_paper_robust(self, gamma: float) -> Callable[[Outcome], list[str]]:
        def nominal(outcome: Outcome) -> list[str]:
            got = self._record_ramp(outcome, gamma)
            if got is None:
                return ["no objective printed"]
            if gamma == 0.0 and not _near(got, PAPER_ROBUST_NOMINAL, PAPER_REL):
                return [f"gamma 0 objective {got} vs {PAPER_ROBUST_NOMINAL}"]
            return []
        return nominal

    def _check_front(self, model: str) -> Callable[[Outcome], list[str]]:
        return lambda outcome: self._front_problems(outcome, empty_known=model == "user")

    def _check_scenario(self, outcome: Outcome) -> list[str]:
        table = {r["mode"]: r for r in _csv_rows(outcome.flow.out_path)}
        if not (float(table["user"]["total_cost"])
                >= float(table["system"]["total_cost"]) * (1.0 - self.rel)):
            return ["user plan undercuts the system optimum"]
        return []

    def _check_robust(self, gamma: float) -> Callable[[Outcome], list[str]]:
        def ramp(outcome: Outcome) -> list[str]:
            if outcome.exit_code == 0 and self._record_ramp(outcome, gamma) is None:
                return ["no objective printed"]
            return []
        return ramp

    def _check_calibration(self, path: Path) -> Callable[[Outcome], list[str]]:
        def check(outcome: Outcome) -> list[str]:
            result, problems = outcome.result, []
            target = self.calibration_targets[path]
            if not _near(result.achieved_total_cost, target, 1e-9):
                problems.append(f"calibrated total {result.achieved_total_cost!r} "
                                f"vs target {target!r}")
            if result.iterations >= 25:
                problems.append("calibration used every iteration")
            return problems
        return check

    # -- the loop --------------------------------------------------------

    def execute(self, flow: Flow, tracer: Tracer | None = None) -> Outcome:
        """Run one flow (traced if a tracer is given), then check it."""
        prepare = getattr(flow.run, "prepare", None)
        if prepare is not None:
            prepare()
        if flow.out_path is not None:
            flow.out_path.unlink(missing_ok=True)
        self.recorder.clear()
        self.executed += 1
        if tracer is not None:
            tracer.flow = self.executed
            _trace_points(tracer)
            self.recorder.tracer = tracer
        stdout = io.StringIO()
        span = None
        probe_s = speed_probe()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                if tracer is not None:
                    span = tracer.open("cli.main" if flow.kind != "calibrate"
                                       else "scenarios.calibrate")
                try:
                    result = flow.run()
                finally:
                    if span is not None:
                        tracer.close(span)
            error = None
        except Exception:  # a flow that raises is a failed flow; keep going
            result, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - started
        probes = (probe_s, speed_probe())
        if tracer is not None:
            self.recorder.tracer = None
            tracer.unpatch()
        rec = self.recorder
        outcome = Outcome(flow, result, stdout.getvalue(), seconds, rec.solves, rec.built,
                          rec.fronts, rec.robustified, self.executed if tracer else None,
                          probes)
        if error:
            outcome.problems = [f"raised: {error}"]
        else:
            try:
                outcome.problems = flow.check(outcome)
            except Exception:
                outcome.problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        self.recorder.clear()
        if tracer is None:  # only the traced executions are read afterwards
            outcome.solves, outcome.built = [], {}
        return outcome

    def loop(self, seconds: float, tracer: Tracer | None = None
             ) -> tuple[list[Outcome], list[Outcome]]:
        """Whole passes until the flows have taken about `seconds`: the loop
        stops after the pass that ends nearest to it.

        With a tracer, each flow runs twice in a row, untraced and traced
        (the order alternates), and the second list holds the traced runs."""
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        busy = 0.0
        rounds = 0
        for flows in self.passes():
            for k, flow in enumerate(flows):
                if tracer is None:
                    plain.append(self.execute(flow))
                    busy += plain[-1].seconds
                    continue
                for use in ((None, tracer) if k % 2 == 0 else (tracer, None)):
                    outcome = self.execute(flow, use)
                    (plain if use is None else traced).append(outcome)
                    busy += outcome.seconds
            rounds += 1
            if busy + busy / rounds / 2 >= seconds:
                break
        return plain, traced

    # -- metrics ---------------------------------------------------------

    def _run_checks(self, outcomes: list[Outcome]) -> tuple[bool, int, list[str]]:
        notes = []
        unexpected = False
        failed = 0
        for o in outcomes:
            if o.problems:
                failed += 1
                unexpected |= not all(is_known(p) for p in o.problems)
                notes.append(f"FAILED {o.flow.label}: {o.problems[0]}")
        for network, ramp in self.robust_ramps.items():
            values = [ramp[g] for g in sorted(ramp)]
            if not checker.nondecreasing(values, self.rel):
                unexpected = True
                notes.append(f"robust ramp on {network} decreases: {values}")
        return not unexpected, failed, notes

    def run(self) -> Result:
        outcomes, _ = self.loop(self.seconds)
        correct, failed, notes = self._run_checks(outcomes)
        for k, o in enumerate(outcomes):
            around = outcomes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
            o.adjusted = at_reference_speed(o.seconds, [p for a in around for p in a.probes])
        metrics: dict[str, tuple[float, str]] = {}
        for kind in KINDS:
            metrics[f"{kind}_s"] = (kind_time(outcomes, kind, lambda o: o.adjusted), "s")
        ranked = sorted(o.adjusted for o in outcomes if o.flow.kind == "solve")
        rank = math.ceil(TAIL_PERCENTILE / 100 * len(ranked))
        metrics["solve_tail_s"] = (ranked[rank - 1], "s")
        notes.append(f"solve_tail_s: p{TAIL_PERCENTILE} of {len(ranked)} solve flows, "
                     f"rank {rank} ({len(ranked) - rank} beyond it)")
        busy = sum(o.adjusted for o in outcomes)
        metrics["flows_per_s"] = (len(outcomes) / busy, "1/s")
        metrics["ok_share"] = ((len(outcomes) - failed) / len(outcomes), "share")
        notes.append(f"{len(outcomes)} flows in {sum(o.seconds for o in outcomes):.2f} s "
                     f"({busy:.2f} s at the reference speed; probe median "
                     f"{1e3 * statistics.median(p for o in outcomes for p in o.probes):.3f} ms), "
                     f"{failed} failed")
        return Result(correct, len(outcomes), failed, metrics, notes)

    def run_traced(self, out_dir: Path) -> Result:
        tracer = Tracer()
        plain, traced = self.loop(self.seconds, tracer)
        outcomes = plain + traced
        correct, failed, notes = self._run_checks(outcomes)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{self.workload}-seed{self.seed}.jsonl")
        metrics = _layer_metrics(tracer, traced, self.agree)
        metrics["external.first_call_s"] = (self.first_highs_s, "s")
        ratios = [t.seconds / p.seconds for p, t in zip(plain, traced)]
        metrics["trace.overhead_share"] = (statistics.median(ratios) - 1.0, "share")
        notes.append(f"{len(traced)} flows run untraced in "
                     f"{sum(o.seconds for o in plain):.2f} s and traced in "
                     f"{sum(o.seconds for o in traced):.2f} s, in pairs")
        return Result(correct, len(outcomes), failed, metrics, notes)


def _middle_mean(values: list[float]) -> float:
    """Mean of the middle half (the interquartile mean): robust to outliers
    like the median, but it moves smoothly when the machine's speed shifts
    during a run, where the median jumps between a fast and a slow mode."""
    ranked = sorted(values)
    cut = len(ranked) // 4
    return statistics.fmean(ranked[cut:len(ranked) - cut])


def kind_time(outcomes: list[Outcome], kind: str, value: Callable[[Outcome], float]
              ) -> float:
    """The interquartile mean of `value` per variant of `kind`, averaged over
    the variants."""
    variants: dict[str, list[float]] = {}
    for o in outcomes:
        if o.flow.kind == kind:
            variants.setdefault(o.flow.variant, []).append(value(o))
    return statistics.fmean(_middle_mean(v) for v in variants.values())


def _layer_metrics(tracer: Tracer, traced: list[Outcome], agree: list[int]
                   ) -> dict[str, tuple[float, str]]:
    flows = max(1, len(traced))
    totals = tracer.totals()
    span = lambda name, key: totals.get(name, {}).get(key, 0.0)
    per_flow = lambda value: value / flows
    metrics: dict[str, tuple[float, str]] = {}

    stats = {"milp": [0, 0], "external": [0, 0]}  # nodes, pivots
    for o in traced:
        for layer, _, solution in o.solves:
            stats[layer][0] += solution.stats.nodes
            stats[layer][1] += solution.stats.simplex_iterations
    metrics["milp.solve_s"] = (per_flow(span("milp.solve", "total")), "s")
    metrics["milp.solve_calls"] = (per_flow(span("milp.solve", "calls")), "count")
    metrics["milp.nodes"] = (per_flow(stats["milp"][0]), "count")
    metrics["milp.pivots"] = (per_flow(stats["milp"][1]), "count")
    metrics["milp.pivots_per_node"] = (stats["milp"][1] / max(1, stats["milp"][0]), "count")
    # the engine's share of a solve flow, by the statistic of solve_s
    milp_by_flow = tracer.by_flow("milp.solve")
    solves = [o for o in traced if o.flow.kind == "solve"]
    metrics["milp.solve_share"] = (
        kind_time(solves, "solve", lambda o: milp_by_flow.get(o.traced, 0.0))
        / kind_time(solves, "solve", lambda o: o.seconds) if solves else 0.0, "share")
    metrics["milp.agree_ratio"] = (agree[0] / agree[1] if agree[1] else 0.0, "share")
    metrics["external.solve_s"] = (per_flow(span("external.solve", "total")), "s")
    metrics["external.solve_calls"] = (per_flow(span("external.solve", "calls")), "count")
    metrics["external.nodes"] = (per_flow(stats["external"][0]), "count")

    metrics["builders.build_s"] = (per_flow(span("builders.build", "self")), "s")
    metrics["builders.build_calls"] = (per_flow(span("builders.build", "calls")), "count")
    metrics["domain.validate_s"] = (per_flow(span("domain.validate", "total")), "s")
    metrics["domain.validate_calls"] = (per_flow(span("domain.validate", "calls")), "count")
    metrics["objectives.report_s"] = (per_flow(span("objectives.report", "self")), "s")
    metrics["objectives.report_calls"] = (per_flow(span("objectives.report", "calls")), "count")

    models = [a.model for o in traced for a in o.built.values()]
    size = lambda f: statistics.fmean(f(m) for m in models) if models else 0.0
    metrics["builders.rows"] = (size(lambda m: len(m.rows)), "count")
    metrics["builders.vars"] = (size(lambda m: len(m.variables)), "count")
    metrics["builders.binaries"] = (size(lambda m: len(m.binary_names)), "count")
    metrics["builders.nonzeros"] = (size(lambda m: sum(len(r.expr.terms) for r in m.rows)),
                                    "count")

    grid = span("multiobjective.grid_solve", "calls")
    fronts = [n for o in traced for n in o.fronts]
    metrics["multiobjective.sweep_s"] = (per_flow(span("multiobjective.sweep", "total")), "s")
    metrics["multiobjective.grid_solves"] = (per_flow(grid), "count")
    metrics["multiobjective.front_ratio"] = (sum(fronts) / grid if grid else 0.0, "share")

    calibrations = [o.result.iterations for o in traced
                    if o.flow.kind == "calibrate" and o.result is not None]
    metrics["scenarios.materialize_s"] = (per_flow(span("scenarios.materialize", "total")),
                                          "s")
    metrics["scenarios.throughput_solves"] = (per_flow(span("scenarios.throughput", "calls")),
                                              "count")
    metrics["scenarios.calibration_iterations"] = (
        statistics.fmean(calibrations) if calibrations else 0.0, "count")

    robustified = [r for o in traced for r in o.robustified]
    metrics["robust.robustify_s"] = (per_flow(span("robust.robustify", "total")), "s")
    metrics["robust.rows_added"] = (statistics.fmean(r for r, _ in robustified)
                                    if robustified else 0.0, "count")
    metrics["robust.vars_added"] = (statistics.fmean(v for _, v in robustified)
                                    if robustified else 0.0, "count")

    metrics["io.load_s"] = (per_flow(span("io.load", "total")), "s")
    metrics["io.load_calls"] = (per_flow(span("io.load", "calls")), "count")
    metrics["cli.self_s"] = (per_flow(span("cli.main", "self")), "s")
    return metrics
