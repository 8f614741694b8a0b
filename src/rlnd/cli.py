"""Command-line front end.

Subcommands mirror the library: validate an instance, solve one model,
sweep a trade-off front, build and solve a robust counterpart, run a named
scenario both ways, or turn coordinate tables into an arc-distance grid.

Exit codes: 0 solved/ok, 1 usage or data error or a numerically unstable
answer, 2 proven infeasible, 3 budget exhausted before proof.  A usage or
data error prints one ``error:`` line on stderr, never a traceback, and so
does a solve another one depends on (a trade-off anchor, the throughput a
scenario's caps derive from) when it fails; the exit code is then the one
its status maps to.
A scenario that does not solve, in ``scenario --name all`` or alone,
prints one line naming the solve that failed, and the command exits 2 when
any was infeasible, else with the highest code its scenarios map to.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
# the user builders stay bound for perfbench, which wraps all three here by name
from .builders import OBJECTIVES, build_system_model, build_user_model_i, build_user_model_ii
from .domain import TIERS, InstanceError, NetworkInstance, validate
from .geo import grid_to_areas
from .io import load_bundled_instance, load_instance, read_points_csv, write_csv
from .milp import EmbeddedSolver, Solver, Status
from .multiobjective import (POINTS_DEFAULT, SystemEpsilonFamily, THETA_DEFAULT,
                             UserEpsilonFamily, epsilon_sweep)
from .robust import capacity_preset, load_uncertainty_spec, robustify_artifacts
from .scenarios import (SCENARIO_ORDER, SideResult, load_scenario_spec, run_all,
                        solve_built, solve_scenario, solve_system, solve_user,
                        write_comparison_csv)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

_GAP_REL = 1e-9  # a proven gap above this share of the objective is printed

_STATUS_EXIT = {Status.OPTIMAL: EXIT_OK,
                Status.INFEASIBLE: EXIT_INFEASIBLE,
                Status.BUDGET_EXCEEDED: EXIT_BUDGET}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: argparse's own 2 means
    a proven-infeasible model here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _solver_from_args(args: argparse.Namespace) -> Solver:
    if args.solver == "scipy":
        from .external import ScipySolver

        return ScipySolver(node_budget=args.node_budget)
    return EmbeddedSolver(node_budget=args.node_budget)


def _load(args: argparse.Namespace) -> NetworkInstance:
    if args.instance is None:
        return load_bundled_instance()
    return load_instance(args.instance)


def _add_instance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", type=Path, default=None,
                        help="instance JSON (default: the bundled example)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_instance(parser)
    parser.add_argument("--solver", choices=("embedded", "scipy"), default="embedded")
    parser.add_argument("--node-budget", type=int, default=200_000,
                        help="branch-and-bound node cap for either solver")


def _print_solution_header(status: Status, objective: float | None) -> None:
    if objective is None:
        print(f"status: {status.value}")
    else:
        print(f"status: {status.value}  objective: {objective:.6f}")


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = _load(args)
    report = validate(instance)
    for violation in report.violations:
        print(f"violation: {violation}")
    if report.ok:
        print(f"instance {instance.name!r} is consistent "
              f"({len(instance.products)} products, {len(instance.areas)} areas, "
              f"{len(instance.facilities())} facilities)")
        return EXIT_OK
    return EXIT_ERROR


def _report(args: argparse.Namespace, side: SideResult) -> int:
    """Print a solved side (with each phase's proven gap when it is open),
    write its LP dump and breakdown CSV if asked; the exit code its status
    maps to."""
    if args.dump_lp:
        text = "\n".join(artifacts.model.to_lp_format() for artifacts, _ in side.phases)
        Path(args.dump_lp).write_text(text, encoding="utf-8")
    solutions = [solution for _, solution in side.phases]
    if side.status is Status.OPTIMAL and len(solutions) == 2:
        totals = " / ".join(f"{s.objective:.6f}" for s in solutions)
        print(f"status: optimal  phase totals: {totals}")
    else:
        _print_solution_header(solutions[-1].status, solutions[-1].objective)
    for k, solution in enumerate(solutions, 1):
        gap = solution.gap
        if gap is not None and gap > _GAP_REL * max(1.0, abs(solution.objective)):
            phase = f"phase {k} " if len(solutions) == 2 else ""
            print(f"gap: {phase}{gap:.6f}  bound: {solution.bound:.6f}")
    if side.breakdown is None:
        return _STATUS_EXIT.get(side.status, EXIT_ERROR)

    print(side.breakdown.format_text())
    open_names = sorted(f for f, is_open in side.opens.items() if is_open)
    print(f"open facilities: {' '.join(open_names)}")
    if args.output:
        write_csv(args.output, ("metric", "stage", "value"), side.breakdown.rows())
        print(f"breakdown written to {args.output}")
    return _STATUS_EXIT.get(side.status, EXIT_ERROR)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load(args)
    solve = solve_system if args.model == "system" else solve_user
    return _report(args, solve(instance, args.objective, _solver_from_args(args),
                               include_policy=not args.no_policy))


def _cmd_pareto(args: argparse.Namespace) -> int:
    instance = _load(args)
    solver = _solver_from_args(args)
    family_cls = SystemEpsilonFamily if args.model == "system" else UserEpsilonFamily
    family = family_cls(instance, include_policy=not args.no_policy, solver=solver)
    front = epsilon_sweep(family, points=args.points, theta=args.theta)
    print(front.format_text())
    if args.output:
        front.to_csv(args.output)
        print(f"front written to {args.output}")
    return EXIT_OK


def _cmd_robust(args: argparse.Namespace) -> int:
    instance = _load(args)
    solver = _solver_from_args(args)
    artifacts = build_system_model(instance, args.objective,
                                   include_policy=not args.no_policy)
    if args.uncertainty:
        spec = load_uncertainty_spec(args.uncertainty)
    else:
        spec = capacity_preset(artifacts, fraction=args.fraction, gamma=args.gamma)
        print(f"preset: {len(spec.rows)} capacity rows protected at "
              f"+-{args.fraction:.0%}, budget {args.gamma:g}")
    robust = robustify_artifacts(artifacts, spec)
    return _report(args, solve_built(robust, solver))


def _cmd_scenario(args: argparse.Namespace) -> int:
    base = _load(args)
    solver = _solver_from_args(args)
    if args.spec:
        results = [solve_scenario(load_scenario_spec(args.spec), args.objective, base, solver)]
    elif args.name == "all":
        results = run_all(args.objective, base, solver)
    else:
        results = [solve_scenario(args.name, args.objective, base, solver)]
    for result in results:
        print(result.format_text())
        print()
    if args.output:
        write_comparison_csv(results, args.output)
        print(f"comparison written to {args.output}")
    codes = [_STATUS_EXIT.get(result.status, EXIT_ERROR) for result in results]
    return EXIT_INFEASIBLE if EXIT_INFEASIBLE in codes else max(codes)


def _cmd_distances(args: argparse.Namespace) -> int:
    points = read_points_csv(args.points)
    names = [[p.strip() for p in getattr(args, tier.facilities).split(",") if p.strip()]
             for tier in TIERS]
    named = [name for tier_names in names for name in tier_names]
    missing = [name for name in named if name not in points]
    if missing:
        raise InstanceError(f"points file lacks {missing}")
    twice = sorted({name for name in named if named.count(name) > 1})
    if twice:
        raise InstanceError(f"points {twice} are named as more than one facility")
    sites = [{name: points[name] for name in tier_names} for tier_names in names]
    residences = {k: v for k, v in points.items() if not any(k in s for s in sites)}
    if not residences:
        raise InstanceError("every point is assigned to a facility tier; "
                            "none remain as residence areas")
    grid = grid_to_areas(residences, *sites)
    text = json.dumps({**grid.lanes, "population": grid.population}, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"distance grid written to {args.output}")
    else:
        print(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once, as parsing leaves it unchanged."""
    parser = _Parser(
        prog="rlnd",
        description="exact planning models for product take-back networks")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file for consistency")
    _add_instance(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="solve one model and print the breakdown")
    _add_common(p)
    p.add_argument("--model", choices=("system", "user"), default="system")
    p.add_argument("--objective", choices=OBJECTIVES, default="cost")
    p.add_argument("--no-policy", action="store_true",
                   help="ignore siting-policy rows")
    p.add_argument("--dump-lp", type=Path, default=None,
                   help="write the tagged LP text of every model the command solved here")
    p.add_argument("--output", type=Path, default=None, help="breakdown CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pareto", help="sweep the cost/emission trade-off front")
    _add_common(p)
    p.add_argument("--model", choices=("system", "user"), default="system")
    p.add_argument("--points", type=int, default=POINTS_DEFAULT,
                   help="grid steps between the objective anchors")
    p.add_argument("--theta", type=float, default=THETA_DEFAULT,
                   help="slack weight: each grid solve minimizes cost + theta * "
                        "slack, a penalty on the cap's slack")
    p.add_argument("--no-policy", action="store_true")
    p.add_argument("--output", type=Path, default=None, help="front CSV")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("robust", help="solve a budget-protected counterpart")
    _add_common(p)
    p.add_argument("--objective", choices=OBJECTIVES, default="cost")
    p.add_argument("--uncertainty", type=Path, default=None,
                   help="uncertainty spec JSON; omit to use the capacity preset")
    p.add_argument("--fraction", type=float, default=0.1,
                   help="preset: relative coefficient deviation")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="preset: per-row protection budget")
    p.add_argument("--no-policy", action="store_true")
    p.add_argument("--dump-lp", type=Path, default=None)
    p.add_argument("--output", type=Path, default=None, help="breakdown CSV")
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("scenario", help="run a named what-if case both ways")
    _add_common(p)
    p.add_argument("--name", default="all",
                   help=f"one of {', '.join(SCENARIO_ORDER)} or 'all'")
    p.add_argument("--spec", type=Path, default=None,
                   help="scenario spec JSON instead of a built-in name")
    p.add_argument("--objective", choices=OBJECTIVES, default="cost")
    p.add_argument("--output", type=Path, default=None, help="comparison CSV")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("distances",
                       help="great-circle arc grid from a coordinate table")
    p.add_argument("--points", type=Path, required=True,
                   help="CSV: id, lat, lon[, population]")
    p.add_argument("--dropoffs", required=True, help="comma-separated point ids")
    p.add_argument("--primaries", required=True)
    p.add_argument("--secondaries", required=True)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_distances)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:  # InstanceError, ModelError among them
        print(f"error: {exc}", file=sys.stderr)
        return _STATUS_EXIT.get(getattr(exc, "status", None), EXIT_ERROR)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
