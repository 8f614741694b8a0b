"""Names that perfbench looks up by attribute at rlnd's import sites.

perfbench/workloads.py wraps the builders where cli, scenarios and
multiobjective bind them, the grid solves of both trade-off families, and
cli's robustify_artifacts, epsilon_sweep and EmbeddedSolver.  Its traced
run also wraps the loaders, validation, materialization, the throughput
solve and the breakdown at the sites below.
Its lookups have no default, so a missing name breaks every benchmark
workload; a builder called through another name escapes its recording, and
so does a solve that goes around the two solver classes' ``solve``.
"""

import pytest

from rlnd import builders, cli, external, multiobjective, scenarios

BUILDERS = ("build_system_model", "build_user_model_i", "build_user_model_ii")


@pytest.mark.parametrize("module", [cli, scenarios, multiobjective],
                         ids=lambda m: m.__name__)
def test_builders_bound_at_each_import_site(module):
    for name in BUILDERS:
        assert callable(getattr(module, name))


def test_solve_paths_and_grid_solves_exist():
    assert callable(scenarios.solve_system)
    assert callable(multiobjective.SystemEpsilonFamily.solve_point)
    assert callable(multiobjective.UserEpsilonFamily.solve_point)


def test_each_family_wraps_its_own_grid_solves(monkeypatch):
    """perfbench wraps solve_point on each family class; a user grid solve
    that went through the system family's method would be counted twice."""
    calls = []
    for family in (multiobjective.SystemEpsilonFamily, multiobjective.UserEpsilonFamily):
        def counted(self, *args, _solve=family.solve_point, _name=family.__name__, **kwargs):
            calls.append(_name)
            return _solve(self, *args, **kwargs)
        monkeypatch.setattr(family, "solve_point", counted)
    monkeypatch.setattr(multiobjective.SystemEpsilonFamily, "_grid_solve",
                        lambda self, *args: (0.0, 0.0, 0.0))
    multiobjective.UserEpsilonFamily(None).solve_point(0, 0.0, 1e-4)
    assert calls == ["UserEpsilonFamily"]


@pytest.mark.parametrize("name", ["robustify_artifacts", "epsilon_sweep", "EmbeddedSolver"])
def test_cli_binds_what_the_benchmark_records(name):
    assert callable(getattr(cli, name))


@pytest.mark.parametrize("module, name", [
    (cli, "load_instance"), (cli, "load_bundled_instance"), (builders, "validate"),
    (scenarios, "materialize"), (scenarios, "derive_throughput"),
    (scenarios, "breakdown_from_solution")],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_traced_names_exist_where_the_benchmark_wraps_them(module, name):
    assert callable(getattr(module, name))


def test_cli_imports_the_highs_adapter_lazily():
    assert not hasattr(cli, "ScipySolver")


def test_solves_call_the_builders_bound_in_scenarios(bundled, monkeypatch, capsys):
    called = []
    for name in BUILDERS:
        def recorded(*args, _name=name, _builder=getattr(scenarios, name), **kwargs):
            called.append(_name)
            return _builder(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, recorded)
    scenarios.solve_system(bundled, "cost")
    assert cli.main(["solve", "--model", "user"]) == 0
    assert called == list(BUILDERS)


@pytest.mark.parametrize("solver", ["embedded", "scipy"])
@pytest.mark.parametrize("command", [["solve"], ["solve", "--model", "user"], ["robust"]],
                         ids=" ".join)
def test_solver_subclasses_see_every_model_the_cli_solves(command, solver, monkeypatch,
                                                          tmp_path, capsys):
    """perfbench records solves with subclasses of cli.EmbeddedSolver and
    external.ScipySolver that override solve(model); every model the command
    solves (its LP dump holds one section per model) passes through them."""
    seen = []

    def counting(base):
        class Counting(base):
            def solve(self, model):
                seen.append(model)
                return super().solve(model)
        return Counting

    monkeypatch.setattr(cli, "EmbeddedSolver", counting(cli.EmbeddedSolver))
    monkeypatch.setattr(external, "ScipySolver", counting(external.ScipySolver))
    dump = tmp_path / "models.lp"
    assert cli.main([*command, "--solver", solver, "--dump-lp", str(dump)]) == 0
    assert seen
    assert "\n".join(m.to_lp_format() for m in seen) == dump.read_text(encoding="utf-8")
