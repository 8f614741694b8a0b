"""Names that perfbench looks up by attribute at rlnd's import sites.

perfbench/workloads.py wraps the builders where cli, scenarios and
multiobjective bind them, the grid solves of both trade-off families, and
cli's robustify_artifacts, epsilon_sweep and EmbeddedSolver.
Its lookups have no default, so a missing name breaks every benchmark
workload; a builder called through another name escapes its recording.
"""

import pytest

from rlnd import cli, multiobjective, scenarios

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


@pytest.mark.parametrize("name", ["robustify_artifacts", "epsilon_sweep", "EmbeddedSolver"])
def test_cli_binds_what_the_benchmark_records(name):
    assert callable(getattr(cli, name))


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
