"""Self-tests of the benchmark's generator, tracer and checker.

Run with `PYTHONPATH=src python -m pytest -q perfbench/test_bench.py`.
"""

import copy

from checker import certificate, compare_with_reference, reference_solve
from netgen import generate
from tracer import Span, Tracer, covered, self_times

from rlnd.builders import build_system_model
from rlnd.domain import validate
from rlnd.io import instance_from_dict
from rlnd.milp import Status


def test_same_seed_gives_identical_instance():
    first = generate(5, 4, 3, seed=7)
    assert generate(5, 4, 3, seed=7) == first
    assert generate(5, 4, 3, seed=8) != first


def test_generated_networks_validate():
    for tier in ((1, 1, 1), (5, 4, 3), (20, 8, 5)):
        for seed in range(3):
            data = generate(*tier, seed=seed)
            report = validate(instance_from_dict(data))
            assert report.ok, report.violations
            for i in data["sets"]["products"]:
                share = sum(data["processing"]["composition"][j][i]
                            for j in data["sets"]["materials"])
                assert share <= 1.0


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),   # overlaps a
             Span("c", 8.0, 9.0, parent=0),
             Span("a.child", 2.0, 3.0, parent=1)]
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_tracer_nests_spans_and_totals_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    second = tracer.open("inner")
    tracer.close(second)
    tracer.close(outer)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "total": 10.0, "self": 5.0}
    assert totals["inner"] == {"calls": 2, "total": 5.0, "self": 5.0}


def test_checker_flags_a_perturbed_objective():
    instance = instance_from_dict(generate(3, 2, 2, seed=1))
    artifacts = build_system_model(instance, "cost")
    reference = reference_solve(artifacts.model)
    assert reference.status is Status.OPTIMAL
    assert certificate(artifacts.model, reference, artifacts.stages) == []
    assert compare_with_reference(reference, reference) == []

    perturbed = copy.deepcopy(reference)
    perturbed.objective *= 1.01
    assert compare_with_reference(perturbed, reference)
    assert any("objective" in p.text for p in
               certificate(artifacts.model, perturbed, artifacts.stages))

    moved = copy.deepcopy(reference)
    name = next(v for v in artifacts.model.variables if v.startswith("RTD"))
    moved.values[name] += 0.5
    found = certificate(artifacts.model, moved, artifacts.stages)
    assert found and found[0].times_tol > 1e5  # far outside, so not the known defect
