"""The embedded engine against HiGHS at a zero gap on generated networks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ExactHighs, netgen_instance, random_network_instance
from rlnd.builders import build_system_model, build_user_model_i
from rlnd.milp import SolveStats, Status, _cut, _Lp, solve_milp
from rlnd.multiobjective import (THETA_DEFAULT, SystemEpsilonFamily, UserEpsilonFamily,
                                 epsilon_sweep)
from rlnd.robust import capacity_preset, robustify_artifacts

HIGHS = ExactHighs()

# Network 27 is the one the dense two-phase tableau engine got wrong: it
# returned OPTIMAL at 96118.36 for the system cost and 39744.79 for the
# system emission, where the optima are 72420.08 and 38103.52.  Network 2's
# system model is infeasible.
SEEDS = (0, 1, 2, 3, 4, 5, 6, 27)


def _network(seed):
    return random_network_instance(random.Random(seed), areas=5, dropoffs=4, primaries=3)


def _assert_engines_agree(instance):
    for build in (build_system_model, build_user_model_i):
        for objective in ("cost", "emission"):
            model = build(instance, objective).model
            ours, ref = solve_milp(model), HIGHS.solve(model)
            label = f"{build.__name__} {objective}"
            assert ours.status is ref.status, label
            if ref.status is Status.OPTIMAL:
                assert ours.objective == pytest.approx(ref.objective, rel=1e-6), label


@pytest.mark.parametrize("seed", SEEDS)
def test_embedded_matches_highs_on_generated_networks(seed):
    _assert_engines_agree(_network(seed))


@pytest.mark.parametrize("areas, dropoffs, primaries, seed",
                         [(10, 6, 4, seed) for seed in range(4)]
                         + [(20, 8, 5, seed) for seed in range(2)])
def test_embedded_matches_highs_on_moderate_networks(areas, dropoffs, primaries, seed):
    """Trees of tens of nodes, where children carry updated inverses."""
    _assert_engines_agree(netgen_instance(areas, dropoffs, primaries, seed))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_embedded_matches_highs_on_drawn_networks(seed):
    """Small networks of every shape the generator draws, feasible or not."""
    _assert_engines_agree(random_network_instance(random.Random(seed)))


def _cut_models(instance):
    """System, user-I and capacity-preset robust (gamma 1) models, both
    objectives."""
    for objective in ("cost", "emission"):
        system = build_system_model(instance, objective)
        yield f"system {objective}", system.model
        yield f"user-I {objective}", build_user_model_i(instance, objective).model
        yield f"robust {objective}", robustify_artifacts(
            system, capacity_preset(system, gamma=1.0)).model


@pytest.mark.parametrize("size, seeds", [((5, 4, 3), range(12)), ((10, 6, 4), range(4)),
                                         ((20, 8, 5), range(3))],
                         ids=["5x4x3", "10x6x4", "20x8x5"])
def test_root_cuts_keep_the_optimum(size, seeds):
    """The embedded engine, cutting at its root, against zero-gap HiGHS:
    the same status and objective, and HiGHS's optimum satisfies every
    implied-bound cut the root appended, in original units."""
    appended = 0
    for seed in seeds:
        for label, model in _cut_models(netgen_instance(*size, seed)):
            label = f"{size} seed {seed} {label}"
            ours, ref = solve_milp(model), HIGHS.solve(model)
            assert ours.status is ref.status, label
            if ref.status is not Status.OPTIMAL:
                continue
            assert ours.objective == pytest.approx(ref.objective, rel=1e-9), label
            lp = _Lp(model)
            top = _cut(lp, lp.root(), SolveStats())
            m, n = lp.mat.shape[0], len(lp.names)
            if top.lp is lp:
                continue
            x = np.array([ref.values[name] for name in lp.names]) / lp.scale[:n]
            cuts = top.lp.mat[m:, :n] @ x * top.lp.scale[n + m:]  # x_j - u_j y
            appended += cuts.size
            assert cuts.max() <= 1e-6, label
    assert appended


MODERATE_NODE_BUDGET = 16  # full trees of these draws take 7 to 33 nodes


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_embedded_brackets_highs_on_moderate_drawn_networks(seed):
    """10x6x4 draws under a node budget: an optimal answer matches HiGHS, and
    an exhausted budget's bound and incumbent bracket the HiGHS optimum."""
    instance = random_network_instance(random.Random(seed), areas=10, dropoffs=6, primaries=4)
    for build in (build_system_model, build_user_model_i):
        for objective in ("cost", "emission"):
            model = build(instance, objective).model
            ours = solve_milp(model, node_budget=MODERATE_NODE_BUDGET)
            ref = HIGHS.solve(model)
            label = f"{build.__name__} {objective} {ours.status.value}"
            if ours.status is not Status.BUDGET_EXCEEDED:
                assert ours.status is ref.status, label
                if ref.status is Status.OPTIMAL:
                    assert ours.objective == pytest.approx(ref.objective, rel=1e-6), label
            elif ref.status is Status.OPTIMAL:
                slack = 1e-6 * max(1.0, abs(ref.objective))
                assert ours.bound <= ref.objective + slack, label
                if ours.objective is not None:
                    assert ref.objective <= ours.objective + slack, label
            else:
                assert ref.status is Status.INFEASIBLE and ours.objective is None, label


def test_cap_at_the_emission_anchor_is_feasible(bundled):
    """Grid point 0 caps emission exactly at the emission anchor: feasible
    only at that anchor's own vertex, to within the feasibility tolerance."""
    for instance in (bundled, _network(1), _network(6)):
        family = SystemEpsilonFamily(instance)
        _, emission = family.anchor("emission")
        assert family.solve_point(0, emission, THETA_DEFAULT) is not None, instance.name


@pytest.mark.parametrize("seed", (1, 3))
def test_user_sweep_skips_only_what_highs_skips(seed):
    """At grid point 0 the routing phase's cap sits on its own floor."""
    instance = _network(seed)
    ours = epsilon_sweep(UserEpsilonFamily(instance), points=10)
    ref = epsilon_sweep(UserEpsilonFamily(instance, solver=HIGHS), points=10)
    assert [p.v for p in ours.skipped] == [p.v for p in ref.skipped]
    assert len(ours.points) == len(ref.points)
    for p, q in zip(ours.points, ref.points):
        assert p.total_cost == pytest.approx(q.total_cost, rel=1e-6)
        assert p.total_emission == pytest.approx(q.total_emission, rel=1e-6)
