"""The incremental refinement against from-scratch reference re-solves.

The reference loop is the refinement as the paper states it: per agent,
delete its weight-0 edges, re-solve the whole graph with the dense
reference solver (``tests/reference_solver.py``), keep the deletion iff the
weight W survives.  Every round record and the final assignment must equal
what the mechanism's warm-started refinement reports, and the duals it
carried must still prove its final matching optimal on the refined graph.
"""

from __future__ import annotations

import pytest

from housealloc.gen import random_instance, trial_params
from housealloc.matching import max_weight_perfect_matching
from housealloc.mechanisms import (
    Mechanism,
    PermutationPolicy,
    _right_labels,
    build_graph,
    serial_refinement,
)
from conftest import assert_certified
from reference_solver import reference_optimum


def reference_refinement(instance, rows, permutation):
    """(rounds as (agent, removed, weight, accepted), final assignment)."""
    target, _ = reference_optimum(rows)
    right = _right_labels(instance)
    rounds = []
    for agent in permutation:
        row = rows[instance.agent_index[agent]]
        removed = sorted(rj for rj, w in row.items() if w == 0)
        for rj in removed:
            del row[rj]
        solved = reference_optimum(rows)
        weight = None if solved is None else solved[0]
        accepted = weight is not None and weight >= target
        if not accepted:
            row.update(dict.fromkeys(removed, 0))
        removed = tuple(right[rj] for rj in removed)
        rounds.append((agent, removed, weight, accepted))
    final = reference_optimum(rows)
    assert final is not None and final[0] == target
    return rounds, final[1]


def _cases():
    # Even trials: n, m drawn independently in 0..8 (mostly unbalanced);
    # odd trials: n = m = 8, everyone endowed.
    for trial in range(160):
        instance = random_instance(trial_params(4242, trial, 8, 8))
        for mech in Mechanism:
            for policy in (PermutationPolicy.identity(), PermutationPolicy.seeded(trial)):
                yield instance, mech, policy


def test_cases_cover_balanced_and_unbalanced_markets():
    shapes = {(i.num_agents == i.num_houses) for i, _, _ in _cases()}
    assert shapes == {True, False}


@pytest.mark.parametrize("mech", list(Mechanism))
def test_every_round_equals_reference_re_solve(mech):
    checked = 0
    for instance, case_mech, policy in _cases():
        if case_mech is not mech:
            continue
        permutation = policy.realize(instance.agents)
        expected_rounds, expected_final = reference_refinement(
            instance, build_graph(instance, mech), permutation
        )
        optimum = max_weight_perfect_matching(build_graph(instance, mech))
        labels = _right_labels(instance)
        flags, rounds = serial_refinement(instance, permutation, optimum, labels)
        got = [(r.agent, r.removed, r.weight, r.accepted) for r in rounds]
        assert got == expected_rounds, (instance, policy)
        assert tuple(optimum.mate) == expected_final
        assert_certified(optimum)
        assert flags == {r[0]: int(r[3]) for r in expected_rounds}
        checked += 1
    assert checked == 320
