"""MIR's satisfied flags against the matroid greedy of
``tests/reference_mir_greedy.py``, which uses no weighted solver."""

from __future__ import annotations

from housealloc.gen import random_instance, trial_params
from housealloc.mechanisms import Mechanism, PermutationPolicy, run_mechanism
from reference_mir_greedy import mir_greedy_flags


def assert_greedy_flags(instance, policy):
    trace = run_mechanism(instance, Mechanism.MIR, policy).trace
    flags = mir_greedy_flags(instance, trace.permutation)
    assert flags == trace.satisfied_flags
    assert sum(flags.values()) == trace.initial_weight


def test_mir_flags_are_the_greedy_basis():
    for trial in range(1000):
        instance = random_instance(trial_params(77, trial, 8, 8))
        for policy in (PermutationPolicy.identity(), PermutationPolicy.seeded(trial)):
            assert_greedy_flags(instance, policy)
