"""Mechanism runs on inputs far larger than the oracles' budgets.

Postconditions only, checked by the polynomial oracles; no wall-clock
asserts.  Any ``RecursionError`` fails the test like any other exception.
"""

from __future__ import annotations

import pytest

from housealloc import oracles
from housealloc.cli import main
from housealloc.fileio import dumps_allocation, dumps_instance
from housealloc.gen import GenParams, random_instance
from housealloc.mechanisms import Mechanism, PermutationPolicy, run_mechanism
from housealloc.model import validate_instance, welfare
from test_mir_greedy_reference import assert_greedy_flags


def chain(n):
    """Everyone endowed; agent i accepts its own house and its left
    neighbour's, so the acceptability graph is one long path."""
    agents = [f"a{i}" for i in range(n)]
    houses = [f"h{i}" for i in range(n)]
    acceptable = {agents[i]: {houses[i], houses[i - 1]} if i else {houses[0]} for i in range(n)}
    return validate_instance(agents, houses, dict(zip(agents, houses)), acceptable)


def check_postconditions(instance, mechanism, result):
    W = result.trace.initial_weight
    assert welfare(instance, result.allocation) == W
    assert sum(result.trace.satisfied_flags.values()) == W
    assert oracles.ir_violation(instance, result.allocation) is None
    if mechanism is Mechanism.MSIR:
        assert oracles.sir_violation(instance, result.allocation) is None


@pytest.mark.parametrize("mechanism", list(Mechanism))
def test_1500_agent_chain(mechanism, tmp_path):
    instance = chain(1500)
    result = run_mechanism(instance, mechanism)
    check_postconditions(instance, mechanism, result)
    # each agent keeps its own house: under S-IR it is pinned there, and
    # under IR agent 0 holds h0, so every neighbour is left with its own
    assert result.trace.initial_weight == 1500
    assert all(result.allocation.house_of(f"a{i}") == f"h{i}" for i in range(1500))
    # the oracles' matcher walks augmenting paths as long as the chain
    assert oracles.max_welfare(instance) == 1500
    inst, alloc = tmp_path / "chain.json", tmp_path / "alloc.json"
    inst.write_text(dumps_instance(instance))
    alloc.write_text(dumps_allocation(instance, result.allocation, result.trace))
    assert main(["verify", str(inst), str(alloc), "--properties", "ir,sir,po,maxw"]) == 0
    # 1,500 coalition candidates: far past any enumeration
    assert main(["verify", str(inst), str(alloc), "--properties", "core,strict-core"]) == 0


@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("accept_prob", [0.015, 0.5])
def test_seeded_200_agent_market(mechanism, accept_prob):
    instance = random_instance(GenParams(200, 200, 0.8, accept_prob, 90_210))
    result = run_mechanism(instance, mechanism, PermutationPolicy.seeded(11))
    check_postconditions(instance, mechanism, result)
    if mechanism is Mechanism.MIR:
        assert result.trace.initial_weight == oracles.max_welfare(instance)
    else:  # the paper's core claim for MSIR, at scale
        assert oracles.is_core_stable(instance, result.allocation).holds
    strict = oracles.is_strict_core_stable(instance, result.allocation)
    if not strict.holds:
        assert oracles.verify_weak_blocking_witness(instance, result.allocation, strict.witness)


@pytest.mark.parametrize("n, accept_prob", [(200, 0.015), (500, 0.01)])
def test_seeded_mir_market_flags_are_the_greedy_basis(n, accept_prob):
    instance = random_instance(GenParams(n, n, 0.8, accept_prob, 7))
    assert_greedy_flags(instance, PermutationPolicy.seeded(3))
