"""Cold misreport sweep, kept as the test reference for
``housealloc.oracles.check_strategyproofness``.

This is the sweep the package ran before its warm start: one full
``run_mechanism`` for the truthful reports and one for every misreported
instance, each building and solving its graph from scratch.  Reports are
tried agent by agent in bit order (bit j is house j), and the first one
that lands the agent an acceptable house is the witness.  Exponential in
the number of houses: keep inputs small.
"""

from __future__ import annotations

from housealloc.mechanisms import PermutationPolicy, run_mechanism
from housealloc.model import Instance
from housealloc.oracles import ManipulationWitness


def misreport(instance, agent, reported):
    """``instance`` with ``agent`` reporting ``reported`` as its acceptable set."""
    return Instance(
        agents=instance.agents,
        houses=instance.houses,
        endowment=instance.endowment,
        acceptable={**instance.acceptable, agent: reported},
    )


def check_strategyproofness(instance, mechanism, policy=None):
    m = instance.num_houses
    policy = policy or PermutationPolicy.identity()
    truthful = run_mechanism(instance, mechanism, policy)
    for agent in instance.agents:
        true_set = instance.acceptable[agent]
        got = truthful.allocation.house_of(agent)
        if got is not None and got in true_set:
            continue
        for bits in range(1 << m):
            reported = frozenset(
                instance.houses[j] for j in range(m) if (bits >> j) & 1
            )
            if reported == true_set:
                continue
            outcome = run_mechanism(misreport(instance, agent, reported), mechanism, policy)
            landed = outcome.allocation.house_of(agent)
            if landed is not None and landed in true_set:
                return ManipulationWitness(
                    agent=agent,
                    reported=reported,
                    truthful_utility=0,
                    misreport_utility=1,
                )
    return None
