"""Census: the misreport sweep on every small market.

A market of a size is one partial endowment map (each agent owns a distinct
house or none) with one acceptable set per agent; every such market runs
through :func:`check_strategyproofness` for both mechanisms, identity
order.  MSIR is never manipulable here, which is the paper's
strategyproofness claim, exhaustively at these sizes.  MIR is, on a fixed
number of markets, and every first witness has one shape: the agent owns
a house it does not accept and reports it acceptable.  Every truthful run
also meets the README table's other claims for its mechanism (criterion 4
on every market).
"""

from __future__ import annotations

from itertools import product

import pytest

from housealloc.mechanisms import Mechanism, Solved
from housealloc.model import validate_instance
from housealloc.oracles import (
    check_strategyproofness,
    evaluate_properties,
    verify_manipulation_witness,
)

# (agents, houses): (markets, MIR-manipulable markets)
CENSUS = {(2, 3): (832, 0), (3, 2): (832, 21), (2, 4): (5_376, 0), (3, 3): (17_408, 147)}

# the README table's "yes" rows other than misreport-proofness
CLAIMS = {
    Mechanism.MSIR: ("sir", "ir", "core", "maxw-sir"),
    Mechanism.MIR: ("ir", "po", "maxw", "maxw-ir"),
}


def _markets(n: int, m: int):
    agents = [str(i + 1) for i in range(n)]
    houses = [f"h{j + 1}" for j in range(m)]
    subsets = [frozenset(h for j, h in enumerate(houses) if (bits >> j) & 1)
               for bits in range(1 << m)]
    for owned in product([None, *houses], repeat=n):
        taken = [h for h in owned if h is not None]
        if len(set(taken)) < len(taken):
            continue  # a house owned twice
        endowment = {a: h for a, h in zip(agents, owned) if h is not None}
        for profile in product(subsets, repeat=n):
            yield validate_instance(agents, houses, endowment, dict(zip(agents, profile)))


@pytest.mark.parametrize("size", list(CENSUS), ids=lambda size: "%dx%d" % size)
def test_census(size):
    markets, mir_expected = CENSUS[size]
    count, manipulable, broken = 0, {mech: [] for mech in Mechanism}, []
    for instance in _markets(*size):
        count += 1
        for mech in Mechanism:
            solved = Solved(instance, mech)
            verdicts = evaluate_properties(instance, solved.truthful.allocation, CLAIMS[mech])
            broken.extend((instance, mech, key) for key, v in verdicts.items() if not v.holds)
            witness = check_strategyproofness(solved)
            if witness is not None:
                manipulable[mech].append((instance, witness))
    assert count == markets
    assert broken == []
    assert manipulable[Mechanism.MSIR] == []
    assert len(manipulable[Mechanism.MIR]) == mir_expected
    for instance, witness in manipulable[Mechanism.MIR]:
        assert verify_manipulation_witness(instance, Mechanism.MIR, witness)
        own = instance.endowment_of(witness.agent)
        assert own is not None
        assert own not in instance.acceptable[witness.agent]
        assert own in witness.reported
