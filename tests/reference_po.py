"""Brute-force Pareto-optimality search, kept as the test reference for
``housealloc.oracles.is_pareto_optimal``.

This is the dominator enumeration the package used beside its matching
certificate: a depth-first walk over injective partial assignments, agents
in index order, in which a satisfied agent may only take an acceptable
house.  The first assignment that beats the base welfare dominates the
allocation and is the witness.  Exponential in the size of the instance:
keep inputs small.
"""

from __future__ import annotations

from housealloc.model import Allocation, validate_allocation, welfare
from housealloc.oracles import DominationWitness, Verdict


def is_pareto_optimal(instance, allocation):
    validate_allocation(instance, allocation)
    return _po_brute(instance, allocation)


def _po_brute(instance, allocation):
    n, m = instance.num_agents, instance.num_houses
    base_welfare = welfare(instance, allocation)
    sat_flags = [
        allocation.house_of(a) is not None
        and allocation.house_of(a) in instance.acceptable[a]
        for a in instance.agents
    ]
    acc_mask = [
        sum(1 << j for j, h in enumerate(instance.houses) if h in instance.acceptable[a])
        for a in instance.agents
    ]
    cur = [-1] * n
    found: list[list[int]] = []

    def rec(i: int, used: int, wel: int) -> bool:
        # Branches where a satisfied agent already lost its utility, or where
        # even satisfying all remaining agents cannot beat the base welfare,
        # contain no dominator.
        if wel + (n - i) <= base_welfare:
            return False
        if i == n:
            found.append(cur.copy())
            return True
        mask = acc_mask[i]
        if not sat_flags[i]:
            cur[i] = -1
            if rec(i + 1, used, wel):
                return True
        for hj in range(m):
            if (used >> hj) & 1:
                continue
            liked = (mask >> hj) & 1 == 1
            if sat_flags[i] and not liked:
                continue
            cur[i] = hj
            if rec(i + 1, used | (1 << hj), wel + (1 if liked else 0)):
                return True
        cur[i] = -1
        return False

    if rec(0, 0, 0):
        choice = found[0]
        assignment = {
            a: (instance.houses[choice[i]] if choice[i] >= 0 else None)
            for i, a in enumerate(instance.agents)
        }
        return Verdict(DominationWitness(Allocation(assignment=assignment)))
    return Verdict()
