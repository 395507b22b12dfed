"""Brute-force core and strict-core search, kept as the test reference for
``housealloc.oracles``.

This is the exhaustive enumeration the package used before its polynomial
coalition search: every coalition of ``base`` in ascending bit-mask order
(bit i is ``base[i]``), and for strict core every improving agent in member
order.  The first blocking coalition found is the witness, so the
production search must return the same coalition, improving agent and
reallocation.  ``exhaustive=True`` scans every subset of all agents instead
of the pruned candidates; it finds the same first witness, because every
subset it adds fails and the order of the remaining masks is unchanged.
Exponential in the number of candidates: keep inputs small.
"""

from __future__ import annotations

from housealloc.model import satisfied_set, validate_allocation
from housealloc.oracles import BlockingWitness, Verdict, WeakBlockingWitness, _kuhn


def is_core_stable(instance, allocation, exhaustive=False):
    validate_allocation(instance, allocation)
    sat = satisfied_set(instance, allocation)
    if exhaustive:
        base = list(instance.agents)
    else:
        base = [a for a in instance.agents if a in instance.endowment and a not in sat]
    for mask in range(1, 1 << len(base)):
        members = [base[b] for b in range(len(base)) if (mask >> b) & 1]
        witness = _find_strict_trade(instance, sat, members)
        if witness is not None:
            return Verdict(witness)
    return Verdict()


def _find_strict_trade(instance, sat, members):
    pool = [instance.endowment[a] for a in members if a in instance.endowment]
    if len(pool) < len(members):
        return None  # someone has nothing to contribute
    adj: list[list[int]] = []
    for a in members:
        if a in sat:
            return None  # cannot strictly improve a satisfied agent
        options = [p for p, h in enumerate(pool) if h in instance.acceptable[a]]
        if not options:
            return None
        adj.append(options)
    matched = _kuhn(adj, len(pool))
    if -1 in matched:
        return None
    return BlockingWitness(
        coalition=tuple(members),
        reallocation={a: pool[matched[i]] for i, a in enumerate(members)},
    )


def is_strict_core_stable(instance, allocation, exhaustive=False):
    validate_allocation(instance, allocation)
    sat = satisfied_set(instance, allocation)
    if exhaustive:
        base = list(instance.agents)
    else:
        base = [a for a in instance.agents if a in instance.endowment]
    for mask in range(1, 1 << len(base)):
        members = [base[b] for b in range(len(base)) if (mask >> b) & 1]
        pool = [instance.endowment[a] for a in members if a in instance.endowment]
        if len(pool) < len(members):
            continue
        for winner in members:
            if winner in sat:
                continue
            adj: list[list[int]] = []
            feasible = True
            for a in members:
                if a == winner or a in sat:
                    options = [p for p, h in enumerate(pool) if h in instance.acceptable[a]]
                else:
                    options = list(range(len(pool)))
                if not options:
                    feasible = False
                    break
                adj.append(options)
            if not feasible:
                continue
            matched = _kuhn(adj, len(pool))
            if -1 in matched:
                continue
            return Verdict(
                WeakBlockingWitness(
                    coalition=tuple(members),
                    reallocation={a: pool[matched[i]] for i, a in enumerate(members)},
                    improving_agent=winner,
                ),
            )
    return Verdict()
