"""MIR's satisfied flags by the greedy algorithm of a matroid, with no
weighted solver.

Under MIR an agent with an acceptable endowment (the set E) is satisfied
in every IR allocation, since it may always keep its endowment, and every
other agent is free: it may end on any house or on nothing.  So a set S of
agents can be satisfied together iff S together with E can be matched into
acceptable houses, and those sets are the independent sets of the
transversal matroid of the acceptability graph, contracted by E
(Edmonds–Fulkerson).  MIR's walk locks an agent iff some optimum
satisfies it and every agent locked before it, that is, iff the locked set
stays independent: the greedy algorithm in priority order (Rado–Edmonds),
which ends on a basis, so the flags sum to the optimum W.  The greedy is
one augmenting-path search per agent: match E to its endowments, then try
each free agent in the run's order and lock it iff an augmenting path
exists.  An augmenting path moves matched agents between acceptable houses
but never unmatches one.

Why every MIR manipulation claims an unacceptable endowment acceptable.
Let a be an agent that truthful MIR leaves unsatisfied, with true set A.
Suppose a's report R keeps a free, because a has no endowment or R does
not contain it.  The agents locked before a are the same under both
reports, since their rounds do not read a's row.  If a is locked under R
and lands on h in A ∩ R, the final allocation also matches the agents
locked before a, E and a on true edges, so the truthful walk would have
locked a.  If a is not locked under R but lands in A anyway, then the
locked set under R, plus E, plus a is truly independent.  Its size is the
rank under R plus one.  The rank under R is at least the truthful rank,
because the truthful basis leaves a out and is independent under R too.
So that set would beat the truthful rank, which cannot be.  So a report
that pays must contain an endowment e not in A, and that is the shape of
every MIR witness the census finds.
"""

from __future__ import annotations


def mir_greedy_flags(instance, permutation):
    """The satisfied flag of every agent, in ``permutation`` order, that
    the matroid greedy gives MIR on ``instance``."""
    acceptable = instance.acceptable
    holder: dict[str, str] = {}  # house -> the agent matched to it
    flags: dict[str, int] = {}
    for agent in instance.agents:
        own = instance.endowment_of(agent)
        if own is not None and own in acceptable[agent]:
            holder[own] = agent
    kept = set(holder.values())
    for agent in permutation:
        if agent in kept:
            flags[agent] = 1
            continue
        flags[agent] = 1 if _augment(agent, acceptable, holder) else 0
    return flags


def _augment(root, acceptable, holder):
    """Match ``root`` by one augmenting path over acceptable houses, moving
    matched agents along it; False, with nothing changed, if none exists."""
    came_from: dict[str, tuple[str, str | None]] = {}  # house -> (agent, its house)
    frontier = [(root, None)]
    while frontier:
        nxt = []
        for agent, house_of_agent in frontier:
            for house in acceptable[agent]:
                if house in came_from:
                    continue
                came_from[house] = (agent, house_of_agent)
                owner = holder.get(house)
                if owner is None:
                    while True:
                        agent, previous = came_from[house]
                        holder[house] = agent
                        if previous is None:
                            return True
                        house = previous
                nxt.append((owner, house))
        frontier = nxt
    return False
