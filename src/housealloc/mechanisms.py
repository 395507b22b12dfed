"""The MSIR and MIR mechanisms.

Both mechanisms share one skeleton: build a padded bipartite graph whose
perfect matchings are exactly the allocations the mechanism treats as
feasible (strongly individually rational for MSIR, individually rational
for MIR), take the maximum number of satisfiable agents W from one solve,
then walk the agents in a fixed order trying to delete each agent's
weight-0 edges.  A deletion sticks only if a weight-W perfect matching
still exists; the flag recorded for the agent says whether it is now
guaranteed an acceptable house in every remaining optimum.

That one solve is the only one.  The solver's optimum and dual potentials
are carried through the walk, and each round is decided from them:

* the agent holds a weight-1 edge in the current optimum: the optimum
  survives the deletion, so the round is accepted with weight W and no
  search;
* otherwise its matched edge is among the deleted ones: one shortest-path
  search from the agent, warm-started from the duals, gives the exact
  optimum weight after the deletion (or none), which decides the round
  and is what the trace records.  A rejected round puts the edges back
  and leaves the optimum and duals untouched.

The final allocation is the lexicographically smallest optimum of the
refined graph, read once from the carried duals at the end.  Under optimal
duals the optima are exactly the perfect matchings of the tight subgraph,
so that lex-min optimum does not depend on which optimum the walk started
from or passed through.

Graph shape (k = |n - m| dummies pad the short side):

* an agent is *free* when it has no endowment, or, under MIR, when its
  endowment is unacceptable.  A free agent is connected to every right
  vertex, with weight 1 iff that vertex is a real house the agent accepts,
  so it may trade into any house or end up with nothing (a dummy house);
* every other agent is connected to its endowment, with weight 1 iff the
  endowment is acceptable, and with weight 1 to each of its other
  acceptable houses -- except under MSIR when the endowment is acceptable,
  which pins the agent to it;
* dummy agents are connected to every right vertex with weight 0.

So the perfect matchings are exactly the S-IR allocations under MSIR and
the IR allocations under MIR.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .matching import (
    Matching,
    OptimalMatching,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
)
from .model import Allocation, Instance, welfare
from .rng import SplitMix64


class Mechanism(str, Enum):
    MSIR = "msir"
    MIR = "mir"


class InfeasibleInput(ValueError):
    """The mechanism graph has no perfect matching; the graph builder never
    produces such a graph."""


class MechanismInvariantError(RuntimeError):
    """A postcondition the mechanism guarantees by construction failed."""


class PermutationError(ValueError):
    pass


@dataclass(frozen=True)
class PermutationPolicy:
    """How the agent processing order is chosen.

    The order is fixed before preferences are read; keeping it independent
    of the reports is what the strategyproofness argument leans on.
    """

    kind: str
    order: tuple[str, ...] | None = None
    seed: int | None = None

    @classmethod
    def identity(cls) -> "PermutationPolicy":
        return cls(kind="identity")

    @classmethod
    def explicit(cls, order: tuple[str, ...]) -> "PermutationPolicy":
        return cls(kind="explicit", order=tuple(order))

    @classmethod
    def seeded(cls, seed: int) -> "PermutationPolicy":
        try:
            SplitMix64(seed)
        except ValueError as exc:
            raise PermutationError(str(exc)) from None
        return cls(kind="seeded", seed=seed)

    def realize(self, agents: tuple[str, ...]) -> tuple[str, ...]:
        if self.kind == "identity":
            return tuple(agents)
        if self.kind == "explicit":
            assert self.order is not None
            if sorted(self.order) != sorted(agents) or len(self.order) != len(agents):
                raise PermutationError("explicit order is not a permutation of the agents")
            return self.order
        if self.kind == "seeded":
            assert self.seed is not None
            indices = list(range(len(agents)))
            SplitMix64(self.seed).shuffle(indices)
            return tuple(agents[i] for i in indices)
        raise PermutationError(f"unknown permutation policy {self.kind!r}")


@dataclass(frozen=True)
class RoundRecord:
    """One refinement round: which edges went, what weight the optimum
    kept without them."""

    agent: str
    removed: tuple[str, ...]  # right-vertex labels of the removed edges
    weight: int | None  # None when no perfect matching remained
    accepted: bool


@dataclass(frozen=True)
class MechanismTrace:
    initial_weight: int
    permutation: tuple[str, ...]
    satisfied_flags: dict[str, int]
    rounds: tuple[RoundRecord, ...]


@dataclass(frozen=True)
class MechanismResult:
    allocation: Allocation
    trace: MechanismTrace


def _fresh_labels(prefix: str, count: int, taken: set[str]) -> list[str]:
    # Dummy labels must not collide with user-chosen ids.
    labels: list[str] = []
    k = 0
    while len(labels) < count:
        candidate = f"{prefix}{k}"
        k += 1
        if candidate in taken:
            continue
        labels.append(candidate)
        taken.add(candidate)
    return labels


def _padded_sides(instance: Instance) -> tuple[tuple[str, ...], tuple[str, ...]]:
    n, m = instance.num_agents, instance.num_houses
    taken = set(instance.agents) | set(instance.houses)
    left = list(instance.agents)
    right = list(instance.houses)
    if m > n:
        left.extend(_fresh_labels("~dummy_agent_", m - n, taken))
    elif n > m:
        right.extend(_fresh_labels("~dummy_house_", n - m, taken))
    return tuple(left), tuple(right)


def build_graph(instance: Instance, mechanism: Mechanism) -> WeightedBipartiteGraph:
    """Feasibility graph whose perfect matchings are the S-IR (MSIR) or the
    IR (MIR) allocations; the shape is the module docstring's rule."""
    left, right = _padded_sides(instance)
    m = instance.num_houses
    hidx = instance.house_index
    msir = mechanism is Mechanism.MSIR
    rows: list[dict[int, int]] = []
    for agent in instance.agents:
        row: dict[int, int] = {}
        own = instance.endowment_of(agent)
        acc = instance.acceptable[agent]
        liked = own in acc
        if own is None or not (msir or liked):
            for rj in range(len(right)):
                row[rj] = 1 if rj < m and right[rj] in acc else 0
        else:
            row[hidx[own]] = 1 if liked else 0
            if not (msir and liked):
                for house in instance.houses:
                    if house in acc and house != own:
                        row[hidx[house]] = 1
        rows.append(row)
    rows.extend(  # dummy agents
        dict.fromkeys(range(len(right)), 0) for _ in range(len(left) - len(rows))
    )
    return WeightedBipartiteGraph(left, right, rows)


def serial_refinement(
    graph: WeightedBipartiteGraph,
    permutation: tuple[str, ...],
    optimum: OptimalMatching,
) -> tuple[Matching, dict[str, int], tuple[RoundRecord, ...]]:
    """Process agents in order, locking in acceptable houses where possible.

    ``optimum`` is the solver's optimum of ``graph``, duals included; its
    weight is the target W.  For each agent: drop all its weight-0 edges and
    keep the drop (flag 1) iff a perfect matching of weight W survives;
    otherwise put the edges back (flag 0).  Each round is decided from the
    optimum carried over from the round before, as the module docstring
    describes.  Mutates ``graph`` and ``optimum`` in place and returns the
    final, lexicographically smallest optimum alongside the flags and the
    per-round log.
    """
    target = optimum.weight
    index = {label: i for i, label in enumerate(graph.left)}
    flags: dict[str, int] = {}
    rounds: list[RoundRecord] = []
    for agent in permutation:
        if agent not in index:
            raise PermutationError(f"permutation names unknown agent {agent!r}")
        removed, weight, accepted = optimum.drop_zero_edges(index[agent], target)
        flags[agent] = 1 if accepted else 0
        rounds.append(
            RoundRecord(
                agent=agent,
                removed=tuple(graph.right[rj] for rj in removed),
                weight=weight,
                accepted=accepted,
            )
        )
    return optimum.canonical(), flags, tuple(rounds)


def run_mechanism(
    instance: Instance,
    mechanism: Mechanism,
    policy: PermutationPolicy | None = None,
) -> MechanismResult:
    """Run MSIR or MIR end to end and return the allocation plus its trace."""
    policy = policy or PermutationPolicy.identity()
    graph = build_graph(instance, mechanism)

    optimum = max_weight_perfect_matching(graph)  # the run's only full solve
    if optimum is None:
        raise InfeasibleInput("mechanism graph admits no perfect matching")
    target = optimum.weight

    permutation = policy.realize(instance.agents)
    final, flags, rounds = serial_refinement(graph, permutation, optimum)

    allocation = _extract_allocation(instance, final)
    trace = MechanismTrace(
        initial_weight=target,
        permutation=permutation,
        satisfied_flags=flags,
        rounds=rounds,
    )
    _check_postconditions(instance, allocation, trace)
    return MechanismResult(allocation=allocation, trace=trace)


def _extract_allocation(instance: Instance, final: Matching) -> Allocation:
    m = instance.num_houses
    assignment: dict[str, str | None] = {}
    for ai, agent in enumerate(instance.agents):
        rj = final.assignment[ai]
        assignment[agent] = instance.houses[rj] if rj < m else None
    return Allocation(assignment=assignment)


def _check_postconditions(
    instance: Instance, allocation: Allocation, trace: MechanismTrace
) -> None:
    achieved = welfare(instance, allocation)
    if achieved != trace.initial_weight:
        raise MechanismInvariantError(
            f"allocation welfare {achieved} != matching weight {trace.initial_weight}"
        )
    if sum(trace.satisfied_flags.values()) != trace.initial_weight:
        raise MechanismInvariantError("satisfied flags do not sum to the weight")
    flagged = {a for a, f in trace.satisfied_flags.items() if f == 1}
    satisfied = {
        a
        for a, h in allocation.assignment.items()
        if h is not None and h in instance.acceptable[a]
    }
    if flagged != satisfied:
        raise MechanismInvariantError("flagged agents differ from satisfied agents")
