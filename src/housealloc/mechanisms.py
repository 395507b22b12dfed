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
are carried through the walk, and each round hands the solver the agent's
row without its weight-0 edges
(:meth:`~housealloc.matching.OptimalMatching.replace_row` with floor W):

* the agent holds a weight-1 edge in the current optimum: the optimum
  survives the deletion, so the round is accepted with weight W and no
  search;
* otherwise its matched edge is among the deleted ones: one shortest-path
  search from the agent, warm-started from the duals, gives the exact
  optimum weight after the deletion (or none), which decides the round
  and is what the trace records.  A rejected round leaves the agent's old
  row, the optimum and the duals as they were.

The final allocation is the lexicographically smallest optimum of the
refined graph, read once from the carried duals at the end.  Under optimal
duals the optima are exactly the perfect matchings of the tight subgraph,
so that lex-min optimum does not depend on which optimum the walk started
from or passed through.

For the same reason a misreport needs no solve of its own: it changes
only the reporter's row, so each report's run starts from a copy of the
truthful optimum with the new row put in by the same repair (floor 0),
and ends exactly where a cold run would.  So every run starts from a
:class:`Solved`, which solves once and makes the truthful run, all that
:func:`run_mechanism` returns; ``report`` shares one between its
property checks and its misreport sweep.

Graph shape: max(n, m) vertices a side.  Left vertex i < n is agent i,
right vertex j < m is house j, and unnamed dummies pad the short side (a
trace names dummy houses by :func:`_right_labels`).  The edges:

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
from typing import Iterable, Iterator, NamedTuple

from .matching import OptimalMatching, max_weight_perfect_matching
from .model import Allocation, Instance, satisfied_set
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
            return tuple([agents[i] for i in indices])
        raise PermutationError(f"unknown permutation policy {self.kind!r}")


class RoundRecord(NamedTuple):
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


def _right_labels(instance: Instance) -> tuple[str, ...]:
    """Names of the right vertices as a trace shows them: the houses, then
    ``~dummy_house_k`` for each dummy house, skipping every k whose label
    is already an agent or house id."""
    taken = set(instance.agents) | set(instance.houses)
    labels = list(instance.houses)
    k = 0
    while len(labels) < instance.num_agents:
        candidate = f"~dummy_house_{k}"
        k += 1
        if candidate not in taken:
            labels.append(candidate)
    return tuple(labels)


def _agent_row(
    instance: Instance,
    own: str | None,
    acc: frozenset[str],
    mechanism: Mechanism,
    size: int,
) -> dict[int, int]:
    """The row over ``size`` right vertices of an agent of ``instance`` with
    endowment ``own`` that reports ``acc`` acceptable, by the module
    docstring's rule."""
    hidx = instance.house_index
    liked = own in acc
    msir = mechanism is Mechanism.MSIR
    if own is None or not (msir or liked):
        row = dict.fromkeys(range(size), 0)
        for house in acc:
            row[hidx[house]] = 1
        return row
    row = {hidx[own]: 1 if liked else 0}
    if not (msir and liked):
        for house in instance.houses:
            if house in acc and house != own:
                row[hidx[house]] = 1
    return row


def build_graph(instance: Instance, mechanism: Mechanism) -> list[dict[int, int]]:
    """Rows of the feasibility graph whose perfect matchings are the S-IR
    (MSIR) or the IR (MIR) allocations; the shape is the module docstring's
    rule."""
    size = max(instance.num_agents, instance.num_houses)
    acceptable = instance.acceptable
    rows = [
        _agent_row(instance, instance.endowment_of(a), acceptable[a], mechanism, size)
        for a in instance.agents
    ]
    rows.extend(dict.fromkeys(range(size), 0) for _ in range(size - len(rows)))  # dummy agents
    return rows


def serial_refinement(
    instance: Instance,
    permutation: tuple[str, ...],
    optimum: OptimalMatching,
    labels: tuple[str, ...],
) -> tuple[dict[str, int], tuple[RoundRecord, ...]]:
    """Process agents in order, locking in acceptable houses where possible.

    ``optimum`` is the solver's optimum of the mechanism graph of
    ``instance``, duals included; its weight is the target W.  For each
    agent: replace its row by the row's weight-1 edges and keep the
    replacement (flag 1) iff a perfect matching of weight W survives;
    otherwise the old row stays (flag 0).  Each round is decided from the
    optimum carried over from the round before, as the module docstring
    describes, and records the removed weight-0 edges' right vertices by
    their ``labels``, in index order.  Mutates ``optimum`` in place,
    leaving it at the lexicographically smallest optimum, and returns the
    flags and the per-round log.
    """
    target = optimum.weight
    rows = optimum.rows
    index = instance.agent_index
    flags: dict[str, int] = {}
    rounds: list[RoundRecord] = []
    for agent in permutation:
        if agent not in index:
            raise PermutationError(f"permutation names unknown agent {agent!r}")
        li = index[agent]
        row = rows[li]
        weight = optimum.replace_row(li, {rj: w for rj, w in row.items() if w}, target)
        accepted = weight is not None and weight >= target
        flags[agent] = 1 if accepted else 0
        removed = tuple([labels[rj] for rj in sorted(rj for rj, w in row.items() if not w)])
        rounds.append(RoundRecord(agent, removed, weight, accepted))
    optimum.canonical()
    return flags, tuple(rounds)


def run_mechanism(
    instance: Instance,
    mechanism: Mechanism,
    policy: PermutationPolicy | None = None,
) -> MechanismResult:
    """Run MSIR or MIR end to end and return the allocation plus its trace."""
    return Solved(instance, mechanism, policy).truthful


class Solved:
    """The mechanism graph of an instance, solved once, and its truthful
    run ``truthful``; the optimum is the warm start of every run with one
    agent's report changed, each refining its own copy.  The runs share
    the right-vertex labels, since a report changes no agent or house."""

    __slots__ = ("instance", "labels", "mechanism", "optimum", "permutation", "truthful")

    def __init__(
        self,
        instance: Instance,
        mechanism: Mechanism,
        policy: PermutationPolicy | None = None,
    ) -> None:
        policy = policy or PermutationPolicy.identity()
        optimum = max_weight_perfect_matching(build_graph(instance, mechanism))
        if optimum is None:
            raise InfeasibleInput("mechanism graph admits no perfect matching")
        self.instance = instance
        self.mechanism = mechanism
        self.optimum = optimum
        self.permutation = policy.realize(instance.agents)
        self.labels = _right_labels(instance)
        self.truthful = _refine(instance, optimum.copy(), self.permutation, self.labels)

    def misreports(
        self, agent: str, reports: Iterable[frozenset[str]], wanted: frozenset[str]
    ) -> Iterator[tuple[frozenset[str], MechanismResult]]:
        """The runs with ``agent`` reporting each of ``reports`` in turn whose
        graph row has an edge to a house in ``wanted``, as (report, result)
        pairs in the order of ``reports``, produced lazily.  Each result
        equals ``run_mechanism(instance.with_report(agent, reported),
        mechanism, policy)``.

        A report skipped gives the agent no house in ``wanted``: refinement
        only deletes edges and the allocation is read from a perfect matching
        of the refined rows, so the agent ends on a vertex of its own row."""
        instance, mechanism = self.instance, self.mechanism
        hidx = instance.house_index
        targets = {hidx[house] for house in wanted}
        own = instance.endowment_of(agent)
        size = len(self.optimum.rows)
        for reported in reports:
            instance.check_report(agent, reported)
            row = _agent_row(instance, own, reported, mechanism, size)
            if targets.isdisjoint(row):
                continue
            optimum = self.optimum.copy()
            if optimum.replace_row(instance.agent_index[agent], row, 0) is None:
                raise InfeasibleInput("mechanism graph admits no perfect matching")
            twisted = instance.with_report(agent, reported)
            yield reported, _refine(twisted, optimum, self.permutation, self.labels)


def _refine(
    instance: Instance,
    optimum: OptimalMatching,
    permutation: tuple[str, ...],
    labels: tuple[str, ...],
) -> MechanismResult:
    """Everything a run does after the full solve: the refinement walk, the
    lex-min allocation, the trace and the postconditions."""
    target = optimum.weight
    flags, rounds = serial_refinement(instance, permutation, optimum, labels)
    allocation = _extract_allocation(instance, optimum)
    trace = MechanismTrace(
        initial_weight=target,
        permutation=permutation,
        satisfied_flags=flags,
        rounds=rounds,
    )
    _check_postconditions(instance, allocation, trace)
    return MechanismResult(allocation=allocation, trace=trace)


def _extract_allocation(instance: Instance, optimum: OptimalMatching) -> Allocation:
    m = instance.num_houses
    assignment: dict[str, str | None] = {}
    for ai, agent in enumerate(instance.agents):
        rj = optimum.mate[ai]
        assignment[agent] = instance.houses[rj] if rj < m else None
    return Allocation(assignment=assignment)


def _check_postconditions(
    instance: Instance, allocation: Allocation, trace: MechanismTrace
) -> None:
    satisfied = satisfied_set(instance, allocation)
    if len(satisfied) != trace.initial_weight:
        raise MechanismInvariantError(
            f"allocation welfare {len(satisfied)} != matching weight {trace.initial_weight}"
        )
    if sum(trace.satisfied_flags.values()) != trace.initial_weight:
        raise MechanismInvariantError("satisfied flags do not sum to the weight")
    flagged = {a for a, f in trace.satisfied_flags.items() if f == 1}
    if flagged != satisfied:
        raise MechanismInvariantError("flagged agents differ from satisfied agents")
