"""Mechanism-agnostic verification of allocation properties.

Everything here is deliberately independent of the matching solver the
mechanisms run on: welfare maxima come from exhaustive enumeration of
injective partial assignments, and the maximum welfare, the Pareto
certificate and the core and strict-core searches come from one
augmenting-path matcher of its own (Kuhn's, with an explicit stack, so its
depth is not bounded by the interpreter's recursion limit).  Every
negative verdict carries a witness that a standalone checker can
re-validate without re-running the search that found it.

Pareto optimality has one route, the matching certificate: an allocation
is dominated iff its satisfied agents plus one more can all be given
acceptable houses.  The core searches are polynomial yet return the
witness an enumeration of every coalition would: the blocking coalition
with the smallest bit mask over the candidate agents in agent order (bit i
is the i-th candidate), found bit by bit from the top with one matching
per step.

The misreport sweep is the one check that runs the mechanism itself, on
every report of every agent that could pay.  It takes the mechanism's
:class:`housealloc.mechanisms.Solved` and solves nothing itself: each
report swaps the reporter's row into a copy of that optimum and repairs it
with at most one search, with the same results as a cold run per report.
Its witnesses are re-checked by two cold runs.

The two exhaustive searches left have fixed size limits: the welfare
enumeration takes at most ``MAX_ALLOC_AGENTS`` x ``MAX_ALLOC_HOUSES``
and the misreport sweep at most ``MAX_MISREPORT_HOUSES`` houses.  A larger
input raises :class:`BudgetExceeded` rather than being silently
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mechanisms import Mechanism, PermutationPolicy, Solved, run_mechanism
from .model import (
    Allocation,
    Instance,
    InvalidAllocation,
    UnknownAgent,
    UnknownHouse,
    satisfied_set,
    utility,
    validate_allocation,
    welfare,
)

PROPERTY_KEYS = ("ir", "sir", "po", "core", "strict-core", "maxw", "maxw-ir", "maxw-sir")

# Size limits of the two exhaustive searches: the enumeration behind
# welfare_maxima and the 2^m-report sweep of check_strategyproofness.
MAX_ALLOC_AGENTS = 8
MAX_ALLOC_HOUSES = 8
MAX_MISREPORT_HOUSES = 6


class BudgetExceeded(ValueError):
    """Instance too large for the requested exhaustive search."""


# --------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True)
class ViolationWitness:
    """An agent whose assignment breaks IR or S-IR."""

    agent: str
    endowment: str | None
    assigned: str | None


@dataclass(frozen=True)
class DominationWitness:
    """An allocation leaving every agent at least as well off and one better."""

    allocation: Allocation


@dataclass(frozen=True)
class BlockingWitness:
    """A coalition that strictly improves by trading only its own endowments."""

    coalition: tuple[str, ...]
    reallocation: dict[str, str]


@dataclass(frozen=True)
class WeakBlockingWitness:
    """A coalition trade leaving all members weakly better, one strictly."""

    coalition: tuple[str, ...]
    reallocation: dict[str, str]
    improving_agent: str


@dataclass(frozen=True)
class ManipulationWitness:
    """A report that strictly raises the reporting agent's true utility."""

    agent: str
    reported: frozenset[str]
    truthful_utility: int
    misreport_utility: int


@dataclass(frozen=True)
class WelfareGapWitness:
    """Shows the welfare target an allocation missed, with an exemplar."""

    achieved: int
    target: int
    exemplar: Allocation


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: object | None = None


@dataclass(frozen=True)
class PropertyReport:
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts.values())


# --------------------------------------------------------------------------
# Individual rationality


def is_ir(instance: Instance, allocation: Allocation) -> bool:
    """No agent ends up below its endowment utility."""
    return ir_violation(instance, allocation) is None


def is_sir(instance: Instance, allocation: Allocation) -> bool:
    """Every endowed agent keeps its endowment exactly or strictly gains."""
    return sir_violation(instance, allocation) is None


def ir_violation(instance: Instance, allocation: Allocation) -> ViolationWitness | None:
    """First agent (in index order) whose assignment breaks IR, if any."""
    validate_allocation(instance, allocation)
    for agent in instance.agents:
        own = instance.endowment_of(agent)
        if own is None or own not in instance.acceptable[agent]:
            continue  # endowment worth 0: any outcome is weakly better
        got = allocation.house_of(agent)
        if got is None or got not in instance.acceptable[agent]:
            return ViolationWitness(agent=agent, endowment=own, assigned=got)
    return None


def sir_violation(instance: Instance, allocation: Allocation) -> ViolationWitness | None:
    """First agent (in index order) whose assignment breaks S-IR, if any."""
    validate_allocation(instance, allocation)
    for agent in instance.agents:
        own = instance.endowment_of(agent)
        if own is None:
            continue
        got = allocation.house_of(agent)
        if got == own:
            continue
        strictly_better = (
            got is not None
            and got in instance.acceptable[agent]
            and own not in instance.acceptable[agent]
        )
        if not strictly_better:
            return ViolationWitness(agent=agent, endowment=own, assigned=got)
    return None


# --------------------------------------------------------------------------
# Augmenting-path matcher (independent of the matching module)


def _kuhn(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum-cardinality matching (Kuhn); the right vertex of each left
    vertex, or -1 if it stays unmatched.

    Left vertices are rooted in index order and ``adj[i]`` is scanned in the
    order given, each root seeing every right vertex afresh (``seen[j] ==
    root`` marks the ones its search visited), so the result is
    deterministic.  The depth-first search keeps its own stack: ``stack``
    holds the left vertices on the current alternating path with the next
    position to scan in each row, ``path`` the right vertex taken from each
    but the last.
    """
    match_right = [-1] * n_right
    seen = [-1] * n_right
    for root in range(len(adj)):
        stack = [[root, 0]]
        path: list[int] = []
        while stack:
            frame = stack[-1]
            i, pos = frame
            row = adj[i]
            while pos < len(row) and seen[row[pos]] == root:
                pos += 1
            if pos == len(row):  # i has no augmenting path left
                stack.pop()
                if path:
                    path.pop()
                continue
            j = row[pos]
            frame[1] = pos + 1
            seen[j] = root
            path.append(j)
            if match_right[j] == -1:  # augment along the whole path
                for (li, _), rj in zip(stack, path):
                    match_right[rj] = li
                break
            stack.append([match_right[j], 0])
    matched = [-1] * len(adj)
    for j, i in enumerate(match_right):
        if i != -1:
            matched[i] = j
    return matched


def _to_allocation(instance: Instance, choice: list[int]) -> Allocation:
    """The allocation giving agent i house ``choice[i]``, or nothing if -1."""
    return Allocation(
        assignment={
            a: (instance.houses[choice[i]] if choice[i] >= 0 else None)
            for i, a in enumerate(instance.agents)
        }
    )


# --------------------------------------------------------------------------
# Welfare maxima by exhaustive enumeration


@dataclass(frozen=True)
class WelfareMaxima:
    unconstrained: int
    ir: int
    sir: int
    unconstrained_argmax: Allocation
    ir_argmax: Allocation
    sir_argmax: Allocation


def welfare_maxima(instance: Instance) -> WelfareMaxima:
    """Maximum welfare over all, all IR, and all S-IR allocations.

    One exhaustive pass over every injective partial assignment of houses
    to agents (unacceptable assignments included, so the IR and S-IR
    predicates are applied literally).  Independent of the matching module.
    """
    n, m = instance.num_agents, instance.num_houses
    if n > MAX_ALLOC_AGENTS or m > MAX_ALLOC_HOUSES:
        raise BudgetExceeded(
            f"allocation enumeration over {n} agents x {m} houses exceeds the "
            f"budget of {MAX_ALLOC_AGENTS} x {MAX_ALLOC_HOUSES}"
        )

    acc_mask = [
        sum(1 << j for j, h in enumerate(instance.houses) if h in instance.acceptable[a])
        for a in instance.agents
    ]
    endow_idx = [
        instance.house_index[instance.endowment[a]] if a in instance.endowment else -1
        for a in instance.agents
    ]
    endow_acceptable = [
        endow_idx[i] >= 0 and (acc_mask[i] >> endow_idx[i]) & 1 == 1 for i in range(n)
    ]

    best = [-1, -1, -1]  # unconstrained, ir, sir
    floor = -1  # min(best), which changes only when a leaf raises best
    argmax: list[list[int]] = [[], [], []]  # always set: the endowments qualify for all three
    cur = [-1] * n

    def rec(i: int, used: int, wel: int, ir_ok: bool, sir_ok: bool) -> None:
        nonlocal floor
        if wel + (n - i) <= floor:
            return
        if i == n:
            if wel > best[0]:
                best[0] = wel
                argmax[0] = cur.copy()
            if ir_ok and wel > best[1]:
                best[1] = wel
                argmax[1] = cur.copy()
            if sir_ok and wel > best[2]:
                best[2] = wel
                argmax[2] = cur.copy()
            floor = min(best)
            return
        endowed = endow_idx[i] >= 0
        # receive nothing
        cur[i] = -1
        rec(i + 1, used, wel, ir_ok and not endow_acceptable[i], sir_ok and not endowed)
        # receive an unused house
        mask = acc_mask[i]
        for hj in range(m):
            if (used >> hj) & 1:
                continue
            liked = (mask >> hj) & 1 == 1
            next_ir = ir_ok and (liked or not endow_acceptable[i])
            next_sir = sir_ok and (
                not endowed
                or hj == endow_idx[i]
                or (liked and not endow_acceptable[i])
            )
            cur[i] = hj
            rec(i + 1, used | (1 << hj), wel + (1 if liked else 0), next_ir, next_sir)
        cur[i] = -1

    rec(0, 0, 0, True, True)
    return WelfareMaxima(
        unconstrained=best[0],
        ir=best[1],
        sir=best[2],
        unconstrained_argmax=_to_allocation(instance, argmax[0]),
        ir_argmax=_to_allocation(instance, argmax[1]),
        sir_argmax=_to_allocation(instance, argmax[2]),
    )


def max_welfare(instance: Instance) -> int:
    """Maximum number of simultaneously satisfiable agents, via maximum
    cardinality matching in the acceptability graph.  No size limit."""
    return max_welfare_allocation(instance)[0]


def max_welfare_allocation(instance: Instance) -> tuple[int, Allocation]:
    """Welfare maximum plus one allocation attaining it."""
    adj = [
        [j for j, h in enumerate(instance.houses) if h in instance.acceptable[a]]
        for a in instance.agents
    ]
    matched = _kuhn(adj, instance.num_houses)
    return sum(1 for j in matched if j >= 0), _to_allocation(instance, matched)


# --------------------------------------------------------------------------
# Pareto optimality by matching certificate


def is_pareto_optimal(
    instance: Instance, allocation: Allocation, method: str = "certificate"
) -> Verdict:
    """No allocation makes everyone weakly better and someone strictly better.

    Dominating the allocation means re-satisfying everyone it satisfies plus
    one more agent, which is a bipartite matching question; the witness
    serves the first unsatisfied agent, in agent order, for which that
    matching exists.  "certificate" is the only ``method``.
    """
    if method != "certificate":
        raise ValueError(f"unknown method {method!r}")
    validate_allocation(instance, allocation)
    return _po_certificate(instance, allocation)


def _po_certificate(instance: Instance, allocation: Allocation) -> Verdict:
    sat = satisfied_set(instance, allocation)
    sat_indices = [i for i, a in enumerate(instance.agents) if a in sat]
    acc_rows = [
        [j for j, h in enumerate(instance.houses) if h in instance.acceptable[a]]
        for a in instance.agents
    ]
    for j_idx, agent in enumerate(instance.agents):
        if agent in sat:
            continue
        group = sat_indices + [j_idx]
        matched = _kuhn([acc_rows[i] for i in group], instance.num_houses)
        if -1 in matched:
            continue
        choice = [-1] * instance.num_agents
        for pos, i in enumerate(group):
            choice[i] = matched[pos]
        return Verdict(False, DominationWitness(_to_allocation(instance, choice)))
    return Verdict(True)


# --------------------------------------------------------------------------
# Core and strict core


def is_core_stable(instance: Instance, allocation: Allocation) -> Verdict:
    """No coalition can strictly improve all members trading only its own
    endowments.  The candidates are the endowed, unsatisfied agents; the
    witness is the blocking coalition with the smallest bit mask over them
    in agent order, with the trade :func:`_first_blocking` gives it."""
    validate_allocation(instance, allocation)
    sat = satisfied_set(instance, allocation)
    base = [a for a in instance.agents if a in instance.endowment and a not in sat]
    found = _first_blocking(instance, base, frozenset(base), [None])
    return Verdict(True) if found is None else Verdict(False, BlockingWitness(*found[:2]))


def is_strict_core_stable(instance: Instance, allocation: Allocation) -> Verdict:
    """No coalition trade leaves all members weakly better and one strictly.
    The candidates are the endowed agents; the witness is the weakly
    blocking coalition with the smallest bit mask over them in agent order,
    its first unsatisfied member that can gain, and the trade for it."""
    validate_allocation(instance, allocation)
    sat = satisfied_set(instance, allocation)
    base = [a for a in instance.agents if a in instance.endowment]
    found = _first_blocking(instance, base, sat, [a for a in base if a not in sat])
    return Verdict(True) if found is None else Verdict(False, WeakBlockingWitness(*found))


def _first_blocking(
    instance: Instance, base: list[str], choosy: frozenset[str], winners: list[str | None]
) -> tuple[tuple[str, ...], dict[str, str], str | None] | None:
    """(members, reallocation, winner) of the blocking coalition of ``base``
    with the smallest bit mask (bit i is ``base[i]``), or None.

    S blocks with winner w (from ``winners``; None asks for none) when its
    endowments can be reassigned so that its ``choosy`` members and w get
    acceptable houses.  ``exists(forced, allowed)`` asks whether a blocking
    S with forced <= S <= allowed exists.  The top member is the least t
    with ``exists({t}, base[0..t])``; each lower bit stays clear while a
    coalition still exists without it.  The trade is the one the ascending
    enumeration stops at: no sit-outs, winners tried in member order.
    """
    pool = [instance.endowment[a] for a in base]
    likes = [[j for j, h in enumerate(pool) if h in instance.acceptable[a]] for a in base]
    picky = [a in choosy for a in base]
    can_win = set(winners)
    gains = [a in can_win for a in base]
    need_winner = None not in can_win

    def exists(forced: set[int], allowed: list[int]) -> bool:
        # Choosy members are rooted first and take an acceptable house or,
        # unforced, sit out on their own; then the would-be winners.  Kuhn
        # never unmatches a left vertex, so S exists iff every choosy member
        # and, if needed, one winner is matched; the rest take what is left.
        at = {b: p for p, b in enumerate(allowed)}
        keep = [b for b in allowed if picky[b]]
        adj = [
            ([] if b in forced else [at[b]]) + [at[j] for j in likes[b] if j in at] for b in keep
        ]
        adj += [[at[j] for j in likes[b] if j in at] for b in allowed if gains[b]]
        matched = _kuhn(adj, len(allowed))
        return -1 not in matched[: len(keep)] and (
            not need_winner or any(j != -1 for j in matched[len(keep):])
        )

    if need_winner and not exists(set(), list(range(len(base)))):
        return None  # no winner gains even with every agent allowed
    top = next((t for t in range(len(base)) if exists({t}, list(range(t + 1)))), None)
    if top is None:
        return None
    forced, allowed = {top}, list(range(top + 1))
    for b in range(top - 1, -1, -1):
        rest = [x for x in allowed if x != b]
        if exists(forced, rest):
            allowed = rest
        else:
            forced.add(b)
    members = tuple(base[b] for b in allowed)
    houses = [pool[b] for b in allowed]
    for w in winners:
        if w is not None and w not in members:
            continue
        adj = [
            [p for p, h in enumerate(houses) if h in instance.acceptable[a]]
            if a in choosy or a == w
            else list(range(len(houses)))
            for a in members
        ]
        matched = _kuhn(adj, len(houses))
        if -1 not in matched:
            return members, {a: houses[matched[i]] for i, a in enumerate(members)}, w
    raise AssertionError("the coalition search lost its blocking coalition")


# --------------------------------------------------------------------------
# Strategyproofness sweep


def check_strategyproofness(solved: Solved) -> ManipulationWitness | None:
    """Try every report that could pay, agent by agent in bit order, on the
    instance, mechanism and order of ``solved``; return the first report
    that strictly raises the reporting agent's true utility, if any.

    No run is made where none can pay.  With 1-0 utilities, agents already
    satisfied under truth-telling have nothing left to gain, and agents
    that accept no house have nothing to gain at all.  A report whose
    mechanism graph row has no edge into the agent's true acceptable set is
    skipped too (:meth:`Solved.reaches`): the allocation is read from a
    perfect matching of the refined rows and refinement only deletes
    edges, so the reporter always ends on a vertex of its own row.  That
    covers MSIR's pinned row for a report that accepts an endowment the
    agent truly does not.  Skipping keeps the order of the reports that
    run, so the first witness is the one the full sweep finds.

    The sweep solves nothing itself: ``solved`` holds the optimum and the
    truthful run, and every misreport run starts from that optimum with
    one row swap and at most one search.
    """
    instance = solved.instance
    m = instance.num_houses
    if m > MAX_MISREPORT_HOUSES:
        raise BudgetExceeded(
            f"misreport sweep over {m} houses exceeds the budget of {MAX_MISREPORT_HOUSES}"
        )
    houses = instance.houses
    every_report = [
        frozenset(houses[j] for j in range(m) if (bits >> j) & 1) for bits in range(1 << m)
    ]
    for agent in instance.agents:
        true_set = instance.acceptable[agent]
        got = solved.truthful.allocation.house_of(agent)
        if not true_set or (got is not None and got in true_set):
            continue
        reports = [
            reported
            for reported in every_report
            if reported != true_set and solved.reaches(agent, reported, true_set)
        ]
        for reported, outcome in zip(reports, solved.misreports(agent, reports)):
            landed = outcome.allocation.house_of(agent)
            if landed is not None and landed in true_set:
                return ManipulationWitness(
                    agent=agent,
                    reported=reported,
                    truthful_utility=0,
                    misreport_utility=1,
                )
    return None


# --------------------------------------------------------------------------
# Witness re-verification (kept separate from the searches above)


def _is_valid(instance: Instance, allocation: Allocation) -> bool:
    """Whether a witness's allocation is one of the instance's: known agents,
    known houses, no house given twice."""
    try:
        validate_allocation(instance, allocation)
    except InvalidAllocation:
        return False
    return True


def verify_violation_witness(
    instance: Instance, allocation: Allocation, witness: ViolationWitness, notion: str
) -> bool:
    """Re-check an IR ("ir") or S-IR ("sir") violation from its definition."""
    agent = witness.agent
    if agent not in instance.agent_index:
        return False
    got = allocation.house_of(agent)
    if got != witness.assigned:
        return False
    own = instance.endowment_of(agent)
    if notion == "ir":
        return utility(instance, agent, got) < utility(instance, agent, own)
    if notion == "sir":
        if own is None:
            return False
        strictly_better = (
            got is not None
            and got in instance.acceptable[agent]
            and own not in instance.acceptable[agent]
        )
        return got != own and not strictly_better
    raise ValueError(f"unknown notion {notion!r}")


def verify_domination_witness(
    instance: Instance, allocation: Allocation, witness: DominationWitness
) -> bool:
    other = witness.allocation
    if not _is_valid(instance, other):
        return False
    strict = False
    for agent in instance.agents:
        u_old = utility(instance, agent, allocation.house_of(agent))
        u_new = utility(instance, agent, other.house_of(agent))
        if u_new < u_old:
            return False
        if u_new > u_old:
            strict = True
    return strict


def _trade_changes(
    instance: Instance, allocation: Allocation, members: tuple[str, ...], realloc: dict[str, str]
) -> dict[str, int] | None:
    """Each member's utility change under a coalition trade, or None unless
    the members are distinct and endowed, the reallocation covers exactly
    them, and it hands out distinct houses from their endowments."""
    if not members or len(set(members)) != len(members) or set(realloc) != set(members):
        return None
    pool = {instance.endowment_of(a) for a in members}
    houses = list(realloc.values())
    if None in pool or len(set(houses)) != len(houses) or not set(houses) <= pool:
        return None
    return {
        a: utility(instance, a, realloc[a]) - utility(instance, a, allocation.house_of(a))
        for a in members
    }


def verify_blocking_witness(
    instance: Instance, allocation: Allocation, witness: BlockingWitness
) -> bool:
    changes = _trade_changes(instance, allocation, witness.coalition, witness.reallocation)
    return changes is not None and min(changes.values()) > 0


def verify_weak_blocking_witness(
    instance: Instance, allocation: Allocation, witness: WeakBlockingWitness
) -> bool:
    changes = _trade_changes(instance, allocation, witness.coalition, witness.reallocation)
    return (
        changes is not None
        and min(changes.values()) >= 0
        and changes.get(witness.improving_agent, 0) > 0
    )


def verify_manipulation_witness(
    instance: Instance,
    mechanism: Mechanism,
    witness: ManipulationWitness,
    policy: PermutationPolicy | None = None,
) -> bool:
    """Re-run both reports cold, independently of the sweep's warm starts;
    a witness naming an unknown agent or house is rejected."""
    agent = witness.agent
    try:
        twisted = instance.with_report(agent, frozenset(witness.reported))
    except (UnknownAgent, UnknownHouse):
        return False
    true_set = instance.acceptable[agent]
    truthful = run_mechanism(instance, mechanism, policy)
    u_true = utility(instance, agent, truthful.allocation.house_of(agent))
    outcome = run_mechanism(twisted, mechanism, policy)
    landed = outcome.allocation.house_of(agent)
    u_lied = 1 if (landed is not None and landed in true_set) else 0
    return u_lied > u_true


def verify_welfare_gap_witness(
    instance: Instance,
    allocation: Allocation,
    witness: WelfareGapWitness,
    constraint: str,
) -> bool:
    """The exemplar attains the claimed target under the claimed constraint."""
    if welfare(instance, allocation) != witness.achieved:
        return False
    if not _is_valid(instance, witness.exemplar):
        return False
    if welfare(instance, witness.exemplar) != witness.target:
        return False
    if constraint == "ir":
        return is_ir(instance, witness.exemplar)
    if constraint == "sir":
        return is_sir(instance, witness.exemplar)
    if constraint == "none":
        return True
    raise ValueError(f"unknown constraint {constraint!r}")


# --------------------------------------------------------------------------
# Property evaluation used by the CLI


def evaluate_properties(
    instance: Instance, allocation: Allocation, properties: tuple[str, ...]
) -> PropertyReport:
    """Evaluate the requested property keys against one allocation.

    The welfare keys share one branch; only ``maxw-ir`` and ``maxw-sir``
    run (at most once) the enumeration behind :func:`welfare_maxima`.
    """
    verdicts: dict[str, Verdict] = {}
    maxima: WelfareMaxima | None = None

    def constrained_maxima() -> WelfareMaxima:
        nonlocal maxima
        if maxima is None:
            maxima = welfare_maxima(instance)
        return maxima

    targets = {
        "maxw": lambda: max_welfare_allocation(instance),
        "maxw-ir": lambda: (constrained_maxima().ir, constrained_maxima().ir_argmax),
        "maxw-sir": lambda: (constrained_maxima().sir, constrained_maxima().sir_argmax),
    }
    for key in properties:
        if key == "ir":
            bad = ir_violation(instance, allocation)
            verdicts[key] = Verdict(bad is None, bad)
        elif key == "sir":
            bad = sir_violation(instance, allocation)
            verdicts[key] = Verdict(bad is None, bad)
        elif key == "po":
            verdicts[key] = is_pareto_optimal(instance, allocation)
        elif key == "core":
            verdicts[key] = is_core_stable(instance, allocation)
        elif key == "strict-core":
            verdicts[key] = is_strict_core_stable(instance, allocation)
        elif key in targets:
            target, exemplar = targets[key]()
            achieved = welfare(instance, allocation)
            gap = None if achieved == target else WelfareGapWitness(achieved, target, exemplar)
            verdicts[key] = Verdict(gap is None, gap)
        else:
            raise ValueError(f"unknown property {key!r}")
    return PropertyReport(verdicts=verdicts)
