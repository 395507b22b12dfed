"""Core data model: housing markets with existing tenants and 1-0 utilities.

A market consists of agents, houses, a partial (injective) endowment map and
one acceptable-house set per agent.  An agent is satisfied exactly when it is
assigned a house from its acceptable set; welfare counts satisfied agents.

Agents and houses carry stable string identifiers externally; every algorithm
in this package iterates them in the order the instance lists them, which is
what makes all downstream tie-breaking deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping


class ModelError(ValueError):
    """Base class for instance/allocation validation failures."""


class DuplicateAgentId(ModelError):
    pass


class DuplicateHouseId(ModelError):
    pass


class DuplicateEndowment(ModelError):
    """Two agents claim the same house as their endowment."""


class UnknownAgent(ModelError):
    pass


class UnknownHouse(ModelError):
    pass


class InvalidAllocation(ModelError):
    """Allocation assigns an unknown house or one house to two agents."""


@dataclass(frozen=True)
class Instance:
    """A validated housing market.

    Construct through :func:`validate_instance`; direct construction skips
    validation and is reserved for code that already holds normalized data.
    """

    agents: tuple[str, ...]
    houses: tuple[str, ...]
    endowment: dict[str, str]
    acceptable: dict[str, frozenset[str]]

    @cached_property
    def agent_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.agents)}

    @cached_property
    def house_index(self) -> dict[str, int]:
        return {h: j for j, h in enumerate(self.houses)}

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_houses(self) -> int:
        return len(self.houses)

    def endowment_of(self, agent: str) -> str | None:
        return self.endowment.get(agent)

    def check_report(self, agent: str, reported: frozenset[str]) -> None:
        """Raise unless ``agent`` is one of this market's agents and
        ``reported`` names only its houses."""
        if agent not in self.agent_index:
            raise UnknownAgent(f"unknown agent {agent!r}")
        if not reported <= self.house_index.keys():
            raise UnknownHouse(f"agent {agent!r} reports an unknown house acceptable")

    def with_report(self, agent: str, reported: frozenset[str]) -> "Instance":
        """This market with ``agent`` reporting ``reported`` as its
        acceptable set.  Agents and houses are the same, so the indexes are
        shared rather than rebuilt."""
        self.check_report(agent, reported)
        twisted = Instance(
            self.agents, self.houses, self.endowment, {**self.acceptable, agent: reported}
        )
        vars(twisted).update(agent_index=self.agent_index, house_index=self.house_index)
        return twisted


@dataclass(frozen=True, eq=True)
class Allocation:
    """An injective partial assignment of houses to agents.

    ``assignment`` maps agent id to house id or None; agents missing from the
    map receive nothing, same as an explicit None.
    """

    assignment: dict[str, str | None] = field(default_factory=dict)

    def house_of(self, agent: str) -> str | None:
        return self.assignment.get(agent)


def validate_instance(
    agents: Iterable[str],
    houses: Iterable[str],
    endowment: Mapping[str, str | None],
    acceptable: Mapping[str, Iterable[str]],
) -> Instance:
    """Validate candidate market data and return a normalized Instance.

    Enforces: unique agent and house ids that encode as UTF-8 (no lone
    surrogate, which JSON text may escape), endowment injective and restricted
    to known agents/houses, acceptable sets restricted to known houses.
    Agents absent from ``acceptable`` get an empty set; None endowments are
    treated as absent.
    """
    agent_list = tuple(agents)
    house_list = tuple(houses)
    for name, ids, exc in (
        ("agent", agent_list, DuplicateAgentId),
        ("house", house_list, DuplicateHouseId),
    ):
        seen: set[str] = set()
        for x in ids:
            if not isinstance(x, str):
                raise ModelError(f"{name} id {x!r} is not a string")
            if not x.isascii():
                try:
                    x.encode("utf-8")
                except UnicodeEncodeError:
                    raise ModelError(f"{name} id {x!r} holds a lone surrogate") from None
            if x in seen:
                raise exc(f"duplicate {name} id {x!r}")
            seen.add(x)

    agent_set = set(agent_list)
    house_set = set(house_list)

    endow: dict[str, str] = {}
    owned: set[str] = set()
    for agent in agent_list:
        house = endowment.get(agent)
        if house is None:
            continue
        if house not in house_set:
            raise UnknownHouse(f"endowment of agent {agent!r} is unknown house {house!r}")
        if house in owned:
            raise DuplicateEndowment(f"house {house!r} is endowed to two agents")
        owned.add(house)
        endow[agent] = house
    for agent in endowment:
        if agent not in agent_set:
            raise UnknownAgent(f"endowment lists unknown agent {agent!r}")

    accept: dict[str, frozenset[str]] = {}
    for agent in acceptable:
        if agent not in agent_set:
            raise UnknownAgent(f"acceptable sets list unknown agent {agent!r}")
    for agent in agent_list:
        wanted = frozenset(acceptable.get(agent, ()))
        for house in wanted:
            if house not in house_set:
                raise UnknownHouse(f"agent {agent!r} finds unknown house {house!r} acceptable")
        accept[agent] = wanted

    return Instance(agents=agent_list, houses=house_list, endowment=endow, acceptable=accept)


def validate_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise InvalidAllocation unless the allocation is injective on known
    houses and mentions only known agents."""
    used: set[str] = set()
    for agent, house in allocation.assignment.items():
        if agent not in instance.agent_index:
            raise InvalidAllocation(f"allocation mentions unknown agent {agent!r}")
        if house is None:
            continue
        if house not in instance.house_index:
            raise InvalidAllocation(f"agent {agent!r} is assigned unknown house {house!r}")
        if house in used:
            raise InvalidAllocation(f"house {house!r} is assigned to two agents")
        used.add(house)


def utility(instance: Instance, agent: str, house: str | None) -> int:
    """1 if ``house`` is acceptable to ``agent``, else 0; None gives 0."""
    if agent not in instance.agent_index:
        raise UnknownAgent(f"unknown agent {agent!r}")
    if house is None:
        return 0
    if house not in instance.house_index:
        raise UnknownHouse(f"unknown house {house!r}")
    return 1 if house in instance.acceptable[agent] else 0


def satisfied_set(instance: Instance, allocation: Allocation) -> frozenset[str]:
    """The agents whose assigned house lies in their acceptable set."""
    validate_allocation(instance, allocation)
    return frozenset(
        agent
        for agent, house in allocation.assignment.items()
        if house is not None and house in instance.acceptable[agent]
    )


def welfare(instance: Instance, allocation: Allocation) -> int:
    """Number of satisfied agents under 1-0 utilities."""
    return len(satisfied_set(instance, allocation))
