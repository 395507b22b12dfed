"""Seeded random market generation.

The draw order is part of the contract so that other implementations can
reproduce instances bit for bit from the same seed:

1. one Bernoulli(endow_prob) per agent, in agent order;
2. each agent that drew true, again in agent order, takes
   ``unowned[bounded(len(unowned))]`` where ``unowned`` is the remaining
   houses in house order; once no house is left the rest stay unendowed
   (no draw is consumed);
3. one Bernoulli(accept_prob) per (agent, house) pair, agents outer loop,
   houses inner, both in index order.

All draws come from :class:`housealloc.rng.SplitMix64` seeded with
``params.seed``.  Agents are named ``a1..an`` and houses ``h1..hm``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, validate_instance
from .rng import SplitMix64


class InvalidParams(ValueError):
    pass


@dataclass(frozen=True)
class GenParams:
    agents: int
    houses: int
    endow_prob: float
    accept_prob: float
    seed: int

    def validated(self) -> "GenParams":
        if self.agents < 0 or self.houses < 0:
            raise InvalidParams("agent and house counts must be non-negative")
        for name, p in (("endow_prob", self.endow_prob), ("accept_prob", self.accept_prob)):
            if not 0.0 <= p <= 1.0:
                raise InvalidParams(f"{name} must lie in [0, 1], got {p}")
        try:
            SplitMix64(self.seed)
        except ValueError as exc:
            raise InvalidParams(str(exc)) from None
        return self


def random_instance(params: GenParams) -> Instance:
    """Deterministic function of the parameters; same seed, same instance."""
    params = params.validated()
    rng = SplitMix64(params.seed)
    agents = [f"a{i + 1}" for i in range(params.agents)]
    houses = [f"h{j + 1}" for j in range(params.houses)]

    wants = [rng.bernoulli(params.endow_prob) for _ in agents]
    endowment: dict[str, str] = {}
    unowned = list(houses)
    for agent, wanted in zip(agents, wants):
        if wanted and unowned:
            endowment[agent] = unowned.pop(rng.bounded(len(unowned)))

    acceptable: dict[str, set[str]] = {}
    for agent in agents:
        acceptable[agent] = {h for h in houses if rng.bernoulli(params.accept_prob)}

    return validate_instance(agents, houses, endowment, acceptable)


def trial_params(master_seed: int, trial: int, max_agents: int, max_houses: int) -> GenParams:
    """Parameter schedule for sweeps: a deterministic function of the master
    seed and trial index.

    Even trials sample the general regime, sizes 0..max independently and
    probabilities from {0, 0.25, 0.5, 0.75, 1}, so empty acceptable sets,
    acceptable endowments, unendowed agents and unowned houses all occur
    with sizeable frequency.  Odd trials sample the dense market regime
    (n = m, everyone endowed, sparse acceptability), where the rare
    structures such as trading cycles among late-indexed agents actually
    show up at a measurable rate.
    """
    rng = SplitMix64(master_seed)
    for _ in range(trial):
        rng.next_u64()
    derived = SplitMix64(rng.next_u64())
    if trial % 2 == 1:
        k = min(max_agents, max_houses)
        accept_prob = (0.2, 0.25, 0.3)[derived.bounded(3)]
        return GenParams(
            agents=k, houses=k, endow_prob=1.0, accept_prob=accept_prob,
            seed=derived.next_u64(),
        )
    n = derived.bounded(max_agents + 1)
    m = derived.bounded(max_houses + 1)
    endow_prob = derived.bounded(5) / 4
    accept_prob = derived.bounded(5) / 4
    seed = derived.next_u64()
    return GenParams(
        agents=n, houses=m, endow_prob=endow_prob, accept_prob=accept_prob, seed=seed
    )
