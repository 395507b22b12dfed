import itertools
from pathlib import Path

import pytest

from housealloc.matching import max_weight_perfect_matching
from housealloc.model import Allocation, validate_instance
from housealloc.rng import SplitMix64

FIXTURES = Path(__file__).parent / "fixtures"


def make_e1():
    # 5 agents, 6 houses; agents 1-4 endowed with h1-h4; agent 5 unendowed.
    return validate_instance(
        agents=["1", "2", "3", "4", "5"],
        houses=["h1", "h2", "h3", "h4", "h5", "h6"],
        endowment={"1": "h1", "2": "h2", "3": "h3", "4": "h4"},
        acceptable={
            "1": {"h2"},
            "2": {"h3"},
            "3": {"h1"},
            "4": {"h5"},
            "5": {"h5", "h6"},
        },
    )


def make_e2():
    # Two agents, both owning a house they do not want; agent 1 wants 2's.
    return validate_instance(
        agents=["1", "2"],
        houses=["h1", "h2"],
        endowment={"1": "h1", "2": "h2"},
        acceptable={"1": {"h2"}, "2": set()},
    )


def make_e3():
    # Four agents in two crossing pairs: 1 and 4 want h2, 2 and 3 want h1.
    return validate_instance(
        agents=["1", "2", "3", "4"],
        houses=["h1", "h2", "h3", "h4"],
        endowment={"1": "h1", "2": "h2", "3": "h3", "4": "h4"},
        acceptable={"1": {"h2"}, "2": {"h1"}, "3": {"h1"}, "4": {"h2"}},
    )


def has_perfect_matching(rows):
    """True iff a perfect matching exists; edge weights are irrelevant."""
    return max_weight_perfect_matching(rows) is not None


def brute_force_optimum(rows):
    """Try every assignment sequence of the square graph ``rows`` in
    lexicographic order; keep the first one attaining the maximum weight.
    Returns (weight, assignment) or None."""
    best = None
    for perm in itertools.permutations(range(len(rows))):
        weight = 0
        for li, rj in enumerate(perm):
            w = rows[li].get(rj)
            if w is None:
                break
            weight += w
        else:
            if best is None or weight > best[0]:
                best = (weight, perm)
    return best


def random_allocation(inst, salt):
    """A seeded random allocation: each agent in turn takes the next house
    of a shuffled list with probability 0.6."""
    rng = SplitMix64(salt * 2654435761 + 17)
    houses = list(inst.houses)
    rng.shuffle(houses)
    assignment = {}
    k = 0
    for a in inst.agents:
        if k < len(houses) and rng.bernoulli(0.6):
            assignment[a] = houses[k]
            k += 1
        else:
            assignment[a] = None
    return Allocation(assignment)


def assert_certified(optimum):
    """Assert that an ``OptimalMatching`` is a perfect matching of its rows,
    of its stated weight, whose duals prove it optimal: every edge has
    reduced cost ``1 - w - u[li] - v[rj] >= 0``, every matched edge 0."""
    rows, mate, u, v = optimum.rows, optimum.mate, optimum.u, optimum.v
    size = len(rows)
    assert len(mate) == len(u) == len(v) == size
    assert sorted(mate) == list(range(size)), "assignment is not a permutation"
    assert all(optimum.owner[rj] == li for li, rj in enumerate(mate))
    total = 0
    for li, row in enumerate(rows):
        w = row.get(mate[li])
        assert w is not None, f"left vertex {li} is matched along no edge"
        assert 1 - w - u[li] - v[mate[li]] == 0, f"matched edge of {li} is not tight"
        assert all(1 - x - u[li] - v[rj] >= 0 for rj, x in row.items()), (
            f"duals are infeasible at left vertex {li}"
        )
        total += w
    assert total == optimum.weight


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def e2():
    return make_e2()


@pytest.fixture
def e3():
    return make_e3()
