import pytest

from housealloc.gen import random_instance, trial_params
from housealloc.matching import OptimalMatching, max_weight_perfect_matching
from housealloc.mechanisms import (
    Mechanism,
    PermutationError,
    PermutationPolicy,
    _right_labels,
    build_graph,
    run_mechanism,
    serial_refinement,
)
from housealloc.model import validate_instance, welfare
from housealloc import oracles
from conftest import has_perfect_matching


def labelled_edges(instance, rows):
    """The agents' edges as (agent, right label, weight)."""
    right = _right_labels(instance)
    return {
        (agent, right[rj], w)
        for agent, row in zip(instance.agents, rows)
        for rj, w in row.items()
    }


def edges_of_agent(instance, rows, agent):
    right = _right_labels(instance)
    return {(right[rj], w) for rj, w in rows[instance.agent_index[agent]].items()}


def refine(instance, mechanism, permutation):
    """Solve the mechanism graph and refine it in ``permutation`` order;
    returns the refined optimum, the flags and the rounds."""
    optimum = max_weight_perfect_matching(build_graph(instance, mechanism))
    flags, rounds = serial_refinement(instance, permutation, optimum, _right_labels(instance))
    return optimum, flags, rounds


# ---------------------------------------------------------------------------
# Graph builders


def test_msir_graph_e1_structure(e1):
    g = build_graph(e1, Mechanism.MSIR)
    assert len(g) == 6  # one dummy agent pads 5 vs 6
    assert g[5] == dict.fromkeys(range(6), 0)  # the dummy agent reaches every house
    assert edges_of_agent(e1, g, "4") == {("h4", 0), ("h5", 1)}
    # unendowed agent 5 reaches every house
    assert edges_of_agent(e1, g, "5") == {
        ("h1", 0), ("h2", 0), ("h3", 0), ("h4", 0), ("h5", 1), ("h6", 1)
    }


def test_msir_graph_own_acceptable_house_single_edge():
    inst = validate_instance(["1"], ["h1"], {"1": "h1"}, {"1": {"h1"}})
    g = build_graph(inst, Mechanism.MSIR)
    assert labelled_edges(inst, g) == {("1", "h1", 1)}


def test_msir_graph_e2_edges(e2):
    g = build_graph(e2, Mechanism.MSIR)
    assert labelled_edges(e2, g) == {("1", "h1", 0), ("1", "h2", 1), ("2", "h2", 0)}


def test_mir_graph_e2_edges(e2):
    g = build_graph(e2, Mechanism.MIR)
    assert labelled_edges(e2, g) == {
        ("1", "h1", 0), ("1", "h2", 1), ("2", "h1", 0), ("2", "h2", 0)
    }


def test_mir_graph_acceptable_endowment_edges_only_acceptable():
    inst = validate_instance(
        ["1", "2"], ["h1", "h2"], {"1": "h1", "2": "h2"}, {"1": {"h1"}, "2": set()}
    )
    g = build_graph(inst, Mechanism.MIR)
    assert edges_of_agent(inst, g, "1") == {("h1", 1)}


def test_mir_graph_e1_all_agents_reach_every_house(e1):
    # every endowed agent of E1 dislikes its own house, so MIR frees them all
    g = build_graph(e1, Mechanism.MIR)
    for agent in e1.agents:
        houses = {h for h, _ in edges_of_agent(e1, g, agent)}
        assert houses == set(e1.houses)
        weights = dict(edges_of_agent(e1, g, agent))
        for h in e1.houses:
            assert weights[h] == (1 if h in e1.acceptable[agent] else 0)


def test_msir_graph_e2_has_perfect_matching(e2):
    assert has_perfect_matching(build_graph(e2, Mechanism.MSIR))


def test_builders_always_feasible():
    for trial in range(120):
        inst = random_instance(trial_params(31, trial, 6, 6))
        for mech in Mechanism:
            g = build_graph(inst, mech)
            size = max(inst.num_agents, inst.num_houses)
            assert len(g) == size and all(rj < size for row in g for rj in row)
            assert max_weight_perfect_matching(g) is not None


@pytest.mark.parametrize("mech", list(Mechanism))
def test_dummy_house_labels_avoid_user_ids(mech):
    # the dummy house's label skips ~dummy_house_0 (a house) and
    # ~dummy_house_1 (an agent)
    inst = validate_instance(
        ["~dummy_house_1", "b"],
        ["~dummy_house_0"],
        {},
        {"~dummy_house_1": {"~dummy_house_0"}, "b": set()},
    )
    result = run_mechanism(inst, mech)
    assert [r.removed for r in result.trace.rounds] == [
        ("~dummy_house_2",),
        ("~dummy_house_0", "~dummy_house_2"),
    ]
    assert result.allocation.assignment == {"~dummy_house_1": "~dummy_house_0", "b": None}


# ---------------------------------------------------------------------------
# Serial refinement


def test_refinement_e2_msir_rejects_both(e2):
    optimum, flags, rounds = refine(e2, Mechanism.MSIR, ("1", "2"))
    assert flags == {"1": 0, "2": 0}
    assert rounds[0].removed == ("h1",)
    assert rounds[0].weight is None  # pinning 1 to h2 starves agent 2
    assert not rounds[0].accepted
    assert rounds[1].removed == ("h2",)
    assert rounds[1].weight is None
    # both removals were rolled back
    assert optimum.rows == build_graph(e2, Mechanism.MSIR)
    assert (optimum.weight, optimum.mate) == (0, [0, 1])


def test_refinement_e2_mir_locks_agent1(e2):
    optimum, flags, rounds = refine(e2, Mechanism.MIR, ("1", "2"))
    assert flags == {"1": 1, "2": 0}
    assert rounds[0].accepted and rounds[0].weight == 1
    assert not rounds[1].accepted and rounds[1].weight is None
    assert (optimum.weight, optimum.mate) == (1, [1, 0])


def test_refinement_all_weight_one_removes_nothing():
    inst = validate_instance(
        ["1", "2"], ["h1", "h2"],
        {},
        {"1": {"h1", "h2"}, "2": {"h1", "h2"}},
    )
    _, flags, rounds = refine(inst, Mechanism.MIR, ("1", "2"))
    assert flags == {"1": 1, "2": 1}
    assert all(r.removed == () for r in rounds)


def test_run_solves_from_scratch_once(monkeypatch):
    from housealloc import mechanisms

    calls = []

    def counting(rows):
        calls.append(rows)
        return max_weight_perfect_matching(rows)

    monkeypatch.setattr(mechanisms, "max_weight_perfect_matching", counting)
    for trial in range(40):
        inst = random_instance(trial_params(13, trial, 7, 7))
        for mech in Mechanism:
            calls.clear()
            run_mechanism(inst, mech)
            assert len(calls) == 1


def test_run_rotates_to_lex_min_once(monkeypatch):
    # the lex-min optimum is read once, from the final duals; the solver's
    # first optimum goes into the refinement as it is
    calls = []
    canonical = OptimalMatching.canonical

    def counting(self):
        calls.append(self)
        return canonical(self)

    monkeypatch.setattr(OptimalMatching, "canonical", counting)
    for trial in range(40):
        inst = random_instance(trial_params(13, trial, 7, 7))
        for mech in Mechanism:
            calls.clear()
            run_mechanism(inst, mech)
            assert len(calls) == 1


def test_refinement_rejects_unknown_agent(e2):
    with pytest.raises(PermutationError):
        refine(e2, Mechanism.MSIR, ("1", "nope"))


# ---------------------------------------------------------------------------
# Full runs on the pinned fixtures


def test_run_msir_e1(e1):
    result = run_mechanism(e1, Mechanism.MSIR)
    assert result.trace.initial_weight == 5
    assert welfare(e1, result.allocation) == 5
    assert result.allocation.house_of("4") == "h5"
    assert result.allocation.house_of("5") == "h6"
    # welfare 5 equals the brute-force S-IR maximum
    assert oracles.welfare_maxima(e1).sir == 5


def test_run_msir_e2_returns_endowment(e2):
    result = run_mechanism(e2, Mechanism.MSIR)
    assert result.allocation.assignment == {"1": "h1", "2": "h2"}
    assert result.trace.initial_weight == 0


def test_run_mir_e2_satisfies_agent1(e2):
    result = run_mechanism(e2, Mechanism.MIR)
    assert result.allocation.house_of("1") == "h2"
    assert result.trace.initial_weight == 1


def test_run_msir_e3(e3):
    result = run_mechanism(e3, Mechanism.MSIR)
    assert result.allocation.assignment == {
        "1": "h2", "2": "h1", "3": "h3", "4": "h4"
    }
    assert result.trace.initial_weight == 2
    assert oracles.welfare_maxima(e3).sir == 2


def test_run_empty_instance():
    inst = validate_instance([], [], {}, {})
    for mech in Mechanism:
        result = run_mechanism(inst, mech)
        assert result.allocation.assignment == {}
        assert result.trace.initial_weight == 0


def test_run_no_houses():
    inst = validate_instance(["1", "2"], [], {}, {"1": set(), "2": set()})
    result = run_mechanism(inst, Mechanism.MIR)
    assert result.allocation.assignment == {"1": None, "2": None}


def test_run_no_agents():
    inst = validate_instance([], ["h1", "h2"], {}, {})
    result = run_mechanism(inst, Mechanism.MSIR)
    assert result.allocation.assignment == {}


# ---------------------------------------------------------------------------
# Permutation policies


def test_identity_policy(e3):
    assert PermutationPolicy.identity().realize(e3.agents) == ("1", "2", "3", "4")


def test_explicit_policy_validates(e3):
    policy = PermutationPolicy.explicit(("3", "4", "1", "2"))
    assert policy.realize(e3.agents) == ("3", "4", "1", "2")
    with pytest.raises(PermutationError):
        PermutationPolicy.explicit(("1", "1", "2", "3")).realize(e3.agents)
    with pytest.raises(PermutationError):
        PermutationPolicy.explicit(("1",)).realize(e3.agents)


def test_seeded_policy_deterministic(e3):
    a = PermutationPolicy.seeded(42).realize(e3.agents)
    b = PermutationPolicy.seeded(42).realize(e3.agents)
    assert a == b
    assert sorted(a) == sorted(e3.agents)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeded_policy_rejects_out_of_range_seed(seed):
    with pytest.raises(PermutationError):
        PermutationPolicy.seeded(seed)


def test_mir_with_adverse_order_can_leave_core_violation(e3):
    # processing the outside pair first reproduces the unstable allocation
    result = run_mechanism(e3, Mechanism.MIR, PermutationPolicy.explicit(("3", "4", "1", "2")))
    assert result.allocation.assignment == {
        "1": "h3", "2": "h4", "3": "h1", "4": "h2"
    }
    verdict = oracles.is_core_stable(e3, result.allocation)
    assert not verdict.holds


# ---------------------------------------------------------------------------
# Trace invariants and determinism over random instances


def test_trace_invariants_and_determinism():
    for trial in range(150):
        inst = random_instance(trial_params(77, trial, 6, 6))
        for mech in Mechanism:
            result = run_mechanism(inst, mech)
            again = run_mechanism(inst, mech)
            assert again.allocation == result.allocation
            assert again.trace == result.trace
            trace = result.trace
            assert sum(trace.satisfied_flags.values()) == trace.initial_weight
            assert welfare(inst, result.allocation) == trace.initial_weight
            satisfied = {
                a for a, h in result.allocation.assignment.items()
                if h is not None and h in inst.acceptable[a]
            }
            assert satisfied == {a for a, f in trace.satisfied_flags.items() if f == 1}
            # a round is accepted exactly when the flag is 1
            for r in trace.rounds:
                assert r.accepted == (trace.satisfied_flags[r.agent] == 1)


def test_msir_output_sir_mir_output_ir():
    for trial in range(150):
        inst = random_instance(trial_params(401, trial, 6, 6))
        msir = run_mechanism(inst, Mechanism.MSIR)
        assert oracles.is_sir(inst, msir.allocation)
        mir = run_mechanism(inst, Mechanism.MIR)
        assert oracles.is_ir(inst, mir.allocation)


def test_mechanism_welfare_matches_brute_force_maxima():
    for trial in range(60):
        inst = random_instance(trial_params(8128, trial, 5, 5))
        maxima = oracles.welfare_maxima(inst)
        msir = run_mechanism(inst, Mechanism.MSIR)
        assert welfare(inst, msir.allocation) == maxima.sir
        mir = run_mechanism(inst, Mechanism.MIR)
        assert welfare(inst, mir.allocation) == maxima.ir
        assert maxima.ir == maxima.unconstrained
