"""The warm misreport sweep against cold mechanism runs.

``tests/reference_sp.py`` is the sweep with one cold ``run_mechanism`` per
report.  ``check_strategyproofness`` carries the optimum of a
:class:`Solved` to every report with a row replaced; it must return the
same first witness, every warm run must equal the cold run on the
misreported instance, trace included, and a sweep must solve only once.
The sweep runs no report that cannot pay: a report it skips must leave the
agent outside its true set when run cold.
"""

from __future__ import annotations

import pytest

import housealloc.mechanisms as mechanisms
from housealloc.gen import random_instance, trial_params
from housealloc.mechanisms import Mechanism, PermutationPolicy, Solved, run_mechanism
from housealloc.model import UnknownAgent, UnknownHouse, validate_instance
from housealloc.oracles import check_strategyproofness
import reference_sp


def _every_report(instance):
    m = instance.num_houses
    return [
        frozenset(instance.houses[j] for j in range(m) if (bits >> j) & 1)
        for bits in range(1 << m)
    ]


def _policy(trial):
    return PermutationPolicy.seeded(trial) if trial % 3 == 2 else PermutationPolicy.identity()


def test_sweep_returns_the_reference_witness():
    witnesses = {mech: 0 for mech in Mechanism}
    compared = 0
    for trial in range(400):
        instance = random_instance(trial_params(17, trial, 6, 6))
        policy = _policy(trial)
        for mech in Mechanism:
            got = check_strategyproofness(Solved(instance, mech, policy))
            assert got == reference_sp.check_strategyproofness(instance, mech, policy), trial
            witnesses[mech] += got is not None
            compared += 1
    assert compared >= 800
    # the comparison is not vacuous: MIR is manipulable on this schedule
    assert witnesses[Mechanism.MIR] > 0, witnesses


def test_warm_runs_equal_cold_runs():
    runs = 0
    trial = 0
    while runs < 20_000:
        instance = random_instance(trial_params(29, trial, 5, 5))
        policy = _policy(trial)
        if instance.agents:
            agent = instance.agents[trial % instance.num_agents]
            reports = _every_report(instance)
            houses = frozenset(instance.houses)
            for mech in Mechanism:
                ran = []
                for reported, result in Solved(instance, mech, policy).misreports(
                    agent, reports, houses
                ):
                    twisted = reference_sp.misreport(instance, agent, reported)
                    assert result == run_mechanism(twisted, mech, policy), (trial, reported)
                    ran.append(reported)
                    runs += 1
                # every row holds a house, its endowment or all of them, so
                # only a market without houses skips a report
                assert ran == (reports if houses else [])
        trial += 1


def test_one_solve_per_sweep(monkeypatch):
    calls = []
    solve = mechanisms.max_weight_perfect_matching

    def counting(graph):
        calls.append(graph)
        return solve(graph)

    monkeypatch.setattr(mechanisms, "max_weight_perfect_matching", counting)
    for trial in range(40):
        instance = random_instance(trial_params(13, trial, 5, 5))
        for mech in Mechanism:
            calls.clear()
            check_strategyproofness(Solved(instance, mech))
            assert len(calls) == 1
            if instance.agents:
                calls.clear()
                solved = Solved(instance, mech)
                houses = frozenset(instance.houses)
                for _ in solved.misreports(instance.agents[0], _every_report(instance), houses):
                    pass
                assert len(calls) == 1


def test_misreports_reject_unknown_names(e2):
    # checked before the skip: an empty wanted set skips every report
    with pytest.raises(UnknownAgent):
        next(Solved(e2, Mechanism.MSIR).misreports("nope", [frozenset()], frozenset()))
    with pytest.raises(UnknownHouse):
        next(Solved(e2, Mechanism.MSIR).misreports("1", [frozenset({"h9"})], frozenset()))


def test_skipped_reports_cannot_pay():
    skipped = 0
    for trial in range(200):
        instance = random_instance(trial_params(41, trial, 5, 5))
        reports = _every_report(instance)
        for mech in Mechanism:
            solved = Solved(instance, mech)
            for agent in instance.agents:
                true_set = instance.acceptable[agent]
                ran = {reported for reported, _ in solved.misreports(agent, reports, true_set)}
                for reported in reports:
                    if not true_set or reported in ran:
                        continue
                    skipped += 1
                    twisted = reference_sp.misreport(instance, agent, reported)
                    for policy in (PermutationPolicy.identity(), PermutationPolicy.seeded(trial)):
                        landed = run_mechanism(twisted, mech, policy).allocation.house_of(agent)
                        assert landed not in true_set, (trial, mech, agent, reported)
    assert skipped > 0


def test_an_agent_who_accepts_nothing_costs_no_run(monkeypatch):
    runs = []
    refine = mechanisms._refine

    def counting(*args):
        runs.append(args)
        return refine(*args)

    monkeypatch.setattr(mechanisms, "_refine", counting)
    # "a" is satisfied, "b" is not and accepts nothing: only the truthful run is made
    instance = validate_instance(["a", "b"], ["h1", "h2"], {"a": "h1"}, {"a": ["h1"]})
    for mech in Mechanism:
        runs.clear()
        assert check_strategyproofness(Solved(instance, mech)) is None
        assert len(runs) == 1
