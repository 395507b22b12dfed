import itertools

import pytest

from housealloc.gen import GenParams, random_instance, trial_params
from housealloc.mechanisms import Mechanism, Solved, run_mechanism
from housealloc.model import Allocation, validate_instance, welfare
from housealloc.oracles import (
    BudgetExceeded,
    DominationWitness,
    check_strategyproofness,
    evaluate_properties,
    is_core_stable,
    is_ir,
    is_pareto_optimal,
    is_sir,
    is_strict_core_stable,
    max_welfare,
    verify_blocking_witness,
    verify_domination_witness,
    verify_manipulation_witness,
    verify_weak_blocking_witness,
    welfare_maxima,
)
from conftest import random_allocation
import reference_core
import reference_po

# Not allocations of e2: an unknown agent, an unknown house, a house given twice.
FAKE_E2_ALLOCATIONS = (
    Allocation({"zz": "h1"}),
    Allocation({"1": "h9"}),
    Allocation({"1": "h1", "2": "h1"}),
)

X_E1 = Allocation({"1": "h2", "2": "h3", "3": "h1", "4": "h4", "5": "h5"})
Y_E1 = Allocation({"1": "h2", "2": "h3", "3": "h1", "4": "h5", "5": "h6"})
Z_E3 = Allocation({"1": "h3", "2": "h4", "3": "h1", "4": "h2"})


def all_allocations(inst):
    """Every injective partial assignment, as a test-local enumerator."""
    n, m = inst.num_agents, inst.num_houses
    for size in range(min(n, m) + 1):
        for agents in itertools.combinations(range(n), size):
            for houses in itertools.permutations(range(m), size):
                assignment = {a: None for a in inst.agents}
                for ai, hj in zip(agents, houses):
                    assignment[inst.agents[ai]] = inst.houses[hj]
                yield Allocation(assignment)


# ---------------------------------------------------------------------------
# IR / S-IR


def test_ir_examples(e1, e3):
    assert is_ir(e1, Y_E1)
    assert is_ir(e3, Z_E3)
    inst = validate_instance(["1"], ["h1"], {"1": "h1"}, {"1": {"h1"}})
    assert not is_ir(inst, Allocation({"1": None}))


def test_sir_examples(e1, e3):
    assert is_sir(e1, X_E1)
    assert not is_sir(e3, Z_E3)  # agent 1 trades h1 for unacceptable h3
    endow_only = Allocation({a: e3.endowment.get(a) for a in e3.agents})
    assert is_sir(e3, endow_only)


def test_sir_blocks_swapping_between_acceptable_houses():
    # both houses acceptable to agent 1: moving off the endowment is only
    # an indifference, not a strict gain
    inst = validate_instance(
        ["1", "2"], ["h1", "h2"], {"1": "h1"}, {"1": {"h1", "h2"}, "2": set()}
    )
    assert not is_sir(inst, Allocation({"1": "h2", "2": "h1"}))
    assert is_ir(inst, Allocation({"1": "h2", "2": "h1"}))


# ---------------------------------------------------------------------------
# Pareto optimality


def test_po_examples(e1, e2):
    assert is_pareto_optimal(e1, Y_E1).holds
    assert reference_po.is_pareto_optimal(e1, Y_E1).holds
    verdict = is_pareto_optimal(e1, X_E1)
    assert not verdict.holds
    assert not reference_po.is_pareto_optimal(e1, X_E1).holds
    assert verify_domination_witness(e1, X_E1, verdict.witness)
    endow_only = Allocation({"1": "h1", "2": "h2"})
    verdict2 = is_pareto_optimal(e2, endow_only)
    assert not verdict2.holds
    assert not reference_po.is_pareto_optimal(e2, endow_only).holds
    assert verify_domination_witness(e2, endow_only, verdict2.witness)
    # the witness satisfies agent 1 via h2
    assert verdict2.witness.allocation.house_of("1") == "h2"
    # fabricated allocations are rejected, not raised
    for fake in FAKE_E2_ALLOCATIONS:
        assert not verify_domination_witness(e2, endow_only, DominationWitness(fake))


def test_po_brute_budget():
    inst = random_instance(GenParams(9, 4, 0.5, 0.5, 1))
    # the certificate path has no budget
    assert is_pareto_optimal(inst, Allocation({}), method="certificate") is not None


def test_po_certificate_is_the_only_method(e1):
    assert is_pareto_optimal(e1, Y_E1, method="certificate") == is_pareto_optimal(e1, Y_E1)
    for method in ("brute", "both"):
        with pytest.raises(ValueError):
            is_pareto_optimal(e1, Y_E1, method=method)


def test_po_routes_agree_on_random_pairs():
    for trial in range(200):
        inst = random_instance(trial_params(12345, trial, 5, 5))
        alloc = random_allocation(inst, trial)
        brute = reference_po.is_pareto_optimal(inst, alloc)
        cert = is_pareto_optimal(inst, alloc, method="certificate")
        assert brute.holds == cert.holds


# ---------------------------------------------------------------------------
# Core and strict core


def test_core_examples(e3):
    verdict = is_core_stable(e3, Z_E3)
    assert not verdict.holds
    assert verdict.witness.coalition == ("1", "2")
    assert verify_blocking_witness(e3, Z_E3, verdict.witness)
    msir_out = run_mechanism(e3, Mechanism.MSIR).allocation
    assert is_core_stable(e3, msir_out).holds
    assert reference_core.is_core_stable(e3, msir_out, exhaustive=True).holds


def test_core_trivially_stable_when_all_endowed_satisfied(e1):
    assert is_core_stable(e1, Y_E1).holds


def test_singleton_blocking_coalition():
    # agent 1 likes its own house but was handed something else
    inst = validate_instance(
        ["1", "2"], ["h1", "h2"], {"1": "h1", "2": "h2"},
        {"1": {"h1"}, "2": set()},
    )
    swapped = Allocation({"1": "h2", "2": "h1"})
    verdict = is_core_stable(inst, swapped)
    assert not verdict.holds
    assert verdict.witness.coalition == ("1",)
    assert verdict.witness.reallocation == {"1": "h1"}


def test_strict_core_examples(e1, e3):
    verdict = is_strict_core_stable(e3, Z_E3)
    assert not verdict.holds
    assert verify_weak_blocking_witness(e3, Z_E3, verdict.witness)
    solo = validate_instance(["1"], ["h1"], {"1": "h1"}, {"1": {"h1"}})
    assert is_strict_core_stable(solo, Allocation({"1": "h1"})).holds
    assert is_strict_core_stable(e1, Y_E1).holds


def test_strict_core_catches_weak_blocks_core_misses():
    # 1 is satisfied but can swap within {1,2} so that 2 strictly gains
    inst = validate_instance(
        ["1", "2"], ["h1", "h2"], {"1": "h1", "2": "h2"},
        {"1": {"h1", "h2"}, "2": {"h1"}},
    )
    alloc = Allocation({"1": "h1", "2": "h2"})
    assert is_core_stable(inst, alloc).holds
    verdict = is_strict_core_stable(inst, alloc)
    assert not verdict.holds
    assert verdict.witness.improving_agent == "2"
    assert verify_weak_blocking_witness(inst, alloc, verdict.witness)


def test_core_pruned_agrees_with_exhaustive():
    for trial in range(120):
        inst = random_instance(trial_params(31337, trial, 5, 5))
        alloc = random_allocation(inst, trial)
        pruned = is_core_stable(inst, alloc)
        full = reference_core.is_core_stable(inst, alloc, exhaustive=True)
        assert pruned == full
        for verdict in (pruned, full):
            if not verdict.holds:
                assert verify_blocking_witness(inst, alloc, verdict.witness)


def test_strict_core_pruned_agrees_with_exhaustive():
    for trial in range(60):
        inst = random_instance(trial_params(4242, trial, 4, 4))
        alloc = random_allocation(inst, trial)
        pruned = is_strict_core_stable(inst, alloc)
        full = reference_core.is_strict_core_stable(inst, alloc, exhaustive=True)
        assert pruned == full
        if not pruned.holds:
            assert verify_weak_blocking_witness(inst, alloc, pruned.witness)


def test_core_budget():
    # 13 candidates, past the old 12-agent coalition budget: answered now
    inst = random_instance(GenParams(13, 13, 1.0, 0.0, 5))
    alloc = Allocation({a: None for a in inst.agents})
    verdict = is_core_stable(inst, alloc)
    assert verdict == reference_core.is_core_stable(inst, alloc)
    assert is_strict_core_stable(inst, alloc) == reference_core.is_strict_core_stable(inst, alloc)


# ---------------------------------------------------------------------------
# Welfare maxima


def test_max_welfare_examples(e1, e2):
    assert max_welfare(e1) == 5
    assert max_welfare(e2) == 1
    empty_prefs = validate_instance(["1", "2"], ["h1"], {}, {})
    assert max_welfare(empty_prefs) == 0


def test_welfare_maxima_examples(e1, e2, e3):
    assert welfare_maxima(e2).sir == 0
    assert welfare_maxima(e2).ir == 1
    assert welfare_maxima(e1).sir == 5
    assert welfare_maxima(e3).ir == 2
    assert welfare_maxima(e3).unconstrained == 2


def test_welfare_maxima_budget():
    inst = random_instance(GenParams(9, 9, 0.5, 0.5, 3))
    with pytest.raises(BudgetExceeded):
        welfare_maxima(inst)


def test_welfare_maxima_argmaxes_satisfy_their_constraints():
    for trial in range(80):
        inst = random_instance(trial_params(9090, trial, 5, 5))
        maxima = welfare_maxima(inst)
        assert welfare(inst, maxima.unconstrained_argmax) == maxima.unconstrained
        assert is_ir(inst, maxima.ir_argmax)
        assert welfare(inst, maxima.ir_argmax) == maxima.ir
        assert is_sir(inst, maxima.sir_argmax)
        assert welfare(inst, maxima.sir_argmax) == maxima.sir
        # monotone: S-IR is the tighter constraint, unconstrained the loosest
        assert maxima.sir <= maxima.ir <= maxima.unconstrained
        # matching-based route agrees with enumeration
        assert max_welfare(inst) == maxima.unconstrained


def test_sir_welfare_maximality_implies_core_stability():
    # every S-IR allocation attaining the S-IR maximum is core stable
    for trial in range(40):
        inst = random_instance(trial_params(2718, trial, 4, 4))
        target = welfare_maxima(inst).sir
        for alloc in all_allocations(inst):
            if is_sir(inst, alloc) and welfare(inst, alloc) == target:
                assert is_core_stable(inst, alloc).holds


def test_ir_welfare_lemma():
    for trial in range(80):
        inst = random_instance(trial_params(1618, trial, 5, 5))
        assert welfare_maxima(inst).ir == max_welfare(inst)


# ---------------------------------------------------------------------------
# Strategyproofness


def test_strategyproofness_fixtures(e2, e3):
    assert check_strategyproofness(Solved(e2, Mechanism.MSIR)) is None
    assert check_strategyproofness(Solved(e3, Mechanism.MIR)) is None


def test_strategyproofness_single_agent():
    inst = validate_instance(["1"], ["h1"], {"1": "h1"}, {"1": set()})
    for mech in Mechanism:
        assert check_strategyproofness(Solved(inst, mech)) is None


def test_strategyproofness_budget():
    inst = random_instance(GenParams(2, 7, 0.5, 0.5, 9))
    solved = Solved(inst, Mechanism.MSIR)
    with pytest.raises(BudgetExceeded):
        check_strategyproofness(solved)


def test_manipulation_witness_checker_rejects_fabrications(e2):
    from housealloc.oracles import ManipulationWitness

    fake = ManipulationWitness(
        agent="1", reported=frozenset({"h1"}), truthful_utility=0, misreport_utility=1
    )
    assert not verify_manipulation_witness(e2, Mechanism.MSIR, fake)
    # names outside the market are rejected, not raised or run
    unknown_agent = ManipulationWitness(
        agent="nope", reported=frozenset({"h2"}), truthful_utility=0, misreport_utility=1
    )
    assert not verify_manipulation_witness(e2, Mechanism.MSIR, unknown_agent)
    # the minimal MIR manipulation below, padded with a house that does not
    # exist: run as a report, it would still win agent 3 h1
    inst = validate_instance(
        ["1", "2", "3"], ["h1", "h2", "h3"], {"3": "h3"},
        {"1": {"h3"}, "2": {"h1"}, "3": {"h1"}},
    )
    unknown_house = ManipulationWitness(
        agent="3", reported=frozenset({"h1", "h3", "h9"}), truthful_utility=0, misreport_utility=1
    )
    assert not verify_manipulation_witness(inst, Mechanism.MIR, unknown_house)


def test_sweep_finds_mir_manipulation_on_minimal_instance():
    # Claiming the endowment acceptable shrinks the manipulator's edge set
    # under the IR graph, which breaks an earlier agent's lock in its
    # favor.  Smallest known case, found by exhaustive search over all
    # 3x3 markets: only agent 3 is endowed (h3); truthfully it wants h1
    # and ends up empty-handed, reporting {h1, h3} wins it h1.
    inst = validate_instance(
        ["1", "2", "3"], ["h1", "h2", "h3"], {"3": "h3"},
        {"1": {"h3"}, "2": {"h1"}, "3": {"h1"}},
    )
    witness = check_strategyproofness(Solved(inst, Mechanism.MIR))
    assert witness is not None
    assert witness.agent == "3"
    assert witness.reported == {"h1", "h3"}
    assert verify_manipulation_witness(inst, Mechanism.MIR, witness)
    # the S-IR variant resists on the same instance (and on every 3x3
    # market; the exhaustive search found no case against it)
    assert check_strategyproofness(Solved(inst, Mechanism.MSIR)) is None


def test_sweep_finds_mir_manipulation_on_four_agent_cycle():
    # the unstable four-agent market, relabelled so the fragile processing
    # order is the identity order
    inst = validate_instance(
        ["1", "2", "3", "4"], ["h1", "h2", "h3", "h4"],
        {"1": "h3", "2": "h4", "3": "h1", "4": "h2"},
        {"1": {"h1"}, "2": {"h2"}, "3": {"h2"}, "4": {"h1"}},
    )
    witness = check_strategyproofness(Solved(inst, Mechanism.MIR))
    assert witness is not None
    assert verify_manipulation_witness(inst, Mechanism.MIR, witness)
    assert check_strategyproofness(Solved(inst, Mechanism.MSIR)) is None


# ---------------------------------------------------------------------------
# Property evaluation


def test_evaluate_properties_report(e3):
    report = evaluate_properties(
        e3, Z_E3, ("ir", "core", "maxw", "maxw-ir", "maxw-sir", "po", "sir", "strict-core")
    )
    assert report.verdicts["ir"].holds
    assert not report.verdicts["core"].holds
    assert report.verdicts["maxw"].holds
    assert report.verdicts["maxw-ir"].holds
    assert report.verdicts["maxw-sir"].holds  # welfare 2 equals the S-IR max
    assert report.verdicts["po"].holds
    assert not report.verdicts["sir"].holds
    assert not report.verdicts["strict-core"].holds
    assert not report.all_hold


def test_evaluate_properties_welfare_gap_witness(e2):
    endow_only = Allocation({"1": "h1", "2": "h2"})
    report = evaluate_properties(e2, endow_only, ("maxw", "maxw-ir", "maxw-sir"))
    assert not report.verdicts["maxw"].holds
    gap = report.verdicts["maxw"].witness
    assert (gap.achieved, gap.target) == (0, 1)
    assert not report.verdicts["maxw-ir"].holds
    assert report.verdicts["maxw-sir"].holds


def test_evaluate_properties_rejects_unknown_key(e2):
    with pytest.raises(ValueError):
        evaluate_properties(e2, Allocation({}), ("sparkle",))


def test_violation_witnesses_re_verify(e3):
    from housealloc.oracles import ir_violation, sir_violation, verify_violation_witness

    bad_sir = sir_violation(e3, Z_E3)
    assert bad_sir is not None and bad_sir.agent == "1"
    assert verify_violation_witness(e3, Z_E3, bad_sir, "sir")
    inst = validate_instance(["1"], ["h1"], {"1": "h1"}, {"1": {"h1"}})
    nothing = Allocation({"1": None})
    bad_ir = ir_violation(inst, nothing)
    assert bad_ir is not None
    assert verify_violation_witness(inst, nothing, bad_ir, "ir")
    # a fabricated witness naming a compliant agent is rejected
    from housealloc.oracles import ViolationWitness

    fake = ViolationWitness(agent="3", endowment="h3", assigned="h1")
    assert not verify_violation_witness(e3, Z_E3, fake, "ir")


def test_welfare_gap_witness_re_verifies(e2):
    from housealloc.oracles import WelfareGapWitness, verify_welfare_gap_witness

    endow_only = Allocation({"1": "h1", "2": "h2"})
    report = evaluate_properties(e2, endow_only, ("maxw-ir",))
    gap = report.verdicts["maxw-ir"].witness
    assert isinstance(gap, WelfareGapWitness)
    assert verify_welfare_gap_witness(e2, endow_only, gap, "ir")
    inflated = WelfareGapWitness(achieved=0, target=2, exemplar=gap.exemplar)
    assert not verify_welfare_gap_witness(e2, endow_only, inflated, "ir")
    for fake in FAKE_E2_ALLOCATIONS:
        forged = WelfareGapWitness(achieved=gap.achieved, target=gap.target, exemplar=fake)
        assert not verify_welfare_gap_witness(e2, endow_only, forged, "ir")
