"""The Pareto certificate against the brute-force dominator enumeration.

``tests/reference_po.py`` walks every injective partial assignment looking
for one that dominates the allocation.  On the MSIR output, the MIR output
and one random allocation of each ``trial_params`` instance up to 6x6, the
certificate behind ``is_pareto_optimal`` must give the same verdict, and
every dominating allocation it names must re-validate on its own.
"""

from __future__ import annotations

from housealloc.gen import random_instance, trial_params
from housealloc.mechanisms import Mechanism, run_mechanism
from housealloc.oracles import is_pareto_optimal, verify_domination_witness
from conftest import random_allocation
import reference_po

TRIALS = 700  # three allocations each: 2,100 compared verdicts


def test_certificate_agrees_with_the_enumeration():
    verdicts = {True: 0, False: 0}
    for trial in range(TRIALS):
        instance = random_instance(trial_params(8, trial, 6, 6))
        allocations = [run_mechanism(instance, mech).allocation for mech in Mechanism]
        allocations.append(random_allocation(instance, trial))
        for allocation in allocations:
            got = is_pareto_optimal(instance, allocation)
            assert got.holds == reference_po.is_pareto_optimal(instance, allocation).holds, trial
            if not got.holds:
                assert verify_domination_witness(instance, allocation, got.witness), trial
            verdicts[got.holds] += 1
    assert sum(verdicts.values()) >= 2000
    # the comparison is not vacuous: both verdicts occur
    assert all(verdicts.values()), verdicts
