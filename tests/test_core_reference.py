"""The polynomial core and strict-core searches against the brute force.

``tests/reference_core.py`` enumerates every coalition in ascending bit-mask
order.  On the MSIR output, the MIR output and one random allocation of
each ``trial_params`` instance up to 11x11, the verdicts and the witness
documents (coalition, reallocation and improving agent) of
``is_core_stable`` and ``is_strict_core_stable`` must equal the
enumeration's byte for byte.
"""

from __future__ import annotations

import json

import pytest

from housealloc.fileio import witness_to_doc
from housealloc.gen import random_instance, trial_params
from housealloc.mechanisms import Mechanism, run_mechanism
from housealloc.oracles import is_core_stable, is_strict_core_stable
from conftest import random_allocation
import reference_core


def verdict_bytes(verdict):
    return json.dumps([verdict.holds, witness_to_doc(verdict.witness)])


@pytest.mark.parametrize("size, trials", [(6, 500), (8, 300), (11, 200)])
def test_searches_return_the_enumerations_witness(size, trials):
    failures = {"core": 0, "strict-core": 0}
    for trial in range(trials):
        instance = random_instance(trial_params(11, trial, size, size))
        allocations = [run_mechanism(instance, mech).allocation for mech in Mechanism]
        allocations.append(random_allocation(instance, trial))
        for allocation in allocations:
            for key, search, reference in (
                ("core", is_core_stable, reference_core.is_core_stable),
                ("strict-core", is_strict_core_stable, reference_core.is_strict_core_stable),
            ):
                got = verdict_bytes(search(instance, allocation))
                assert got == verdict_bytes(reference(instance, allocation)), (trial, key)
                failures[key] += got.startswith("[false")
    # the comparison is not vacuous: both searches find witnesses
    assert all(failures.values()), failures
