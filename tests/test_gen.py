import pytest
from hypothesis import given, settings, strategies as st

from housealloc.fileio import dumps_instance
from housealloc.gen import GenParams, InvalidParams, random_instance, trial_params
from housealloc.model import validate_instance
from housealloc.rng import SplitMix64


def test_splitmix64_reference_vector():
    # published reference sequence for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    assert rng.next_u64() == 0xF88BB8A8724C81EC


def test_bounded_is_in_range_and_rejects_nonpositive():
    rng = SplitMix64(5)
    assert all(0 <= rng.bounded(7) < 7 for _ in range(500))
    with pytest.raises(ValueError):
        rng.bounded(0)


def test_empty_params_give_empty_instance():
    inst = random_instance(GenParams(0, 0, 0.5, 0.5, 1))
    assert inst.agents == () and inst.houses == ()


def test_probability_corners():
    pure_endowment = random_instance(GenParams(3, 3, 1.0, 0.0, 9))
    assert len(pure_endowment.endowment) == 3
    assert all(not s for s in pure_endowment.acceptable.values())
    all_acceptable = random_instance(GenParams(2, 4, 0.0, 1.0, 9))
    assert all_acceptable.endowment == {}
    assert all(s == set(all_acceptable.houses) for s in all_acceptable.acceptable.values())


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        random_instance(GenParams(-1, 2, 0.5, 0.5, 1))
    with pytest.raises(InvalidParams):
        random_instance(GenParams(1, 2, 1.5, 0.5, 1))
    with pytest.raises(InvalidParams):
        random_instance(GenParams(1, 2, 0.5, -0.1, 1))


def test_same_seed_same_bytes():
    params = GenParams(5, 6, 0.8, 0.3, 42)
    first = dumps_instance(random_instance(params))
    second = dumps_instance(random_instance(params))
    assert first == second


def test_different_seeds_differ_somewhere():
    texts = {dumps_instance(random_instance(GenParams(5, 5, 0.5, 0.5, s))) for s in range(20)}
    assert len(texts) > 1


def test_endowed_count_capped_by_houses():
    inst = random_instance(GenParams(6, 2, 1.0, 0.5, 3))
    assert len(inst.endowment) == 2
    assert len(set(inst.endowment.values())) == 2


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.floats(0, 1),
    st.floats(0, 1),
    st.integers(0, 2**64 - 1),
)
def test_generated_instances_always_validate(n, m, p, q, seed):
    inst = random_instance(GenParams(n, m, p, q, seed))
    # revalidating from raw parts must succeed and reproduce the instance
    again = validate_instance(inst.agents, inst.houses, inst.endowment, inst.acceptable)
    assert again == inst
    assert len(inst.endowment) <= min(n, m)


def test_trial_params_cover_all_regimes():
    seen = {"n<m": False, "n=m": False, "n>m": False,
            "unendowed": False, "unowned": False,
            "empty_acc": False, "acceptable_endowment": False}
    for t in range(300):
        params = trial_params(0, t, 6, 6)
        inst = random_instance(params)
        n, m = inst.num_agents, inst.num_houses
        if n < m:
            seen["n<m"] = True
        elif n == m:
            seen["n=m"] = True
        else:
            seen["n>m"] = True
        if n and len(inst.endowment) < n:
            seen["unendowed"] = True
        if m and len(inst.endowment) < m:
            seen["unowned"] = True
        if any(not s for s in inst.acceptable.values()):
            seen["empty_acc"] = True
        if any(h in inst.acceptable[a] for a, h in inst.endowment.items()):
            seen["acceptable_endowment"] = True
    assert all(seen.values()), seen


def test_trial_params_deterministic():
    assert trial_params(7, 13, 6, 6) == trial_params(7, 13, 6, 6)
    assert trial_params(7, 13, 6, 6) != trial_params(7, 14, 6, 6)
