"""Solver tests against an independent brute-force permutation search."""

from housealloc.matching import max_weight_perfect_matching
from housealloc.mechanisms import Mechanism, build_graph
from housealloc.rng import SplitMix64
from conftest import assert_certified, brute_force_optimum, has_perfect_matching
from reference_solver import reference_optimum


def graph_from_edges(n, edges):
    rows = [{} for _ in range(n)]
    for li, rj, w in edges:
        rows[li][rj] = w
    return rows


def lex_min(rows):
    """(weight, assignment) of the solver's optimum rotated to its
    lexicographically smallest form, or None."""
    optimum = max_weight_perfect_matching(rows)
    if optimum is None:
        return None
    optimum.canonical()
    return optimum.weight, tuple(optimum.mate)


def snapshot(optimum):
    return (
        [dict(row) for row in optimum.rows],
        list(optimum.mate),
        list(optimum.owner),
        list(optimum.u),
        list(optimum.v),
        optimum.weight,
    )


def random_graph(rng, size, density):
    edges = []
    for li in range(size):
        for rj in range(size):
            if rng.bernoulli(density):
                edges.append((li, rj, 1 if rng.bernoulli(0.5) else 0))
    return graph_from_edges(size, edges)


def test_unique_maximizer_2x2():
    g = graph_from_edges(2, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    assert lex_min(g) == (1, (0, 1))


def test_hall_violation_detected():
    # both edges leave from left vertex 0; left vertex 1 cannot be matched
    g = graph_from_edges(2, [(0, 0, 1), (0, 1, 1)])
    assert max_weight_perfect_matching(g) is None
    assert not has_perfect_matching(g)


def test_empty_graph_has_empty_perfect_matching():
    g = graph_from_edges(0, [])
    assert lex_min(g) == (0, ())
    assert has_perfect_matching(g)


def test_complete_3x3_feasible():
    g = graph_from_edges(3, [(i, j, 0) for i in range(3) for j in range(3)])
    assert has_perfect_matching(g)


def test_isolated_vertex_infeasible():
    g = graph_from_edges(3, [(i, j, 0) for i in range(2) for j in range(3)])
    assert not has_perfect_matching(g)


def test_msir_graph_of_e1_weight(e1):
    # frozen from the brute-force search over all 6! assignments
    g = build_graph(e1, Mechanism.MSIR)
    brute = brute_force_optimum(g)
    assert brute is not None and brute[0] == 5
    assert lex_min(g) == brute


def test_remove_zero_edges_counts():
    g = graph_from_edges(3, [(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (2, 2, 1)])
    optimum = max_weight_perfect_matching(g)
    removed, weight, kept = optimum.drop_zero_edges(0, 3)
    assert (removed, weight, kept) == ([0, 2], 3, True)
    assert g[0] == {1: 1}


def test_remove_zero_edges_no_zero_edges():
    g = graph_from_edges(2, [(0, 0, 1), (1, 1, 1)])
    optimum = max_weight_perfect_matching(g)
    assert optimum.drop_zero_edges(0, 2) == ([], 2, True)


def test_remove_zero_edges_e1_agent4(e1):
    g = build_graph(e1, Mechanism.MSIR)
    li = e1.agent_index["4"]
    assert g[li] == {3: 0, 4: 1}  # h4 weight 0, h5 weight 1
    removed, _, _ = max_weight_perfect_matching(g).drop_zero_edges(li, 5)
    assert removed == [3]


def test_restore_is_exact_inverse():
    rng = SplitMix64(99)
    rejected = kept_count = 0
    for _ in range(300):
        size = 1 + rng.bounded(5)
        g = random_graph(rng, size, 0.7)
        optimum = max_weight_perfect_matching(g)
        if optimum is None:
            continue
        li = rng.bounded(size)
        before = snapshot(optimum)
        best_before = lex_min(g)
        # asking for one more than the optimum forces a rejection
        min_weight = optimum.weight + rng.bounded(2)
        removed, weight, kept = optimum.drop_zero_edges(li, min_weight)
        assert removed == sorted(rj for rj, w in before[0][li].items() if w == 0)
        # the reported weight is the optimum of the graph without the edges
        trimmed = graph_from_edges(size, [
            (i, j, w) for i, row in enumerate(before[0]) for j, w in row.items()
            if i != li or j not in removed
        ])
        after_removal = lex_min(trimmed)
        assert weight == (None if after_removal is None else after_removal[0])
        # removing edges never improves the optimum
        assert weight is None or weight <= best_before[0]
        if kept:
            kept_count += 1
            assert g == trimmed
            assert_certified(optimum)
        else:
            rejected += 1
            assert snapshot(optimum) == before
            assert lex_min(g) == best_before
    assert rejected and kept_count


def test_solver_matches_brute_force_on_random_graphs():
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(300):
        size = rng.bounded(5)  # up to 4x4: 24 permutations each
        g = random_graph(rng, size, 0.4 + 0.5 * rng.float01())
        # equal assignments: the lexicographic tie-break
        assert lex_min(g) == brute_force_optimum(g)
        checked += 1
    assert checked == 300


def test_solver_matches_brute_force_on_larger_graphs():
    rng = SplitMix64(555)
    for _ in range(30):
        g = random_graph(rng, 6, 0.6)  # 720 permutations
        assert lex_min(g) == brute_force_optimum(g)


def test_solver_matches_reference_and_certifies_itself():
    # sizes beyond brute force: the dense reference solver decides, and the
    # returned duals must prove optimality on their own
    rng = SplitMix64(8080)
    for _ in range(120):
        size = 5 + rng.bounded(8)
        g = random_graph(rng, size, 0.2 + 0.7 * rng.float01())
        optimum = max_weight_perfect_matching(g)
        expected = reference_optimum(g)
        if expected is None:
            assert optimum is None
            continue
        assert_certified(optimum)
        optimum.canonical()
        assert (optimum.weight, tuple(optimum.mate)) == expected
        assert_certified(optimum)  # the rotation keeps the duals' proof


def test_determinism_pair_for_pair():
    rng = SplitMix64(7)
    for _ in range(50):
        g = random_graph(rng, 4, 0.8)
        first = lex_min(g)
        second = lex_min(g)
        assert first == second

