"""Solver tests against an independent brute-force permutation search."""

import itertools

import pytest

from housealloc.matching import (
    Matching,
    UnbalancedGraph,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
)
from housealloc.mechanisms import Mechanism, build_graph
from housealloc.rng import SplitMix64
from conftest import assert_certified, has_perfect_matching
from reference_solver import reference_optimum


def brute_force_optimum(graph):
    """Try every assignment sequence in lexicographic order; keep the first
    one attaining the maximum weight.  Returns (weight, assignment) or None."""
    size = len(graph.left)
    best = None
    for perm in itertools.permutations(range(size)):
        weight = 0
        for li, rj in enumerate(perm):
            w = graph.rows[li].get(rj)
            if w is None:
                break
            weight += w
        else:
            if best is None or weight > best[0]:
                best = (weight, perm)
    return best


def graph_from_edges(n, edges):
    rows = [{} for _ in range(n)]
    for li, rj, w in edges:
        rows[li][rj] = w
    return WeightedBipartiteGraph(
        tuple(f"l{i}" for i in range(n)), tuple(f"r{j}" for j in range(n)), rows
    )


def lex_min(graph):
    """The solver's optimum rotated to its lexicographically smallest form."""
    optimum = max_weight_perfect_matching(graph)
    return None if optimum is None else optimum.canonical()


def snapshot(optimum):
    return (
        [dict(row) for row in optimum.graph.rows],
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
    assert lex_min(g) == Matching(assignment=(0, 1), weight=1)


def test_hall_violation_detected():
    # both edges leave from left vertex 0; left vertex 1 cannot be matched
    g = graph_from_edges(2, [(0, 0, 1), (0, 1, 1)])
    assert max_weight_perfect_matching(g) is None
    assert not has_perfect_matching(g)


def test_empty_graph_has_empty_perfect_matching():
    g = graph_from_edges(0, [])
    assert lex_min(g) == Matching(assignment=(), weight=0)
    assert has_perfect_matching(g)


def test_unbalanced_graph_rejected():
    g = WeightedBipartiteGraph(("l0",), ("r0", "r1"), [{}])
    with pytest.raises(UnbalancedGraph):
        max_weight_perfect_matching(g)
    with pytest.raises(UnbalancedGraph):
        has_perfect_matching(g)


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
    solved = lex_min(g)
    assert solved is not None and solved.weight == 5
    assert solved.assignment == brute[1]


def test_remove_zero_edges_counts():
    g = graph_from_edges(3, [(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (2, 2, 1)])
    optimum = max_weight_perfect_matching(g)
    removed, weight, kept = optimum.drop_zero_edges(0, 3)
    assert (removed, weight, kept) == ([0, 2], 3, True)
    assert g.rows[0] == {1: 1}


def test_remove_zero_edges_no_zero_edges():
    g = graph_from_edges(2, [(0, 0, 1), (1, 1, 1)])
    optimum = max_weight_perfect_matching(g)
    assert optimum.drop_zero_edges(0, 2) == ([], 2, True)


def test_remove_zero_edges_e1_agent4(e1):
    g = build_graph(e1, Mechanism.MSIR)
    li = list(g.left).index("4")
    assert g.rows[li] == {3: 0, 4: 1}  # h4 weight 0, h5 weight 1
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
        assert weight == (None if after_removal is None else after_removal.weight)
        # removing edges never improves the optimum
        assert weight is None or weight <= best_before.weight
        if kept:
            kept_count += 1
            assert g.rows == trimmed.rows
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
        brute = brute_force_optimum(g)
        solved = lex_min(g)
        if brute is None:
            assert solved is None
        else:
            assert solved is not None
            assert solved.weight == brute[0]
            assert solved.assignment == brute[1]  # lexicographic tie-break
        checked += 1
    assert checked == 300


def test_solver_matches_brute_force_on_larger_graphs():
    rng = SplitMix64(555)
    for _ in range(30):
        g = random_graph(rng, 6, 0.6)  # 720 permutations
        brute = brute_force_optimum(g)
        solved = lex_min(g)
        if brute is None:
            assert solved is None
        else:
            assert (solved.weight, solved.assignment) == brute


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
        solved = optimum.canonical()
        assert (solved.weight, solved.assignment) == expected
        assert_certified(optimum)  # the rotation keeps the duals' proof


def test_determinism_pair_for_pair():
    rng = SplitMix64(7)
    for _ in range(50):
        g = random_graph(rng, 4, 0.8)
        first = lex_min(g)
        second = lex_min(g)
        assert first == second

