"""Solver tests against an independent brute-force permutation search."""

import itertools

import pytest

from housealloc.matching import (
    Matching,
    OptimalMatching,
    UnbalancedGraph,
    UnknownVertex,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
    remove_zero_edges,
    restore_edges,
)
from housealloc.mechanisms import Mechanism, build_graph
from housealloc.rng import SplitMix64
from conftest import has_perfect_matching
from reference_solver import reference_optimum


def brute_force_optimum(graph):
    """Try every assignment sequence in lexicographic order; keep the first
    one attaining the maximum weight.  Returns (weight, assignment) or None."""
    size = len(graph.left)
    best = None
    for perm in itertools.permutations(range(size)):
        weight = 0
        for li, rj in enumerate(perm):
            w = graph.weight(li, rj)
            if w is None:
                break
            weight += w
        else:
            if best is None or weight > best[0]:
                best = (weight, perm)
    return best


def graph_from_edges(n, edges):
    g = WeightedBipartiteGraph(
        tuple(f"l{i}" for i in range(n)), tuple(f"r{j}" for j in range(n))
    )
    for li, rj, w in edges:
        g.add_edge(li, rj, w)
    return g


def random_graph(rng, size, density):
    edges = []
    for li in range(size):
        for rj in range(size):
            if rng.bernoulli(density):
                edges.append((li, rj, 1 if rng.bernoulli(0.5) else 0))
    return graph_from_edges(size, edges)


def test_unique_maximizer_2x2():
    g = graph_from_edges(2, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    m = max_weight_perfect_matching(g)
    assert m == Matching(assignment=(0, 1), weight=1)
    assert m.pairs == ((0, 0), (1, 1))


def test_hall_violation_detected():
    # both edges leave from left vertex 0; left vertex 1 cannot be matched
    g = graph_from_edges(2, [(0, 0, 1), (0, 1, 1)])
    assert max_weight_perfect_matching(g) is None
    assert not has_perfect_matching(g)


def test_empty_graph_has_empty_perfect_matching():
    g = graph_from_edges(0, [])
    assert max_weight_perfect_matching(g) == Matching(assignment=(), weight=0)
    assert has_perfect_matching(g)


def test_unbalanced_graph_rejected():
    g = WeightedBipartiteGraph(("l0",), ("r0", "r1"))
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
    solved = max_weight_perfect_matching(g)
    assert solved is not None and solved.weight == 5
    assert solved.assignment == brute[1]


def test_remove_zero_edges_counts():
    g = graph_from_edges(3, [(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 1, 1), (2, 2, 1)])
    delta = remove_zero_edges(g, 0)
    assert len(delta.removed) == 2
    assert g.weight(0, 0) is None and g.weight(0, 2) is None
    assert g.weight(0, 1) == 1


def test_remove_zero_edges_no_zero_edges():
    g = graph_from_edges(2, [(0, 0, 1), (1, 1, 1)])
    delta = remove_zero_edges(g, 0)
    assert delta.removed == ()


def test_remove_zero_edges_unknown_vertex():
    g = graph_from_edges(1, [(0, 0, 1)])
    with pytest.raises(UnknownVertex):
        remove_zero_edges(g, 5)


def test_remove_zero_edges_e1_agent4(e1):
    g = build_graph(e1, Mechanism.MSIR)
    li = list(g.left).index("4")
    assert g.edges_of(li) == [(3, 0), (4, 1)]  # h4 weight 0, h5 weight 1
    delta = remove_zero_edges(g, li)
    assert [(rj, w) for _, rj, w in delta.removed] == [(3, 0)]


def test_restore_is_exact_inverse():
    rng = SplitMix64(99)
    for _ in range(100):
        size = 1 + rng.bounded(5)
        g = random_graph(rng, size, 0.7)
        before = g.copy()
        best_before = max_weight_perfect_matching(g)
        delta = remove_zero_edges(g, rng.bounded(size))
        after_removal = max_weight_perfect_matching(g)
        # removing edges never improves the optimum
        if best_before is not None and after_removal is not None:
            assert after_removal.weight <= best_before.weight
        restore_edges(g, delta)
        assert g == before
        assert max_weight_perfect_matching(g) == best_before


def test_solver_matches_brute_force_on_random_graphs():
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(300):
        size = rng.bounded(5)  # up to 4x4: 24 permutations each
        g = random_graph(rng, size, 0.4 + 0.5 * rng.float01())
        brute = brute_force_optimum(g)
        solved = max_weight_perfect_matching(g)
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
        solved = max_weight_perfect_matching(g)
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
        solved = max_weight_perfect_matching(g)
        expected = reference_optimum(g)
        if expected is None:
            assert solved is None
            continue
        assert (solved.weight, solved.assignment) == expected
        OptimalMatching.certified(g, solved)  # raises unless the duals prove it


def test_determinism_pair_for_pair():
    rng = SplitMix64(7)
    for _ in range(50):
        g = random_graph(rng, 4, 0.8)
        first = max_weight_perfect_matching(g.copy())
        second = max_weight_perfect_matching(g.copy())
        assert first == second


def test_duplicate_edge_with_conflicting_weight_rejected():
    g = graph_from_edges(1, [(0, 0, 1)])
    g.add_edge(0, 0, 1)  # same weight collapses silently
    with pytest.raises(ValueError):
        g.add_edge(0, 0, 0)
