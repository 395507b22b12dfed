"""Solver tests against an independent brute-force permutation search."""

from housealloc.matching import OptimalMatching, max_weight_perfect_matching
from housealloc.mechanisms import Mechanism, build_graph, run_mechanism
from housealloc.model import validate_instance
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


def round_of(instance, mechanism, agent):
    """The refinement round of ``agent`` in the identity-order run."""
    trace = run_mechanism(instance, mechanism).trace
    return next(r for r in trace.rounds if r.agent == agent)


def test_remove_zero_edges_counts():
    g = graph_from_edges(3, [(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (2, 2, 1)])
    optimum = max_weight_perfect_matching(g)
    assert optimum.replace_row(0, {1: 1}, 3) == 3
    assert g[0] == {1: 1}
    # the same graph as the MSIR graph of a market: agent a owns nothing and
    # wants h2, b and c keep the houses they own and want
    market = validate_instance(
        ["a", "b", "c"], ["h1", "h2", "h3"], {"b": "h1", "c": "h3"},
        {"a": {"h2"}, "b": {"h1"}, "c": {"h3"}},
    )
    assert build_graph(market, Mechanism.MSIR) == graph_from_edges(3, [
        (0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (2, 2, 1)])
    assert round_of(market, Mechanism.MSIR, "a") == ("a", ("h1", "h3"), 3, True)


def test_remove_zero_edges_no_zero_edges():
    g = graph_from_edges(2, [(0, 0, 1), (1, 1, 1)])
    optimum = max_weight_perfect_matching(g)
    assert optimum.replace_row(0, {0: 1}, 2) == 2
    market = validate_instance(
        ["a", "b"], ["h1", "h2"], {"a": "h1", "b": "h2"}, {"a": {"h1"}, "b": {"h2"}}
    )
    assert build_graph(market, Mechanism.MSIR) == g
    assert round_of(market, Mechanism.MSIR, "a") == ("a", (), 2, True)


def test_remove_zero_edges_e1_agent4(e1):
    g = build_graph(e1, Mechanism.MSIR)
    li = e1.agent_index["4"]
    assert g[li] == {3: 0, 4: 1}  # h4 weight 0, h5 weight 1
    assert round_of(e1, Mechanism.MSIR, "4").removed == ("h4",)


def test_replace_row_replaces_the_row_and_never_edits_it():
    g = graph_from_edges(3, [(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (2, 2, 1)])
    for floor, kept in ((3, True), (4, False)):
        optimum = max_weight_perfect_matching([dict(row) for row in g])
        row = optimum.rows[0]
        before = list(row.items())
        trimmed = {1: 1}
        assert optimum.replace_row(0, trimmed, floor) == 3
        assert list(row.items()) == before
        assert optimum.rows[0] is (trimmed if kept else row)


def test_a_round_that_keeps_a_weight_1_matched_edge_makes_no_search(monkeypatch):
    # dropping weight-0 edges moves no dual when the matched edge has weight
    # 1, so that edge stays tight and the optimum stands
    def no_search(self, root):
        raise AssertionError("searched")

    rng = SplitMix64(31)
    decided = 0
    for _ in range(200):
        size = 1 + rng.bounded(6)
        optimum = max_weight_perfect_matching(random_graph(rng, size, 0.7))
        if optimum is None:
            continue
        for li in range(size):
            row = optimum.rows[li]
            if row[optimum.mate[li]]:
                twin = optimum.copy()
                with monkeypatch.context() as patch:
                    patch.setattr(OptimalMatching, "_search", no_search)
                    weight = twin.replace_row(li, {rj: w for rj, w in row.items() if w}, 0)
                assert weight == optimum.weight
                decided += 1
    assert decided


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
        floor = optimum.weight + rng.bounded(2)
        row = before[0][li]
        weight = optimum.replace_row(li, {rj: w for rj, w in row.items() if w}, floor)
        kept = weight is not None and weight >= floor
        # the reported weight is the optimum of the graph without the edges
        trimmed = graph_from_edges(size, [
            (i, j, w) for i, row in enumerate(before[0]) for j, w in row.items()
            if i != li or w
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


def test_replace_row_matches_a_cold_solve():
    # any new row, empty ones included, and floors up to one above the new
    # optimum: the repair returns the cold optimum of the changed graph and
    # either adopts it, certified and with the cold lex-min, or changes
    # nothing
    rng = SplitMix64(4242)
    adopted = rejected = infeasible = empty = 0
    for _ in range(3000):
        size = 1 + rng.bounded(5)
        density = 0.3 + 0.6 * rng.float01()
        g = random_graph(rng, size, density)
        optimum = max_weight_perfect_matching(g)
        if optimum is None:
            continue
        li = rng.bounded(size)
        row = {rj: 1 if rng.bernoulli(0.5) else 0
               for rj in range(size) if rng.bernoulli(density)}
        changed = g[:li] + [row] + g[li + 1:]
        cold = lex_min(changed)
        floor = rng.bounded((size if cold is None else cold[0]) + 2)
        before = snapshot(optimum)
        weight = optimum.replace_row(li, row, floor)
        assert weight == (None if cold is None else cold[0])
        if weight is not None and weight >= floor:
            adopted += 1
            assert_certified(optimum)
            optimum.canonical()
            assert (optimum.weight, tuple(optimum.mate)) == cold
        else:
            rejected += weight is not None
            infeasible += weight is None
            empty += not row
            assert snapshot(optimum) == before
    assert adopted and rejected and infeasible and empty


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

