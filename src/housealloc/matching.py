"""Maximum-weight perfect matching on balanced bipartite graphs.

Edges have weight 0 or 1.  The solver finds a minimum-cost perfect matching
for the cost ``1 - weight`` by successive shortest paths with dual
potentials (Tomizawa; Edmonds and Karp): every free left vertex is matched
by one Dijkstra search over the reduced costs ``cost - u[left] -
v[right]``, along each left vertex's own adjacency.  The duals stay
feasible (no reduced cost below zero) and every matched edge stays tight
(reduced cost zero).  Costs are small non-negative integers, so zero
potentials are feasible at the start and no arithmetic grows with the
graph.  A left vertex with no path to a free right vertex means that no
perfect matching exists.

The solver returns its live state, an :class:`OptimalMatching`: the
matching, its weight and the duals that prove it optimal.  That state
stays optimal while left vertices lose their weight-0 edges: deleting
edges keeps the duals feasible, so an optimum that survives the deletion
needs no work, and one that loses its edge needs a single search from the
vertex that lost it.

Determinism: under optimal duals the maximum-weight perfect matchings are
exactly the perfect matchings of the tight subgraph (complementary
slackness).  :meth:`OptimalMatching.canonical` rotates to the
lexicographically smallest of them (smallest right index for left vertex
0, then for left vertex 1, ...) along tight alternating cycles, so the
result depends only on the graph, not on scan order or on which optimum
the searches reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


class UnbalancedGraph(ValueError):
    """Left and right sides differ in size; pad with dummies first."""


@dataclass
class WeightedBipartiteGraph:
    """Bipartite graph with labelled vertices and {0,1} edge weights.

    Vertices are addressed by index into ``left`` / ``right``; labels exist
    for reporting.  ``rows[li]`` maps each right neighbour of left vertex
    li to the weight of the edge.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    rows: list[dict[int, int]]


@dataclass(frozen=True)
class Matching:
    """A perfect matching: ``assignment[i]`` is the right index paired with
    left vertex i; ``weight`` is the sum of matched edge weights."""

    assignment: tuple[int, ...]
    weight: int


class OptimalMatching:
    """A maximum-weight perfect matching of a graph plus duals proving it
    optimal, kept optimal while edges of the graph are deleted.

    ``mate[li]`` is the right vertex of left vertex li and ``owner[rj]`` the
    left vertex of right vertex rj (-1 while free).  The duals ``u``, ``v``
    satisfy ``1 - weight - u[li] - v[rj] >= 0`` on every edge, with
    equality on matched edges.  The graph is shared, not copied: edges
    leave it only through :meth:`drop_zero_edges`.
    """

    __slots__ = ("graph", "mate", "owner", "u", "v", "weight")

    def __init__(self, graph: WeightedBipartiteGraph, u: list[int]) -> None:
        """The empty matching of ``graph`` under the duals ``u`` and v = 0;
        :func:`max_weight_perfect_matching` fills it."""
        size = len(graph.left)
        self.graph = graph
        self.mate = [-1] * size
        self.owner = [-1] * size
        self.u, self.v = u, [0] * size
        self.weight = 0

    def _search(self, root: int) -> tuple[int, dict[int, int], dict[int, int]] | None:
        """Dijkstra over reduced costs from the free left vertex ``root`` to
        the nearest free right vertex.

        Returns that vertex, the final distance of every right vertex
        settled on the way and the left vertex each was reached from; None
        if no free right vertex is reachable.
        """
        rows, owner, u, v = self.graph.rows, self.owner, self.u, self.v
        settled: dict[int, int] = {}
        best: dict[int, int] = {}
        prev: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        li, dist = root, 0
        while True:
            base = dist + 1 - u[li]
            for rj, w in rows[li].items():
                if rj in settled:
                    continue
                d = base - w - v[rj]
                if rj not in best or d < best[rj]:
                    best[rj] = d
                    prev[rj] = li
                    heappush(heap, (d, rj))
            while True:
                if not heap:
                    return None
                dist, rj = heappop(heap)
                if rj not in settled:  # the first pop of rj carries best[rj]
                    break
            settled[rj] = dist
            li = owner[rj]
            if li < 0:
                return rj, settled, prev

    def _augment(
        self, root: int, end: int, settled: dict[int, int], prev: dict[int, int]
    ) -> None:
        """Shift the duals so the path becomes tight, then flip it."""
        mate, owner, u, v = self.mate, self.owner, self.u, self.v
        reach = settled[end]
        for rj, d in settled.items():
            if d < reach:
                v[rj] -= reach - d
                u[owner[rj]] += reach - d
        u[root] += reach
        rj = end
        while True:
            li = prev[rj]
            nxt = mate[li]
            mate[li] = rj
            owner[rj] = li
            if li == root:
                return
            rj = nxt

    def drop_zero_edges(self, li: int, min_weight: int) -> tuple[list[int], int | None, bool]:
        """Delete the weight-0 edges of left vertex ``li`` and re-optimise.

        Returns the right ends of the deleted edges in ascending order, the
        maximum weight of a perfect matching without them (None if none
        remains) and whether the deletion was kept: it is kept iff that
        weight is at least ``min_weight``.  Otherwise the edges go back and
        the matching and duals are left as they were.
        """
        row = self.graph.rows[li]
        removed = sorted(rj for rj, w in row.items() if w == 0)
        for rj in removed:
            del row[rj]
        h = self.mate[li]
        if h in row:
            # The matched edge survived, so the optimum did too.
            weight = self.weight
            kept = weight >= min_weight
        else:
            # li's matched edge had weight 0 and is gone; h is now the only
            # free right vertex, and one search from li finds the new optimum.
            self.owner[h] = -1
            found = self._search(li)
            weight = None
            if found is not None:
                # The path's reduced costs telescope: its non-matched edges
                # sum to settled[end] and its matched edges are tight, so
                # augmenting adds 1 - settled[end] - u[li] - v[end].
                end, settled, prev = found
                weight = self.weight + 1 - (settled[end] + self.u[li] + self.v[end])
            kept = weight is not None and weight >= min_weight
            if kept:
                # The duals change only here, so a rejection needs no undo.
                self._augment(li, end, settled, prev)
                self.weight = weight
            else:
                self.owner[h] = li
        if not kept:
            for rj in removed:
                row[rj] = 0
        return removed, weight, kept

    def _cycle(self, start: int, fixed: int, target: int, dead: set[int]) -> list | None:
        """Tight alternating path from left vertex ``start`` to right vertex
        ``target`` through left vertices above ``fixed`` not in ``dead``.

        Returns the (left, right) pairs that rotate along it, or None; every
        left vertex visited by a failed search is added to ``dead``.
        """
        rows, owner, u, v = self.graph.rows, self.owner, self.u, self.v
        dead.add(start)
        stack = [start]
        picks: list[int] = []
        scans = [iter(rows[start].items())]
        while scans:
            li = stack[-1]
            base = 1 - u[li]
            for rj, w in scans[-1]:
                if base - w - v[rj]:
                    continue
                if rj == target:
                    return list(zip(stack, picks + [rj]))
                nxt = owner[rj]
                if nxt < fixed or nxt in dead:
                    continue
                dead.add(nxt)
                stack.append(nxt)
                picks.append(rj)
                scans.append(iter(rows[nxt].items()))
                break
            else:
                stack.pop()
                scans.pop()
                if picks:
                    picks.pop()
        return None

    def canonical(self) -> Matching:
        """Rotate to the lexicographically smallest optimum and return it.

        Rotating along tight cycles keeps the matching optimal under the same
        duals, so its weight and the duals stand unchanged.
        """
        rows, mate, owner, u, v = self.graph.rows, self.mate, self.owner, self.u, self.v
        for li in range(len(mate)):
            target = mate[li]
            base = 1 - u[li]
            dead: set[int] = set()
            for rj in sorted(rj for rj, w in rows[li].items() if rj < target and base - w == v[rj]):
                start = owner[rj]
                if start < li or start in dead:
                    continue
                path = self._cycle(start, li, target, dead)
                if path is not None:
                    mate[li], owner[rj] = rj, li
                    for left, right in path:
                        mate[left], owner[right] = right, left
                    break
        return Matching(tuple(mate), self.weight)


def max_weight_perfect_matching(graph: WeightedBipartiteGraph) -> OptimalMatching | None:
    """A maximum-weight perfect matching of ``graph`` with its duals, or
    None if no perfect matching exists.

    The optimum returned is whichever the searches reached; call
    :meth:`OptimalMatching.canonical` for the lexicographically smallest.
    """
    size = len(graph.left)
    if size != len(graph.right):
        raise UnbalancedGraph(
            f"graph has {size} left and {len(graph.right)} right vertices"
        )
    rows = graph.rows
    if not all(rows):
        return None
    # u[li] = cheapest edge of li: feasible with v = 0, and it makes every
    # left vertex's cheapest edges tight, so most are matched greedily.
    u = [1 - max(row.values()) for row in rows]
    state = OptimalMatching(graph, u)
    mate, owner = state.mate, state.owner
    for li, row in enumerate(rows):
        for rj, w in row.items():
            if 1 - w == u[li] and owner[rj] < 0:
                mate[li], owner[rj] = rj, li
                break
    for li in range(size):
        if mate[li] < 0:
            found = state._search(li)
            if found is None:
                return None
            state._augment(li, *found)
    state.weight = sum(rows[li][rj] for li, rj in enumerate(mate))
    return state
