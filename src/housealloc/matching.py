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

Determinism: under optimal duals the maximum-weight perfect matchings are
exactly the perfect matchings of the tight subgraph.  The solver returns
the lexicographically smallest of them (smallest right index for left
vertex 0, then for left vertex 1, ...), found greedily by rotating along
tight alternating cycles, so the result does not depend on scan order or
on which optimum the searches reached.

The returned :class:`Matching` carries its duals as a certificate.
:class:`OptimalMatching` takes it over and keeps it optimal while left
vertices lose their weight-0 edges: deleting edges keeps the duals
feasible, so an optimum that survives the deletion needs no work, and one
that loses its edge needs a single search from the vertex that lost it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush


class UnbalancedGraph(ValueError):
    """Left and right sides differ in size; pad with dummies first."""


class UnknownVertex(ValueError):
    pass


class UncertifiedMatching(ValueError):
    """A matching handed over as optimal is not a perfect matching of the
    graph whose duals prove it optimal."""


class WeightedBipartiteGraph:
    """Bipartite graph with labelled vertices and {0,1} edge weights.

    Vertices are addressed by index into ``left`` / ``right``; labels exist
    for reporting.  Each left vertex keeps its edges in a dict from right
    index to weight, so removal and restoration are exact inverses.
    """

    __slots__ = ("left", "right", "_rows")

    def __init__(self, left: tuple[str, ...], right: tuple[str, ...]) -> None:
        self.left = tuple(left)
        self.right = tuple(right)
        self._rows: list[dict[int, int]] = [{} for _ in self.left]

    def add_edge(self, li: int, rj: int, weight: int) -> None:
        if weight not in (0, 1):
            raise ValueError(f"edge weight must be 0 or 1, got {weight}")
        if not (0 <= li < len(self.left) and 0 <= rj < len(self.right)):
            raise UnknownVertex(f"edge ({li}, {rj}) is out of range")
        row = self._rows[li]
        existing = row.get(rj)
        if existing is not None and existing != weight:
            raise ValueError(f"edge ({li}, {rj}) added twice with different weights")
        row[rj] = weight

    def weight(self, li: int, rj: int) -> int | None:
        return self._rows[li].get(rj)

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as (left, right, weight), in index order."""
        return [
            (li, rj, w)
            for li, row in enumerate(self._rows)
            for rj, w in sorted(row.items())
        ]

    def edges_of(self, li: int) -> list[tuple[int, int]]:
        """(right index, weight) pairs of one left vertex, in right order."""
        return sorted(self._rows[li].items())

    def copy(self) -> "WeightedBipartiteGraph":
        dup = WeightedBipartiteGraph(self.left, self.right)
        dup._rows = [dict(row) for row in self._rows]
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedBipartiteGraph):
            return NotImplemented
        return (
            self.left == other.left
            and self.right == other.right
            and self._rows == other._rows
        )


@dataclass(frozen=True)
class Matching:
    """A perfect matching: ``assignment[i]`` is the right index paired with
    left vertex i; ``weight`` is the sum of matched edge weights.

    ``duals`` is the solver's optimality certificate ``(u, v)``: for every
    edge ``1 - weight - u[i] - v[j] >= 0``, with equality on matched edges.
    It takes no part in comparisons.
    """

    assignment: tuple[int, ...]
    weight: int
    duals: tuple[tuple[int, ...], tuple[int, ...]] = field(
        default=((), ()), compare=False, repr=False
    )

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.assignment))


@dataclass(frozen=True)
class EdgeDelta:
    """Edges removed from a graph; restoring them undoes the removal exactly."""

    removed: tuple[tuple[int, int, int], ...]  # (left, right, weight)


class OptimalMatching:
    """A maximum-weight perfect matching of a graph plus duals proving it
    optimal, kept optimal while edges of the graph are deleted.

    ``mate[li]`` is the right vertex of left vertex li and ``owner[rj]`` the
    left vertex of right vertex rj (-1 while free).  The graph is shared,
    not copied: edges leave it only through :meth:`drop_zero_edges`.
    """

    __slots__ = ("graph", "mate", "owner", "u", "v", "weight")

    def __init__(
        self,
        graph: WeightedBipartiteGraph,
        mate: list[int],
        duals: tuple[list[int], list[int]],
        weight: int = 0,
    ) -> None:
        self.graph = graph
        self.mate = mate
        self.owner = [-1] * len(mate)
        for li, rj in enumerate(mate):
            if rj >= 0:
                self.owner[rj] = li
        self.u, self.v = duals
        self.weight = weight

    @classmethod
    def certified(
        cls, graph: WeightedBipartiteGraph, matching: Matching
    ) -> "OptimalMatching":
        """Take over a solver result, after checking that it is a perfect
        matching of ``graph`` of the stated weight whose duals prove it
        optimal."""
        size = len(graph.left)
        mate = list(matching.assignment)
        u, v = (list(d) for d in matching.duals)
        if not (len(mate) == len(u) == len(v) == size == len(graph.right)):
            raise UncertifiedMatching("matching and duals do not fit the graph")
        if sorted(mate) != list(range(size)):
            raise UncertifiedMatching("assignment is not a permutation")
        total = 0
        for li, row in enumerate(graph._rows):
            w = row.get(mate[li])
            if w is None or 1 - w - u[li] - v[mate[li]] != 0:
                raise UncertifiedMatching(f"matched edge of left vertex {li} is not tight")
            total += w
            if any(1 - x - u[li] - v[rj] < 0 for rj, x in row.items()):
                raise UncertifiedMatching(f"duals are infeasible at left vertex {li}")
        if total != matching.weight:
            raise UncertifiedMatching(f"weight is {total}, not {matching.weight}")
        return cls(graph, mate, (u, v), total)

    def _search(self, root: int) -> tuple[int, dict[int, int], dict[int, int]] | None:
        """Dijkstra over reduced costs from the free left vertex ``root`` to
        the nearest free right vertex.

        Returns that vertex, the final distance of every right vertex
        settled on the way and the left vertex each was reached from; None
        if no free right vertex is reachable.
        """
        rows, owner, u, v = self.graph._rows, self.owner, self.u, self.v
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

    def _gain(self, root: int, end: int, prev: dict[int, int]) -> int:
        """Weight added by augmenting along the path from ``root`` to ``end``."""
        rows, mate = self.graph._rows, self.mate
        gain, rj = 0, end
        while True:
            li = prev[rj]
            gain += rows[li][rj]
            if li == root:
                return gain
            rj = mate[li]
            gain -= rows[li][rj]

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

    def drop_zero_edges(
        self, li: int, min_weight: int
    ) -> tuple[EdgeDelta, int | None, bool]:
        """Delete the weight-0 edges of left vertex ``li`` and re-optimise.

        Returns the removed edges, the maximum weight of a perfect matching
        without them (None if none remains) and whether the deletion was
        kept: it is kept iff that weight is at least ``min_weight``.
        Otherwise the edges go back and the matching and duals are left as
        they were.
        """
        delta = remove_zero_edges(self.graph, li)
        h = self.mate[li]
        if h in self.graph._rows[li]:
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
                end, settled, prev = found
                weight = self.weight + self._gain(li, end, prev)
            kept = weight is not None and weight >= min_weight
            if kept:
                # The duals change only here, so a rejection needs no undo.
                self._augment(li, end, settled, prev)
                self.weight = weight
            else:
                self.owner[h] = li
        if not kept:
            restore_edges(self.graph, delta)
        return delta, weight, kept

    def _cycle(self, start: int, fixed: int, target: int, dead: set[int]) -> list | None:
        """Tight alternating path from left vertex ``start`` to right vertex
        ``target`` through left vertices above ``fixed`` not in ``dead``.

        Returns the (left, right) pairs that rotate along it, or None; every
        left vertex visited by a failed search is added to ``dead``.
        """
        rows, owner, u, v = self.graph._rows, self.owner, self.u, self.v
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
        """Rotate to the lexicographically smallest optimum and return it."""
        rows, mate, owner, u, v = self.graph._rows, self.mate, self.owner, self.u, self.v
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
        self.weight = sum(rows[li][rj] for li, rj in enumerate(mate))
        return Matching(tuple(mate), self.weight, (tuple(u), tuple(v)))


def max_weight_perfect_matching(graph: WeightedBipartiteGraph) -> Matching | None:
    """Maximum-weight perfect matching, or None if no perfect matching exists.

    Deterministic: among equal-weight optima, returns the lexicographically
    smallest assignment sequence.
    """
    size = len(graph.left)
    if size != len(graph.right):
        raise UnbalancedGraph(
            f"graph has {size} left and {len(graph.right)} right vertices"
        )
    if not all(graph._rows):
        return None
    # u[li] = cheapest edge of li: feasible with v = 0, and it makes every
    # left vertex's cheapest edges tight, so most are matched greedily.
    u = [1 - max(row.values()) for row in graph._rows]
    state = OptimalMatching(graph, [-1] * size, (u, [0] * size))
    mate, owner = state.mate, state.owner
    for li, row in enumerate(graph._rows):
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
    return state.canonical()


def remove_zero_edges(graph: WeightedBipartiteGraph, li: int) -> EdgeDelta:
    """Remove every weight-0 edge of left vertex ``li`` from the graph.

    Returns the removed edges; :func:`restore_edges` puts them back exactly.
    """
    if not (0 <= li < len(graph.left)):
        raise UnknownVertex(f"left vertex {li} is out of range")
    row = graph._rows[li]
    removed = tuple((li, rj, 0) for rj, w in sorted(row.items()) if w == 0)
    for _, rj, _ in removed:
        del row[rj]
    return EdgeDelta(removed=removed)


def restore_edges(graph: WeightedBipartiteGraph, delta: EdgeDelta) -> None:
    """Reinsert the edges recorded in ``delta``."""
    for li, rj, w in delta.removed:
        graph._rows[li][rj] = w
