"""Maximum-weight perfect matching on square bipartite graphs given as rows.

``rows[li]`` maps each right neighbour rj of left vertex li to the weight,
0 or 1, of the edge; the right vertices are ``range(len(rows))``.  Vertices
are bare indices: naming them is the caller's business.

The solver finds a minimum-cost perfect matching for the cost ``1 -
weight`` by successive shortest paths with dual potentials (Tomizawa;
Edmonds and Karp): every free left vertex is matched by one Dijkstra search
over the reduced costs ``cost - u[left] - v[right]``, along each left
vertex's own row.  The duals stay feasible (no reduced cost below zero) and
every matched edge stays tight (reduced cost zero).  Costs are small
non-negative integers, so zero potentials are feasible at the start and no
arithmetic grows with the graph.  A left vertex with no path to a free
right vertex means that no perfect matching exists.

The solver returns its live state, an :class:`OptimalMatching`: the rows,
the matching, its weight and the duals that prove it optimal.  It
replaces rows and never edits one, so a shallow copy is independent.  It
stays optimal while left vertices lose their weight-0 edges: deleting edges
keeps the duals feasible, so an optimum that survives the deletion needs
no work, and one that loses its edge needs a single search from the vertex
that lost it.  The same repair carries an optimum to a graph that
differs in one left vertex's row (:meth:`OptimalMatching.swap_row`): that
vertex's dual drops to the cheapest reduced cost on its new row, and its
matched edge either stays tight or gives way to one search.

Determinism: under optimal duals the maximum-weight perfect matchings are
exactly the perfect matchings of the tight subgraph (complementary
slackness).  :meth:`OptimalMatching.canonical` rotates to the
lexicographically smallest of them (smallest right index for left vertex
0, then for left vertex 1, ...) along tight alternating cycles, so the
result depends only on the graph, not on scan order or on which optimum
the searches reached.
"""

from __future__ import annotations

from heapq import heappop, heappush


class OptimalMatching:
    """A maximum-weight perfect matching of the graph ``rows`` plus duals
    proving it optimal, kept optimal while edges of the graph are deleted.

    ``mate[li]`` is the right vertex of left vertex li and ``owner[rj]`` the
    left vertex of right vertex rj (-1 while free); ``weight`` is the sum of
    the matched edges' weights.  The duals ``u``, ``v`` satisfy ``1 -
    weight - u[li] - v[rj] >= 0`` on every edge, with equality on matched
    edges.  The caller's row list is kept, not copied; :meth:`drop_zero_edges`
    and :meth:`swap_row` replace its entries and never edit a row dict, so
    :meth:`copy` is shallow: it copies the list and shares the rows.
    """

    __slots__ = ("rows", "mate", "owner", "u", "v", "weight")

    def __init__(self, rows: list[dict[int, int]], u: list[int]) -> None:
        """The empty matching of ``rows`` under the duals ``u`` and v = 0;
        :func:`max_weight_perfect_matching` fills it."""
        size = len(rows)
        self.rows = rows
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
        rows, owner, u, v = self.rows, self.owner, self.u, self.v
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
        weight is at least ``min_weight``.  Otherwise the old row goes back
        and the matching and duals are left as they were.
        """
        row = self.rows[li]
        trimmed = {rj: w for rj, w in row.items() if w}
        self.rows[li] = trimmed
        if self.mate[li] in trimmed:
            # The matched edge survived, so the optimum did too.
            weight = self.weight
        else:
            # li's matched edge had weight 0 and is gone.
            weight = self._rematch(li, self.weight, min_weight)
        kept = weight is not None and weight >= min_weight
        if not kept:
            self.rows[li] = row
        return sorted(rj for rj, w in row.items() if w == 0), weight, kept

    def copy(self) -> OptimalMatching:
        """An independent copy: the row list and the matching state are
        copied and the row dicts, never edited, are shared, so refining one
        leaves the other as it was."""
        twin = OptimalMatching.__new__(OptimalMatching)
        twin.rows = self.rows[:]
        twin.mate, twin.owner = self.mate[:], self.owner[:]
        twin.u, twin.v = self.u[:], self.v[:]
        twin.weight = self.weight
        return twin

    def swap_row(self, li: int, row: dict[int, int]) -> bool:
        """Give left vertex ``li`` the non-empty ``row`` in place of its
        current one and re-optimise; False if the new graph has no perfect
        matching, which leaves the state unusable.

        Setting ``u[li]`` to the smallest reduced cost on the new row keeps
        the duals feasible, and every other matched edge stays tight.  So if
        li's matched edge is still present and tight the optimum stands;
        otherwise one search from li finds the new one.
        """
        rows, u, v = self.rows, self.u, self.v
        h = self.mate[li]
        rest = self.weight - rows[li][h]  # the weight of the other matched edges
        rows[li] = row
        u[li] = min(1 - w - v[rj] for rj, w in row.items())
        if h in row and 1 - row[h] - u[li] - v[h] == 0:
            self.weight = rest + row[h]
            return True
        return self._rematch(li, rest, 0) is not None

    def _rematch(self, li: int, rest: int, min_weight: int) -> int | None:
        """Free li's house, the only free right vertex then, and find the new
        optimum by one search from li; ``rest`` is the weight of the other
        matched edges.  Returns the optimum's weight, or None if there is no
        perfect matching, and adopts it iff that is at least ``min_weight``."""
        h = self.mate[li]
        self.owner[h] = -1
        found = self._search(li)
        if found is None:
            self.owner[h] = li
            return None
        end, settled, prev = found
        # The path's reduced costs telescope: its non-matched edges sum to
        # settled[end] and its matched edges are tight, so the optimum after
        # augmenting weighs rest + 1 - settled[end] - u[li] - v[end].
        weight = rest + 1 - (settled[end] + self.u[li] + self.v[end])
        if weight >= min_weight:
            # The duals change only here, so a rejection needs no undo.
            self._augment(li, end, settled, prev)
            self.weight = weight
        else:
            self.owner[h] = li
        return weight

    def _cycle(self, start: int, fixed: int, target: int, dead: set[int]) -> list | None:
        """Tight alternating path from left vertex ``start`` to right vertex
        ``target`` through left vertices above ``fixed`` not in ``dead``.

        Returns the (left, right) pairs that rotate along it, or None; every
        left vertex visited by a failed search is added to ``dead``.
        """
        rows, owner, u, v = self.rows, self.owner, self.u, self.v
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

    def canonical(self) -> None:
        """Rotate in place to the lexicographically smallest optimum.

        Rotating along tight cycles keeps the matching optimal under the same
        duals, so its weight and the duals stand unchanged.
        """
        rows, mate, owner, u, v = self.rows, self.mate, self.owner, self.u, self.v
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


def max_weight_perfect_matching(rows: list[dict[int, int]]) -> OptimalMatching | None:
    """A maximum-weight perfect matching of the square graph ``rows`` with
    its duals, or None if no perfect matching exists.

    The optimum returned is whichever the searches reached; call
    :meth:`OptimalMatching.canonical` for the lexicographically smallest.
    """
    if not all(rows):
        return None
    # u[li] = cheapest edge of li: feasible with v = 0, and it makes every
    # left vertex's cheapest edges tight, so most are matched greedily.
    u = [1 - max(row.values()) for row in rows]
    state = OptimalMatching(rows, u)
    mate, owner = state.mate, state.owner
    for li, row in enumerate(rows):
        for rj, w in row.items():
            if 1 - w == u[li] and owner[rj] < 0:
                mate[li], owner[rj] = rj, li
                break
    for li in range(len(rows)):
        if mate[li] < 0:
            found = state._search(li)
            if found is None:
                return None
            state._augment(li, *found)
    state.weight = sum(rows[li][rj] for li, rj in enumerate(mate))
    return state
