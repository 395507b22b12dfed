"""The dense reference solver: an integer Hungarian method on the full
|V| x |V| cost matrix, with the lexicographic tie-break encoded into the
costs.

Test-only.  It shares no code with ``housealloc.matching`` and is slow
(O(|V|^3) steps on integers of about |V| * log|V| bits), so the tests use it
on small graphs to cross-check the sparse solver and the incremental
refinement round by round.

Encoding: edge (i, j) of weight w costs ``-w * S + j * R^(L-1-i)`` with
``S = R = L = |V|`` raised as shown, so distinct assignment sequences have
distinct totals and the optimum is the lexicographically smallest
max-weight perfect matching; a missing edge costs ``(L + 2) * S``, worse
than any matching of real edges, so its use in the optimum means that no
perfect matching exists.
"""

from __future__ import annotations


def _solve_min_cost(cost: list[list[int]]) -> list[int]:
    # Hungarian method with potentials on a complete square matrix
    # (1-indexed internally; p[j] is the row matched to column j).
    n = len(cost)
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: list = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    return row_to_col


def reference_optimum(rows) -> tuple[int, tuple[int, ...]] | None:
    """(weight, lexicographically smallest max-weight perfect matching) of
    the square graph ``rows`` (``rows[li]``: right index -> weight), or None
    if it has no perfect matching."""
    size = len(rows)
    if size == 0:
        return 0, ()
    scale = size**size
    forbidden = (size + 2) * scale
    position = [size ** (size - 1 - i) for i in range(size)]
    cost = [[forbidden] * size for _ in range(size)]
    weights = {}
    for li, row in enumerate(rows):
        for rj, w in row.items():
            cost[li][rj] = -w * scale + rj * position[li]
            weights[(li, rj)] = w
    assignment = _solve_min_cost(cost)
    if any((li, rj) not in weights for li, rj in enumerate(assignment)):
        return None
    total = sum(weights[(li, rj)] for li, rj in enumerate(assignment))
    return total, tuple(assignment)
