"""Chordality testing with verifiable certificates.

Maximum cardinality search produces an ordering whose reverse is a perfect
elimination ordering exactly when the graph is chordal. On success the PEO
is returned; on failure an induced chordless cycle of length at least four
is extracted as a counterexample.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def mcs_order(n: int, adj: Sequence[frozenset[int]]) -> list[int]:
    """Maximum cardinality search visit order (ties to the smallest index)."""
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (i for i in range(n) if not visited[i]),
            key=lambda i: (weight[i], -i),
        )
        visited[v] = True
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                weight[w] += 1
    return order


def check_peo(n: int, adj: Sequence[frozenset[int]], order: Sequence[int]) -> bool:
    """Whether the ordering is a perfect elimination ordering.

    Uses the classic single-representative test: for each vertex, its later
    neighbors must all be adjacent to the earliest of them.
    """
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        first = min(later, key=pos.__getitem__)
        for w in later:
            if w != first and w not in adj[first]:
                return False
    return True


def find_hole(n: int, adj: Sequence[frozenset[int]]) -> list[int] | None:
    """An induced cycle of length >= 4, or None if the graph is chordal.

    For each vertex v and nonadjacent pair x, y of its neighbors, a shortest
    x-y path avoiding the rest of N[v] closes an induced cycle through v.
    """
    for v in range(n):
        nbrs = sorted(adj[v])
        for ai, x in enumerate(nbrs):
            for y in nbrs[ai + 1 :]:
                if y in adj[x]:
                    continue
                blocked = (adj[v] | {v}) - {x, y}
                path = _shortest_path_avoiding(adj, x, y, blocked)
                if path is not None:
                    return [v] + path
    return None


def _shortest_path_avoiding(
    adj: Sequence[frozenset[int]], src: int, dst: int, blocked: frozenset[int]
) -> list[int] | None:
    parent: dict[int, int | None] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = []
            cur: int | None = u
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            return path[::-1]
        for w in sorted(adj[u]):
            if w in blocked or w in parent:
                continue
            parent[w] = u
            queue.append(w)
    return None


def perfect_elimination_order(
    n: int, adj: Sequence[frozenset[int]]
) -> list[int] | None:
    """The reversed MCS order if it is a perfect elimination ordering.

    Returns None exactly when the graph is not chordal.
    """
    order = mcs_order(n, adj)
    order.reverse()
    return order if check_peo(n, adj, order) else None


def chordality_certificate(
    n: int, adj: Sequence[frozenset[int]]
) -> tuple[bool, list[int]]:
    """(True, perfect elimination ordering) or (False, induced hole)."""
    order = perfect_elimination_order(n, adj)
    if order is not None:
        return True, order
    hole = find_hole(n, adj)
    if hole is None:
        raise RuntimeError("elimination check failed but no hole was found")
    return False, hole
