"""Chordality testing with verifiable certificates.

Maximum cardinality search produces an ordering whose reverse is a perfect
elimination ordering exactly when the graph is chordal. The ordering is
checked and each vertex's later neighbors collected in one pass
(``elimination``), which is all a chordal graph's cliques need. For a
certificate, the PEO is returned on success; on failure an induced
chordless cycle of length at least four is extracted as a counterexample.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def mcs_order(n: int, adj: Sequence[frozenset[int]]) -> list[int]:
    """Maximum cardinality search visit order (ties to the smallest index).

    A vertex of weight w at index i scores w * n + (n - 1 - i), so the
    largest score is the largest weight, ties to the smallest index; a
    visited vertex scores -1.
    """
    score = list(range(n - 1, -1, -1))
    order = []
    for _ in range(n):
        v = score.index(max(score))
        score[v] = -1
        order.append(v)
        for w in adj[v]:
            if score[w] >= 0:
                score[w] += n
    return order


def elimination(
    n: int, adj: Sequence[frozenset[int]]
) -> tuple[tuple[int, frozenset[int]], ...] | None:
    """(vertex, later neighbors) pairs along the reversed MCS order, or
    None when that order is not a perfect elimination ordering, which
    happens exactly when the graph is not chordal.

    Each vertex's later neighbors must all be adjacent to the earliest of
    them (the single-representative test).
    """
    order = mcs_order(n, adj)
    order.reverse()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    remaining = set(range(n))
    out = []
    for v in order:
        remaining.discard(v)
        later = adj[v] & remaining
        if later:
            first = min(later, key=pos.__getitem__)
            if len(later - adj[first]) != 1:
                return None
        out.append((v, later))
    return tuple(out)


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


def chordality_certificate(
    n: int, adj: Sequence[frozenset[int]]
) -> tuple[bool, list[int]]:
    """(True, perfect elimination ordering) or (False, induced hole)."""
    elim = elimination(n, adj)
    if elim is not None:
        return True, [v for v, _ in elim]
    hole = find_hole(n, adj)
    if hole is None:
        raise RuntimeError("elimination check failed but no hole was found")
    return False, hole
