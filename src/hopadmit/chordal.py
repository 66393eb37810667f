"""Chordality testing with verifiable certificates.

Maximum cardinality search produces an ordering whose reverse is a perfect
elimination ordering exactly when the graph is chordal. One pass
(``peo_cliques``) checks the ordering and reads the graph's maximal
cliques off it, each a vertex plus its later neighbors; this is the only
module that handles elimination orderings. For a certificate, the PEO is
returned on success; on failure an induced chordless cycle of length at
least four is extracted as a counterexample.
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


def peo_cliques(
    n: int, adj: Sequence[frozenset[int]]
) -> tuple[list[int], list[tuple[int, ...]]] | None:
    """The reversed MCS order and the maximal cliques of a chordal graph,
    or None when that order is not a perfect elimination ordering, which
    happens exactly when the graph is not chordal.

    Each vertex's later neighbors must all be adjacent to the earliest of
    them (the single-representative test). Every maximal clique is then a
    vertex v plus its later neighbors, listed as (v, *later) in order. The
    clique of v lies inside another exactly when some u has v as its
    earliest later neighbor and one later neighbor more than v: later(u)
    minus v lies in later(v), because later(u) is a clique, so then
    later(u) is v plus later(v).
    """
    order = mcs_order(n, adj)
    order.reverse()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    remaining = set(range(n))
    laters = []
    firsts = []
    for v in order:
        remaining.discard(v)
        later = adj[v] & remaining
        laters.append(later)
        if later:
            first = min(later, key=pos.__getitem__)
            if len(later - adj[first]) != 1:
                return None
            firsts.append((first, len(later)))
    covered = {u for u, size in firsts if size == len(laters[pos[u]]) + 1}
    cliques = [(v, *later) for v, later in zip(order, laters) if v not in covered]
    return order, cliques


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
    found = peo_cliques(n, adj)
    if found is not None:
        return True, found[0]
    hole = find_hole(n, adj)
    if hole is None:
        raise RuntimeError("elimination check failed but no hole was found")
    return False, hole
