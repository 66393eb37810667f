"""Small exact combinatorial searches on index-based adjacency.

All functions take a vertex count and a sequence of neighbor sets
(vertex i's neighbors as a set of indices) and run deterministically:
candidates are always visited in ascending index order.

The searches whose work has no fixed bound (`maximal_cliques`,
`maximal_independent_sets`, `max_clique` and `iter_induced_cycles`)
raise ResourceLimitError past a cap. This module is the one place that
holds it: each search reads the cap `set_cap` put in force when it
starts, DEFAULT_SET_CAP outside any `set_cap` block, and `cli.main` puts
the --cap-sets value in force for one command. Only `maximal_cliques`
also takes an explicit cap, for a caller with a bound of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

from .errors import ResourceLimitError

DEFAULT_SET_CAP = 10**6

_SET_CAP: ContextVar[int] = ContextVar("set_cap", default=DEFAULT_SET_CAP)


@contextmanager
def set_cap(n: int) -> Iterator[None]:
    """Make n the cap of every search started in the block that is given
    none, restoring the cap before it on leaving the block."""
    token = _SET_CAP.set(n)
    try:
        yield
    finally:
        _SET_CAP.reset(token)


def cap_in_force() -> int:
    """The cap a search started now would read."""
    return _SET_CAP.get()


def _clique_pivot(p: set[int], x: set[int], adj: Sequence[frozenset[int]]) -> int:
    """The first vertex of p | x, in ascending order, with the most
    neighbours in p. None has more than len(p), and none of p more than
    len(p) - 1 (no vertex is its own neighbour), so the scan stops at the
    first vertex that reaches that bound."""
    bound = len(p) if x else len(p) - 1
    pivot = best = -1
    for u in sorted(p | x):
        score = len(p & adj[u])
        if score > best:
            pivot, best = u, score
            if score == bound:
                break
    return pivot


def maximal_cliques(
    n: int, adj: Sequence[frozenset[int]], cap: int | None = None
) -> list[tuple[int, ...]]:
    """All maximal cliques via Bron-Kerbosch with pivoting.

    The search runs on an explicit stack, one frame per clique under
    extension, so a large clique costs no Python recursion depth.
    Raises ResourceLimitError once more than cap cliques have been found;
    a cap of None is the one in force.
    """
    if cap is None:
        cap = _SET_CAP.get()
    out: list[tuple[int, ...]] = []
    # (r, p, x, the vertices of p still to branch on) for each clique r
    # under extension, innermost last.
    stack: list[tuple[list[int], set[int], set[int], Iterator[int]]] = []

    def visit(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            if len(out) >= cap:
                raise ResourceLimitError(
                    f"maximal set enumeration exceeded cap of {cap}"
                )
            out.append(tuple(sorted(r)))
            return
        pivot = _clique_pivot(p, x, adj)
        stack.append((r, p, x, iter(sorted(p - adj[pivot]))))

    visit([], set(range(n)), set())
    while stack:
        r, p, x, todo = stack[-1]
        for v in todo:
            depth = len(stack)
            visit(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)
            if len(stack) > depth:
                break
        else:
            stack.pop()
    return sorted(out)


def maximal_independent_sets(
    n: int, adj: Sequence[frozenset[int]]
) -> list[tuple[int, ...]]:
    """All maximal independent sets: maximal cliques of the complement."""
    everything = frozenset(range(n))
    co_adj = [everything - adj[i] - {i} for i in range(n)]
    return maximal_cliques(n, co_adj)


def max_clique(n: int, adj: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """One maximum clique, by branch and bound with a greedy coloring bound.

    The cap in force bounds the number of branches taken.
    """
    if n == 0:
        return ()
    cap = budget = _SET_CAP.get()
    best: list[int] = []

    def coloring_order(p: list[int]) -> list[tuple[int, int]]:
        # Greedy color classes; a vertex's color number bounds the largest
        # clique through it inside p.
        classes: list[list[int]] = []
        for v in p:
            for idx, cls in enumerate(classes):
                if not any(u in adj[v] for u in cls):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        ordered = []
        for idx, cls in enumerate(classes):
            for v in cls:
                ordered.append((v, idx + 1))
        return ordered

    # One frame per vertex added to r: the candidates p and the (vertex,
    # color bound) pairs still to branch on, on an explicit stack so a
    # large clique costs no Python recursion depth.
    r: list[int] = []
    everything = list(range(n))
    stack = [(everything, reversed(coloring_order(everything)))]
    while stack:
        p, todo = stack[-1]
        step = next(todo, None)
        if step is not None and len(r) + step[1] > len(best):
            v = step[0]
            budget -= 1
            if budget < 0:
                raise ResourceLimitError(
                    f"maximum clique search exceeded cap of {cap} branches"
                )
            nxt = [u for u in p if u in adj[v] and u != v]
            p.remove(v)
            if nxt:
                r.append(v)
                stack.append((nxt, reversed(coloring_order(nxt))))
            elif len(r) + 1 > len(best):
                best = r + [v]
            continue
        stack.pop()
        if stack:
            r.pop()
    return tuple(sorted(best))


def greedy_set_cover(
    universe: int,
    sets: Sequence[frozenset[int]],
    candidates: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Greedy cover of range(universe): indices in the order picked.

    Each step takes the candidate set (every set by default) that covers
    the most elements still uncovered, ties to the smallest index. Raises
    ValueError once no candidate covers a remaining element.
    """
    pool = range(len(sets)) if candidates is None else candidates
    picked: tuple[int, ...] = ()
    left = set(range(universe))
    while left:
        pick = max(pool, key=lambda i: (len(sets[i] & left), -i), default=None)
        if pick is None or not sets[pick] & left:
            raise ValueError("sets do not cover the universe")
        picked += (pick,)
        left -= sets[pick]
    return picked


def exact_set_cover(universe: int, sets: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Indices of a minimum subfamily covering range(universe).

    Requires the union of the sets to cover the universe, checked first.
    Drops every set contained in another (or equal to an earlier one),
    starts from the greedy cover of the sets left (`greedy_set_cover`) and
    branches on the element with the fewest remaining candidate sets, in
    ascending set order, keeping a cover only when it is strictly smaller,
    so the greedy cover is returned, sorted, whenever none is smaller. The
    search runs on an explicit stack of partial covers, so a large cover
    costs no Python recursion depth.
    """
    if universe == 0:
        return ()
    full = frozenset(range(universe))
    if frozenset().union(*sets) != full:
        raise ValueError("sets do not cover the universe")

    # Dominated sets can never be needed.
    live = [
        i
        for i, s in enumerate(sets)
        if not any(
            (s < sets[j]) or (s == sets[j] and j < i) for j in range(len(sets))
        )
    ]

    covers: dict[int, list[int]] = {
        e: [i for i in live if e in sets[i]] for e in range(universe)
    }

    best = greedy_set_cover(universe, sets, live)

    # (chosen sets, elements they leave uncovered); the branches of a
    # partial cover are pushed in reverse, so they are taken in ascending
    # order, each after the whole search below the one before it.
    stack: list[tuple[tuple[int, ...], frozenset[int]]] = [((), full)]
    while stack:
        chosen, uncovered = stack.pop()
        if not uncovered:
            if len(chosen) < len(best):
                best = chosen
            continue
        biggest = max(len(sets[i] & uncovered) for i in live)
        lower = -(-len(uncovered) // biggest)
        if len(chosen) + lower >= len(best):
            continue
        target = min(uncovered, key=lambda e: (len(covers[e]), e))
        stack.extend(
            (chosen + (i,), uncovered - sets[i]) for i in reversed(covers[target])
        )
    return tuple(sorted(best))


def iter_induced_cycles(
    n: int,
    adj: Sequence[frozenset[int]],
    length: int,
) -> Iterator[tuple[int, ...]]:
    """Yield each chordless cycle of exactly the given length once.

    Cycles are vertex tuples starting at their smallest vertex, oriented so
    the second entry is smaller than the last. Only induced paths are ever
    extended, so dense regions prune immediately: a vertex adjacent to an
    interior path vertex, counted per vertex as the path grows and shrinks,
    is never added, and neither is a neighbour of the start before the
    closing step. The search runs on an explicit stack, one frame per path
    vertex, so a long cycle costs no Python recursion depth. The cap in
    force when the search starts bounds the number of path extensions,
    each admissible vertex appended to a path counting once, the closing
    vertex of a full-length path included.
    """
    if length < 3 or n < length:
        return
    cap = budget = _SET_CAP.get()
    ordered = [sorted(a) for a in adj]
    on_path = [False] * n
    # interior[w]: how many path vertices other than the first and the
    # last are adjacent to w.
    interior = [0] * n
    for start in range(n):
        path = [start]
        on_path[start] = True
        stack = [iter(ordered[start])]
        while stack:
            for w in stack[-1]:
                if w <= start or on_path[w] or interior[w]:
                    continue
                k = len(path)
                if k + 1 < length and k >= 2 and start in adj[w]:
                    continue
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError(
                        f"cycle search exceeded cap of {cap} extensions"
                    )
                if k + 1 == length:
                    if start in adj[w] and path[1] < w:
                        yield (*path, w)
                    continue
                if k >= 2:
                    for u in adj[path[-1]]:
                        interior[u] += 1
                path.append(w)
                on_path[w] = True
                stack.append(iter(ordered[w]))
                break
            else:
                stack.pop()
                on_path[path.pop()] = False
                if len(path) >= 2:
                    for u in adj[path[-1]]:
                        interior[u] -= 1


def is_bipartite(n: int, adj: Sequence[frozenset[int]]) -> bool:
    color: dict[int, int] = {}
    for s in range(n):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True
