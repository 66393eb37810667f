"""Shared graph corpora for the test suite."""

from __future__ import annotations

import random

from hopadmit import (
    NetworkGraph,
    build_graph,
    circulant_graph,
    clique_pendant_graph,
    complete_graph,
    cycle_graph,
    star_graph,
)


def random_adjacency(rng: random.Random, n: int, p: float) -> tuple[frozenset[int], ...]:
    """Index adjacency of a G(n, p) random graph."""
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return tuple(frozenset(a) for a in adj)


def random_connected_graph(
    rng: random.Random, max_vertices: int = 8, max_links: int = 12
) -> NetworkGraph:
    """Random connected graph: attachment spanning tree plus extra edges."""
    n = rng.randint(2, max_vertices)
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    have = {tuple(sorted(e)) for e in edges}
    pool = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if (verts[i], verts[j]) not in have
    ]
    rng.shuffle(pool)
    room = max(0, max_links - len(edges))
    edges += pool[: rng.randint(0, min(room, len(pool)))]
    return build_graph(verts, edges)


# The 1-hop view of v3 is the whole graph, and its radius-2 conflict graph
# is not chordal, so that view is priced by the LP, not the clique table.
NON_CHORDAL_VIEW = build_graph(
    ["v0", "v1", "v3", "v4", "v5", "v6", "v7"],
    [
        ("v0", "v3"), ("v0", "v6"), ("v0", "v7"), ("v1", "v3"), ("v1", "v4"),
        ("v1", "v6"), ("v3", "v4"), ("v3", "v5"), ("v3", "v6"), ("v3", "v7"),
        ("v4", "v5"), ("v5", "v7"),
    ],
)


def family_graphs() -> list[tuple[str, NetworkGraph]]:
    """Small named instances from every generator family."""
    return [
        ("cycle:5", cycle_graph(5)),
        ("cycle:6", cycle_graph(6)),
        ("cycle:7", cycle_graph(7)),
        ("cycle:10", cycle_graph(10)),
        ("complete:3", complete_graph(3)),
        ("complete:4", complete_graph(4)),
        ("complete:5", complete_graph(5)),
        ("clique_pendant:2", clique_pendant_graph(2)),
        ("clique_pendant:3", clique_pendant_graph(3)),
        ("clique_pendant:4", clique_pendant_graph(4)),
        ("star:4", star_graph(4)),
        ("star:5", star_graph(5)),
        ("circulant:8:1,2", circulant_graph(8, (1, 2))),
        ("path:5", build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])),
        ("two_triangles", build_graph(
            "abcdef",
            [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
        )),
    ]


def random_corpus(seed: int, count: int, max_vertices: int = 8, max_links: int = 12):
    rng = random.Random(seed)
    return [
        random_connected_graph(rng, max_vertices, max_links) for _ in range(count)
    ]
