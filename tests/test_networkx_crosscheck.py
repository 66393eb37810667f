"""Maximal cliques and link distances cross-checked against networkx.

`search.maximal_cliques` must list exactly networkx's maximal cliques, and
the conflict graph at every radius k must join exactly the links whose
link distance, the shortest networkx path length between their endpoint
sets, is below k. Skipped when networkx is not installed.
"""

from __future__ import annotations

import math
import random

import pytest

from corpus import family_graphs, random_adjacency, random_connected_graph
from hopadmit import build_graph, conflict_graph, link_distance
from hopadmit.search import maximal_cliques

nx = pytest.importorskip("networkx")


def _random_graph(rng):
    """Any graph on up to 9 vertices, often disconnected."""
    n = rng.randint(2, 9)
    verts = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair in pairs if rng.random() < rng.random()]
    return build_graph(verts, edges or pairs[:1])


def test_maximal_cliques_match_networkx(seed=229, trials=800):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 14)
        adj = random_adjacency(rng, n, rng.random())
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from((v, w) for v in range(n) for w in adj[v] if v < w)
        expected = sorted(tuple(sorted(c)) for c in nx.find_cliques(h))
        assert maximal_cliques(n, adj) == expected, adj


def test_link_distances_and_conflicts_match_networkx(seed=233, trials=120):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 9, 14) for _ in range(trials // 2)]
    graphs += [_random_graph(rng) for _ in range(trials // 2)]
    kinds = set()
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.links)
        hops = dict(nx.all_pairs_shortest_path_length(h))
        links = g.links
        dist = {}
        for e in links:
            for f in links:
                near = [hops[x][y] for x in e for y in f if y in hops[x]]
                dist[e, f] = min(near, default=math.inf)
                assert link_distance(g, e, f) == dist[e, f], (e, f)
                kinds.add(dist[e, f])
        for k in (1, 2, 3, 4):
            gc = conflict_graph(g, k)
            assert gc.links == links
            for i, e in enumerate(links):
                expected = {j for j, f in enumerate(links) if j != i and dist[e, f] < k}
                assert gc.adj[i] == expected, (k, e)
    assert {0, 1, 2, 3, math.inf} <= kinds
