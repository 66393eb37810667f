"""Maximum cardinality search and the cached elimination ordering.

mcs_order must visit vertices in exactly the order of the original full
scan, and ConflictGraph.elimination must be None exactly on the graphs
that are not chordal, cross-checked against networkx when it is installed.
"""

from __future__ import annotations

import random

import pytest

from corpus import family_graphs, random_adjacency, random_connected_graph
from oracles import lambda_scan_mcs_order, verify_peo
from hopadmit import conflict_graph
from hopadmit.chordal import mcs_order
from hopadmit.graphs import ConflictGraph


def _as_conflict_graph(adj):
    links = tuple((f"a{i}", f"b{i}") for i in range(len(adj)))
    return ConflictGraph(links, adj, 2)


def test_mcs_order_matches_lambda_scan(seed=211, trials=3000):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(0, 14)
        adj = random_adjacency(rng, n, rng.random())
        assert mcs_order(n, adj) == lambda_scan_mcs_order(n, adj), adj


def test_elimination_lists_later_neighbors():
    graphs = [g for _, g in family_graphs()]
    rng = random.Random(223)
    graphs += [random_connected_graph(rng) for _ in range(40)]
    for g in graphs:
        for k in (1, 2, 3):
            gc = conflict_graph(g, k)
            elim = gc.elimination
            assert gc.elimination is elim
            if elim is None:
                continue
            order = [v for v, _ in elim]
            assert verify_peo(len(gc.links), gc.adj, order)
            for i, (v, later) in enumerate(elim):
                assert later == gc.adj[v] & set(order[i + 1 :])


def test_elimination_agrees_with_networkx(seed=227, trials=600):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    adjs = [random_adjacency(rng, rng.randint(1, 12), rng.random()) for _ in range(trials)]
    for _ in range(60):
        g = random_connected_graph(rng)
        adjs += [conflict_graph(g, k).adj for k in (1, 2, 3)]
    kinds = set()
    for adj in adjs:
        h = nx.Graph()
        h.add_nodes_from(range(len(adj)))
        h.add_edges_from((v, w) for v in range(len(adj)) for w in adj[v] if v < w)
        chordal = nx.is_chordal(h)
        assert (_as_conflict_graph(adj).elimination is not None) == chordal, adj
        kinds.add(chordal)
    assert kinds == {True, False}
