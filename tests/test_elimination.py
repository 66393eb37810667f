"""Maximum cardinality search, the one-pass elimination ordering and
maximal cliques, and the clique readers built from them.

mcs_order must visit vertices in exactly the order of the original full
scan. peo_cliques must give the same None, ordering and cliques, in the
same order, as the two-pass reference in oracles (elimination, then
elimination_maximal_cliques), and ConflictGraph.cliques must be None
exactly on the graphs that are not chordal, cross-checked against
networkx when it is installed. On a chordal graph the heaviest clique
read by ConflictGraph.clique_readers must equal the elimination walk and
a brute-force heaviest clique.
"""

from __future__ import annotations

import random

import pytest

from corpus import family_graphs, random_adjacency, random_connected_graph
from oracles import (
    brute_heaviest_clique,
    elimination,
    elimination_maximal_cliques,
    heaviest_clique_sum,
    lambda_scan_mcs_order,
    verify_peo,
)
from hopadmit import conflict_graph
from hopadmit.chordal import mcs_order, peo_cliques
from hopadmit.graphs import ConflictGraph
from hopadmit.scheduling import scaled_duration


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
            cliques = gc.cliques
            assert gc.cliques is cliques
            found = peo_cliques(len(gc.links), gc.adj)
            if cliques is None:
                assert found is None
                continue
            order, listed = found
            assert tuple(listed) == cliques
            assert verify_peo(len(gc.links), gc.adj, order)
            for v, *later in cliques:
                i = order.index(v)
                assert set(later) == gc.adj[v] & set(order[i + 1 :])


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
        assert (_as_conflict_graph(adj).cliques is not None) == chordal, adj
        kinds.add(chordal)
    assert kinds == {True, False}


def _random_chordal_adjacency(rng, n):
    """Each new vertex joins a random clique of the earlier ones, so the
    reversed construction order is a perfect elimination ordering; the
    vertices are then relabelled at random."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        clique = []
        for u in rng.sample(range(v), v):
            if rng.random() < 0.5 and all(w in adj[u] for w in clique):
                clique.append(u)
        for u in clique:
            adj[u].add(v)
            adj[v].add(u)
    label = rng.sample(range(n), n)
    out = [frozenset()] * n
    for v in range(n):
        out[label[v]] = frozenset(label[u] for u in adj[v])
    return tuple(out)


def test_peo_cliques_match_the_two_pass_reference(seed=233, trials=10000):
    """The one pass gives the two-pass reference's answer exactly: None on
    the same graphs, otherwise the same ordering and the same clique
    tuples in the same order, on random chordal and arbitrary graphs
    relabelled at random, and on the graphs of 0 and 1 vertex."""
    rng = random.Random(seed)
    adjs = [(), (frozenset(),)]
    for t in range(trials):
        n = rng.randint(0, 14)
        if t % 2:
            adjs.append(_random_chordal_adjacency(rng, n))
        else:
            adj = random_adjacency(rng, n, rng.random())
            label = rng.sample(range(n), n)
            out = [frozenset()] * n
            for v in range(n):
                out[label[v]] = frozenset(label[u] for u in adj[v])
            adjs.append(tuple(out))
    kinds = set()
    for adj in adjs:
        n = len(adj)
        elim = elimination(n, adj)
        got = peo_cliques(n, adj)
        kinds.add(elim is None)
        if elim is None:
            assert got is None, adj
            continue
        assert got == ([v for v, _ in elim], elimination_maximal_cliques(elim)), adj
        assert _as_conflict_graph(adj).cliques == tuple(got[1])
    assert kinds == {True, False}
    assert peo_cliques(0, ()) == ([], [])
    assert peo_cliques(1, (frozenset(),)) == ([0], [(0,)])


def test_clique_readers_price_the_heaviest_clique(seed=229, trials=500):
    rng = random.Random(seed)
    sizes = set()
    for _ in range(trials):
        n = rng.randint(0, 14)
        adj = _random_chordal_adjacency(rng, n)
        gc = _as_conflict_graph(adj)
        assert gc.cliques is not None
        weights = [rng.choice((0, rng.randint(1, 9))) for _ in range(n)]
        readers = gc.clique_readers
        sizes.update(len(read(weights)) for read in readers)
        got = max((sum(read(weights)) for read in readers), default=0)
        assert got == heaviest_clique_sum(elimination(n, adj), weights), adj
        assert got == brute_heaviest_clique(n, adj, weights), adj
        assert scaled_duration(gc, weights, 1) == got
    assert 1 in sizes and max(sizes) > 2


def test_clique_readers_of_tiny_and_non_chordal_graphs():
    empty = _as_conflict_graph(())
    assert empty.clique_readers == ()
    assert scaled_duration(empty, [], 1) == 0
    # A lone vertex is one clique, read by a slice, not a bare itemgetter.
    lone = _as_conflict_graph((frozenset(),))
    (read,) = lone.clique_readers
    assert read([7]) == [7]
    assert scaled_duration(lone, [7], 3) == 7
    assert scaled_duration(lone, [0], 3) == 0
    hole = _as_conflict_graph(tuple(frozenset({(v - 1) % 4, (v + 1) % 4}) for v in range(4)))
    assert hole.cliques is None and hole.clique_readers is None
    assert lone.clique_readers is lone.clique_readers
