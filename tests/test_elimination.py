"""Maximum cardinality search, the one-pass elimination ordering and
maximal cliques, and the clique readers built from them.

mcs_order must visit vertices in exactly the order of the original full
scan. peo_cliques must give the same None, ordering and cliques, in the
same order, as the two-pass reference in oracles (elimination, then
elimination_maximal_cliques), and ConflictGraph.cliques must be None
exactly on the graphs that are not chordal, cross-checked against
networkx when it is installed. On a chordal graph the heaviest clique
read by ConflictGraph.clique_readers must equal the elimination walk and
a brute-force heaviest clique. ConflictGraph.clique_readers must exist
exactly on the chordal graphs and on the co-chordal ones within its
complement gate and clique cap (oracles.clique_reader_reference, and
networkx), read their maximal cliques, and price the covering LP's value.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest

from corpus import family_graphs, random_adjacency, random_connected_graph
from oracles import (
    brute_heaviest_clique,
    brute_maximal_independent_sets,
    clique_reader_reference,
    complement_adjacency,
    elimination,
    elimination_maximal_cliques,
    heaviest_clique_sum,
    lambda_scan_mcs_order,
    tableau_covering,
    verify_peo,
)
from hopadmit import build_graph, conflict_graph, cycle_graph
from hopadmit.chordal import mcs_order, peo_cliques
from hopadmit.graphs import ConflictGraph
from hopadmit.scheduling import scaled_duration
from hopadmit.simplex import solve_min_ge


def _as_conflict_graph(adj):
    links = tuple((f"a{i}", f"b{i}") for i in range(len(adj)))
    return ConflictGraph(links, adj, 2)


def _circulant(n, offsets):
    return _as_conflict_graph(tuple(
        frozenset((v + s * sign) % n for s in offsets for sign in (1, -1))
        for v in range(n)
    ))


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


def _relabel(rng, adj):
    """The same graph with its vertices renumbered at random."""
    n = len(adj)
    label = rng.sample(range(n), n)
    out = [frozenset()] * n
    for v in range(n):
        out[label[v]] = frozenset(label[u] for u in adj[v])
    return tuple(out)


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
    return _relabel(rng, adj)


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
            adjs.append(_relabel(rng, random_adjacency(rng, n, rng.random())))
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
    # C5 and the C7 antihole are neither chordal nor co-chordal.
    for hole in (_circulant(5, (1,)), _circulant(7, (2, 3))):
        assert hole.cliques is None and hole.clique_readers is None
    # C4 is not chordal but co-chordal (its complement is two edges): its
    # readers are its four edges, and it is worth its heaviest edge.
    square = _circulant(4, (1,))
    assert square.cliques is None
    assert sorted(read([0, 1, 2, 3]) for read in square.clique_readers) == [
        (0, 1), (0, 3), (1, 2), (2, 3)
    ]
    assert scaled_duration(square, [1, 4, 2, 0], 1) == 6
    assert lone.clique_readers is lone.clique_readers


def test_clique_readers_of_chordal_and_co_chordal_graphs(seed=239, trials=2000):
    """Readers exist exactly where the subset-scan reference says: on
    chordal graphs, and on co-chordal ones whose complement has no more
    edges and whose cliques fit the cap. They read every maximal clique,
    and the heaviest is the covering LP over every maximal independent
    set (dense tableau) and the component route's value, zero weights
    included."""
    rng = random.Random(seed)
    kinds = Counter()
    for t in range(trials):
        n = rng.randint(0, 12)
        if t % 2:
            chordal = _random_chordal_adjacency(rng, n)
            adj = _relabel(rng, complement_adjacency(n, chordal))
        else:
            adj = random_adjacency(rng, n, rng.random())
        kind, cliques = clique_reader_reference(n, adj)
        kinds[kind] += 1
        readers = _as_conflict_graph(adj).clique_readers
        if cliques is None:
            assert readers is None, (kind, adj)
            continue
        assert readers is not None, (kind, adj)
        every = list(range(n))
        assert len(readers) == len(cliques)
        assert {frozenset(read(every)) for read in readers} == cliques, adj
        weights = [rng.choice((0, rng.randint(1, 9))) for _ in range(n)]
        got = max((sum(read(weights)) for read in readers), default=0)
        sets = sorted(brute_maximal_independent_sets(n, adj), key=sorted)
        assert got == tableau_covering(sets, weights).value, (adj, weights)
        support = [i for i in range(n) if weights[i]]
        # A fresh graph, so that the component route does not read these
        # readers.
        assert scaled_duration(_as_conflict_graph(adj), weights, 1, support=support) == got
    assert set(kinds) == {"chordal", "co-chordal", "neither", "gate", "cap"}, kinds


def test_co_chordal_readers_agree_with_networkx(seed=241, trials=600):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    kinds = Counter()
    for t in range(trials):
        n = rng.randint(1, 14)
        if t % 2:
            adj = _relabel(rng, complement_adjacency(n, _random_chordal_adjacency(rng, n)))
        else:
            adj = random_adjacency(rng, n, rng.random())
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from((v, w) for v in range(n) for w in adj[v] if v < w)
        co_chordal = nx.is_chordal(nx.complement(h))
        cliques = list(nx.find_cliques(h))
        within = (
            2 * h.number_of_edges() >= n * (n - 1) // 2
            and len(cliques) * max(map(len, cliques)) <= n * (n - 1)
        )
        kind = (nx.is_chordal(h), co_chordal, within)
        kinds[kind] += 1
        perfect = kind[0] or (co_chordal and within)
        assert (_as_conflict_graph(adj).clique_readers is not None) == perfect, adj
    assert {(False, True, True), (False, True, False), (False, False, True)} <= set(kinds)


def _cocktail_party(pairs):
    """2 * pairs vertices, each adjacent to all but its partner v ^ 1."""
    n = 2 * pairs
    return _as_conflict_graph(tuple(frozenset(range(n)) - {v, v ^ 1} for v in range(n)))


def test_co_chordality_is_tested_only_within_its_gate_and_cap():
    # The ring's complement has far more edges than the ring: only the
    # chordality test on the graph itself runs.
    calls = []

    def counted(n, adj):
        calls.append(adj)
        return peo_cliques(n, adj)

    ring = conflict_graph(cycle_graph(1000), 2)
    with mock.patch("hopadmit.graphs.peo_cliques", counted):
        assert ring.clique_readers is None
    assert calls == [ring.adj]
    # The 40-vertex cocktail party is co-chordal (its complement is a
    # matching) but has 2**20 maximal cliques, past the cap of
    # 40 * 39 / 20 = 78: no readers, and the LP prices it. Its value is
    # the heaviest clique, one vertex of each pair.
    party = _cocktail_party(20)
    calls.clear()
    with mock.patch("hopadmit.graphs.peo_cliques", counted):
        assert party.clique_readers is None
    assert len(calls) == 2
    weights = [(7 * v) % 11 for v in range(40)]
    lp_calls = []

    def counted_lp(sets, b):
        lp_calls.append(len(sets))
        return solve_min_ge(sets, b)

    with mock.patch("hopadmit.scheduling.solve_min_ge", counted_lp):
        value = scaled_duration(party, weights, 1)
    assert lp_calls == [20]
    assert value == sum(max(weights[v], weights[v + 1]) for v in range(0, 40, 2))
    # Three pairs fit the cap (8 cliques of 3, 8 <= 6 * 5 / 3): the
    # octahedron has readers.
    assert len(_cocktail_party(3).clique_readers) == 8
    # A network with such a conflict graph: a hub joined to a0..a15, which
    # form a clique minus the matching a(2i)-a(2i+1), and a pendant link
    # at each ai. Partnered pendant links are two hops apart, and every
    # other pair of its 144 links conflicts: 2**8 maximal cliques of 136
    # links, past 144 * 143 / 136 = 151. The cap bounds the entries the
    # cliques hold, not only their number.
    a = [f"a{i}" for i in range(16)]
    edges = [(a[i], a[j]) for i in range(16) for j in range(i + 1, 16) if j != i ^ 1]
    edges += [(x, "b" + x[1:]) for x in a] + [("c", x) for x in a]
    hub = conflict_graph(build_graph(["c", *a, *("b" + x[1:] for x in a)], edges), 2)
    assert len(hub.links) == 144 and hub.cliques is None
    assert hub.clique_readers is None
