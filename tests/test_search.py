"""Bron-Kerbosch pivot selection: the early-stopping scan picks the same
pivot as a full scan, so maximal_cliques keeps its output and cap error,
and a large clique costs a linear number of adjacency lookups."""

from __future__ import annotations

import random
from unittest import mock

import pytest

from corpus import random_adjacency, random_corpus
from oracles import scan_clique_pivot, scan_maximal_cliques
from hopadmit import conflict_graph, search
from hopadmit.errors import ResourceLimitError


def _outcome(fn, n, adj, cap):
    try:
        return fn(n, adj, cap)
    except ResourceLimitError as exc:
        return str(exc)


def test_every_pivot_equals_the_full_scan(seed=61, trials=400):
    rng = random.Random(seed)
    calls = 0
    stops = 0

    def checked(p, x, adj):
        nonlocal calls, stops
        got = search_pivot(p, x, adj)
        assert got == scan_clique_pivot(p, x, adj)
        calls += 1
        stops += len(p & adj[got]) == (len(p) if x else len(p) - 1)
        return got

    search_pivot = search._clique_pivot
    with mock.patch.object(search, "_clique_pivot", checked):
        for _ in range(trials):
            n = rng.randint(0, 14)
            adj = random_adjacency(rng, n, rng.choice((0.2, 0.5, 0.8, 1.0)))
            search.maximal_cliques(n, adj)
            search.maximal_independent_sets(n, adj)
    # Both the early stop and the full scan are exercised.
    assert 0 < stops < calls


def test_maximal_cliques_equal_the_full_scan(seed=67, trials=300):
    rng = random.Random(seed)
    raised = 0
    for _ in range(trials):
        n = rng.randint(0, 12)
        adj = random_adjacency(rng, n, rng.choice((0.2, 0.5, 0.8)))
        cap = rng.choice((1, 3, 8, search.DEFAULT_SET_CAP))
        got = _outcome(search.maximal_cliques, n, adj, cap)
        assert got == _outcome(scan_maximal_cliques, n, adj, cap)
        raised += isinstance(got, str)
    assert 0 < raised < trials


@pytest.mark.parametrize("radius", (1, 2))
def test_conflict_graph_cliques_equal_the_full_scan(radius):
    for g in random_corpus(seed=71, count=30):
        gc = conflict_graph(g, radius)
        n = len(gc.links)
        assert search.maximal_cliques(n, gc.adj) == scan_maximal_cliques(n, gc.adj)


class _CountingAdj:
    """Adjacency that counts its lookups."""

    def __init__(self, adj):
        self.adj = adj
        self.lookups = 0

    def __len__(self):
        return len(self.adj)

    def __getitem__(self, i):
        self.lookups += 1
        return self.adj[i]


def test_large_clique_costs_linear_lookups():
    # A full scan makes about n^2 / 2 lookups on the complete graph; the
    # early stop reaches the bound at the first vertex of every frame.
    n = 999
    everything = frozenset(range(n))
    adj = _CountingAdj([everything - {i} for i in range(n)])
    assert search.maximal_cliques(n, adj) == [tuple(range(n))]
    assert adj.lookups <= 10 * n
