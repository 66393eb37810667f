"""Bron-Kerbosch pivot selection: the early-stopping scan picks the same
pivot as a full scan, so maximal_cliques keeps its output and cap error,
and a large clique costs a linear number of adjacency lookups. The
chordless cycle search on its explicit stack yields what the nested
generator search yields, in the same order, and runs out of budget at the
same extension; a long ring costs no recursion depth. The exact set
cover is a minimum cover on seeded random families, and its search on an
explicit stack leaves no cyclic garbage behind."""

from __future__ import annotations

import gc
import random
import sys
from unittest import mock

import pytest

from corpus import random_adjacency, random_corpus
from oracles import (
    brute_set_cover_size,
    generator_induced_cycles,
    scan_clique_pivot,
    scan_maximal_cliques,
)
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


def _cycles_until_cap(search_fn, n, adj, length, cap):
    """Every cycle yielded, then the error message if the cap ran out."""
    out = []
    try:
        for cycle in search_fn(n, adj, length, cap):
            out.append(cycle)
    except ResourceLimitError as exc:
        out.append(str(exc))
    return out


def test_induced_cycles_equal_the_generator_search(seed=73, trials=400):
    rng = random.Random(seed)
    found = raised = cut_short = 0
    for _ in range(trials):
        n = rng.randint(3, 14)
        adj = random_adjacency(rng, n, rng.choice((0.2, 0.3, 0.5, 0.8)))
        for length in range(2, n + 2):
            for cap in (1, 5, 20, 100, search.DEFAULT_SET_CAP):
                got = _cycles_until_cap(search.iter_induced_cycles, n, adj, length, cap)
                assert got == _cycles_until_cap(generator_induced_cycles, n, adj, length, cap)
                stopped = bool(got) and isinstance(got[-1], str)
                found += len(got) - stopped
                raised += stopped
                cut_short += stopped and len(got) > 1
    # Cycles are found, caps are hit, and some caps are hit only after
    # cycles have been yielded.
    assert found and raised and cut_short


def test_long_ring_search_needs_no_recursion():
    """A 300-ring's one chordless 300-cycle is found under a recursion
    limit far below the path length: the search keeps its own stack."""
    n = 300
    adj = [frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        cycles = list(search.iter_induced_cycles(n, adj, n))
    finally:
        sys.setrecursionlimit(limit)
    assert cycles == [tuple(range(n))]


def _random_family(rng):
    """A seeded family of subsets of range(universe) whose union covers
    it, singletons added for any element no drawn set holds."""
    universe = rng.randint(1, 9)
    sets = [
        frozenset(e for e in range(universe) if rng.random() < 0.4)
        for _ in range(rng.randint(1, 8))
    ]
    sets += [frozenset({e}) for e in range(universe) if not any(e in s for s in sets)]
    return universe, sets


def test_exact_set_cover_is_a_minimum_cover(seed=79, trials=300):
    rng = random.Random(seed)
    for _ in range(trials):
        universe, sets = _random_family(rng)
        chosen = search.exact_set_cover(universe, sets)
        assert list(chosen) == sorted(set(chosen))
        assert frozenset().union(*(sets[i] for i in chosen)) == frozenset(range(universe))
        assert len(chosen) == brute_set_cover_size(universe, sets), (universe, sets)


def test_greedy_set_cover_picks_the_widest_set_first(seed=101, trials=300):
    """Each pick covers the most uncovered elements, ties to the smallest
    index; without candidates every set is one. No exact cover is larger
    than the greedy one."""
    rng = random.Random(seed)
    for _ in range(trials):
        universe, sets = _random_family(rng)
        picked = search.greedy_set_cover(universe, sets)
        left = set(range(universe))
        for pick in picked:
            gains = [len(s & left) for s in sets]
            assert pick == gains.index(max(gains)) and gains[pick] > 0
            left -= sets[pick]
        assert not left
        chosen = search.exact_set_cover(universe, sets)
        assert len(chosen) <= len(picked)


def test_set_covers_refuse_an_uncovered_universe():
    """An element no set holds raises instead of looping, for the greedy
    and for the exact cover, which checks before its greedy start."""
    sets = [frozenset({0}), frozenset({0, 1})]
    for candidates in (None, [0], []):
        with pytest.raises(ValueError, match="do not cover"):
            search.greedy_set_cover(3, sets, candidates)
    with mock.patch.object(search, "greedy_set_cover", side_effect=AssertionError):
        with pytest.raises(ValueError, match="do not cover"):
            search.exact_set_cover(3, sets)
    assert search.greedy_set_cover(0, []) == ()


def test_exact_set_cover_leaves_no_cyclic_garbage(seed=83, trials=50):
    rng = random.Random(seed)
    families = [_random_family(rng) for _ in range(trials)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for universe, sets in families:
            search.exact_set_cover(universe, sets)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
