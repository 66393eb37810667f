"""The chordal fast path of fractional_chromatic against the LP and brute force.

A chordal support component is settled by its heaviest clique, read off a
perfect elimination ordering; every other component by the covering LP.
The corpus is every support component the acceptance sweep hands to
fractional_chromatic (global and 1-hop views, at radius 2, under the
sweep's own seeded demand samples), plus the generator families of
corpus.py and circulant:9:1,3 at radius 1 and 2, and one demand on every
link of each graph, so that non-clique chordal components and non-chordal
rings both occur.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from corpus import family_graphs, random_corpus
from oracles import brute_chif, brute_is_chordal, brute_maximal_cliques
from hopadmit import (
    BoundUnavailableError,
    admission_threshold,
    circulant_graph,
    clique_pendant_graph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    fractional_chromatic,
    one_hop_subgraph,
    sample_demands,
    star_graph,
)
from hopadmit.chordal import peo_cliques
from hopadmit.scheduling import _component_lp, _support_components, scale_demands

SAMPLES = 100
BRUTE_LP_LINKS = 5
BRUTE_SCAN_LINKS = 12


def _acceptance_graphs():
    """The acceptance sweep's graphs, in its order (seed 1000 + position)."""
    named = [
        cycle_graph(10),
        cycle_graph(14),
        clique_pendant_graph(3),
        complete_graph(5),
        star_graph(5),
    ]
    return named + random_corpus(7, 200, max_vertices=8, max_links=12)


def _demands(g, seed):
    """The sweep's demand samples for one graph, plus one on every link."""
    try:
        threshold, _ = admission_threshold(g)
    except BoundUnavailableError:
        threshold = Fraction(1)
    rng = random.Random(seed)
    taus = [sample_demands(g, rng, 4, target=threshold) for _ in range(SAMPLES)]
    taus.append({link: Fraction(rng.randint(1, 4), rng.randint(1, 5)) for link in g.links})
    return taus


def _components(gc, tau):
    scaled, den = scale_demands(gc, {link: v for link, v in tau.items() if gc.has_link(link)})
    return [
        (comp, [Fraction(w, den) for w in weights])
        for comp, weights in _support_components(gc, scaled)
    ]


def _kind(adj):
    n = len(adj)
    if all(len(a) == n - 1 for a in adj):
        return "clique"
    return "chordal" if peo_cliques(n, adj) is not None else "lp"


@pytest.fixture(scope="module")
def components():
    """Distinct (component, weights) pairs with the graphs they came from.

    Each entry is (names, component, weights, fractional_chromatic value).
    """
    found = {}

    def add(name, gc, tau):
        for comp, weights in _components(gc, tau):
            entry = found.setdefault((comp.adj, tuple(weights)), (set(), comp))
            entry[0].add(name)

    for i, g in enumerate(_acceptance_graphs()):
        views = [conflict_graph(one_hop_subgraph(g, v), 2) for v in g.vertices]
        for tau in _demands(g, 1000 + i):
            add("acceptance", conflict_graph(g, 2), tau)
            for gc in views:
                add("acceptance", gc, tau)
    families = family_graphs() + [("circulant:9:1,3", circulant_graph(9, (1, 3)))]
    for j, (name, g) in enumerate(families):
        for tau in _demands(g, 2000 + j):
            for k in (1, 2):
                add(name, conflict_graph(g, k), tau)
    return [
        (names, comp, list(weights), fractional_chromatic(comp, dict(zip(comp.links, weights))))
        for (_, weights), (names, comp) in found.items()
    ]


def test_fast_path_equals_lp(components):
    kinds = {}
    for names, comp, weights, value in components:
        lp_value, _ = _component_lp(comp, weights)
        assert value == lp_value, (names, comp.links, weights)
        kinds.setdefault(_kind(comp.adj), set()).update(names)
    # Both routes are exercised, on the graphs named in the module doc.
    assert {"acceptance", "clique_pendant:2", "clique_pendant:3", "path:5"} <= kinds["chordal"]
    assert {"acceptance", "cycle:7", "cycle:10"} <= kinds["lp"]
    assert {"star:4", "star:5", "circulant:9:1,3"} <= kinds["clique"]


def test_fast_path_equals_brute_force(components):
    by_structure = {}
    for names, comp, weights, value in components:
        by_structure.setdefault(comp.adj, []).append((names, comp, weights, value))
    brute_lp_checked = 0
    for adj, entries in by_structure.items():
        n = len(adj)
        if n > BRUTE_SCAN_LINKS:
            continue
        chordal = peo_cliques(n, adj) is not None
        assert chordal == brute_is_chordal(n, adj)
        if n <= BRUTE_LP_LINKS:
            names, comp, weights, value = entries[0]
            assert value == brute_chif(n, adj, weights), (names, comp.links, weights)
            brute_lp_checked += 1
        if not chordal:
            continue
        cliques = brute_maximal_cliques(n, adj)
        for names, comp, weights, value in entries:
            heaviest = max(sum((weights[i] for i in c), Fraction(0)) for c in cliques)
            assert value == heaviest, (names, comp.links, weights)
    assert brute_lp_checked >= 50
