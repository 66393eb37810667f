"""Property test: heaviest cliques read off the cached maximal cliques.

On random graphs of at most 8 vertices, half of them built chordal by
attaching each new vertex to a clique of earlier ones, with random
rational demands: ConflictGraph.cliques is None exactly when find_hole
finds a hole, and on a chordal graph fractional_chromatic equals the
dense tableau LP over every maximal independent set,
weighted_clique_number the brute-force heaviest clique, and the cliques
read off the elimination ordering are the brute-force maximal cliques. On random families of small
index tuples, the inclusion-maximal filter behind the clique table keeps
exactly the tuples contained in no other one.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import (  # noqa: E402
    brute_maximal_cliques,
    brute_maximal_independent_sets,
    tableau_covering,
)
from hopadmit import fractional_chromatic, weighted_clique_number  # noqa: E402
from hopadmit.chordal import find_hole  # noqa: E402
from hopadmit.graphs import (  # noqa: E402
    ConflictGraph,
    _inclusion_maximal,
)


@st.composite
def any_graphs(draw, n):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adj[i].add(j)
                adj[j].add(i)
    return adj


@st.composite
def chordal_graphs(draw, n):
    # Each new vertex joins a clique of the earlier ones, so the reversed
    # construction order is a perfect elimination ordering.
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        clique: list[int] = []
        for u in draw(st.permutations(range(v))):
            if all(w in adj[u] for w in clique) and draw(st.booleans()):
                clique.append(u)
        for u in clique:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    adj = draw(st.one_of(any_graphs(n), chordal_graphs(n)))
    links = tuple((f"a{i}", f"b{i}") for i in range(n))
    gc = ConflictGraph(links, tuple(frozenset(a) for a in adj), 2)
    demand = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    tau = {link: draw(demand) for link in links}
    return gc, tau


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
def test_elimination_prices_chordal_graphs(instance):
    gc, tau = instance
    n = len(gc.links)
    assert (gc.cliques is None) == (find_hole(n, gc.adj) is not None)
    if gc.cliques is None:
        return
    weights = [tau[link] for link in gc.links]
    sets = sorted(tuple(sorted(s)) for s in brute_maximal_independent_sets(n, gc.adj))
    assert fractional_chromatic(gc, tau) == tableau_covering(sets, weights).value
    heaviest = max(
        (sum((weights[i] for i in c), Fraction(0)) for c in brute_maximal_cliques(n, gc.adj)),
        default=Fraction(0),
    )
    assert weighted_clique_number(gc, tau) == heaviest


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(1, 8).flatmap(chordal_graphs))
def test_elimination_keeps_exactly_the_maximal_cliques(adj):
    n = len(adj)
    gc = ConflictGraph(tuple((f"a{i}", f"b{i}") for i in range(n)), tuple(map(frozenset, adj)), 2)
    kept = gc.cliques
    assert sorted(map(sorted, kept)) == sorted(map(sorted, brute_maximal_cliques(n, gc.adj)))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True), max_size=12)
)
def test_inclusion_maximal_drops_exactly_the_contained(families):
    cliques = [tuple(sorted(c)) for c in families]
    expected = sorted(
        {c for c in cliques if not any(set(c) < set(d) for d in cliques)}
    )
    assert list(_inclusion_maximal(cliques)) == expected
