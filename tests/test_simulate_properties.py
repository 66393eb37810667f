"""Property tests: the distributed protocol's values against the oracle.

On random connected graphs of at most 7 vertices with random rational
demands, no node's 1-hop value exceeds the network-wide duration (local
is at most global), scaling every demand by c scales every local value
and the oracle's value by c (homogeneity), and every view's value, the
largest of them and the admission oracle equal the covering LP over
brute-force maximal independent sets, whether they were read from the
graph's clique table or not. The clique table itself holds cliques of
the views' links, none inside another, that cover every clique of every
chordal view.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from corpus import NON_CHORDAL_VIEW  # noqa: E402
from oracles import elimination, tableau_chif  # noqa: E402
from hopadmit import build_graph, conflict_graph, one_hop_subgraph  # noqa: E402
from hopadmit.analysis import local_estimate, local_views, price_scaled  # noqa: E402
from hopadmit.scheduling import scale_demands  # noqa: E402
from hopadmit.simulate import _decide, run_admission  # noqa: E402

THRESHOLD = Fraction(1, 2)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 7))
    verts = [f"v{i}" for i in range(1, n + 1)]
    tree = [(verts[draw(st.integers(0, i - 1))], verts[i]) for i in range(1, n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    g = build_graph(verts, tree + extra)
    demand = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    tau = {link: draw(demand) for link in g.links}
    return g, tau


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
def test_local_values_within_oracle(instance):
    g, tau = instance
    trace = run_admission(g, tau, THRESHOLD)
    assert [view.center for view in trace.views] == list(g.vertices)
    for view in trace.views:
        assert view.local_value <= trace.oracle_value


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances(), st.sampled_from((Fraction(1, 2), Fraction(2), Fraction(3, 4))))
def test_values_scale_with_demands(instance, c):
    g, tau = instance
    base = run_admission(g, tau, THRESHOLD)
    scaled = run_admission(g, {link: c * value for link, value in tau.items()}, THRESHOLD)
    assert scaled.oracle_value == c * base.oracle_value
    assert [view.local_value for view in scaled.views] == [
        c * view.local_value for view in base.views
    ]


def _lp_value(gc, tau):
    return tableau_chif(len(gc.links), gc.adj, [tau.get(link, 0) for link in gc.links])


def test_non_chordal_view_has_no_clique_table():
    gc = conflict_graph(NON_CHORDAL_VIEW, 2)
    sub = one_hop_subgraph(NON_CHORDAL_VIEW, "v3")
    assert conflict_graph(sub, 2).cliques is None
    assert NON_CHORDAL_VIEW.view_clique_table.non_chordal == (
        tuple(gc.index(link) for link in sub.links),
    )


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
@hypothesis.example((NON_CHORDAL_VIEW, {}))
def test_clique_table_is_maximal_and_covers_the_views(instance):
    g, _ = instance
    gc = conflict_graph(g, 2)
    table = g.view_clique_table
    members = [frozenset(clique) for clique in table.cliques]
    assert len(set(members)) == len(members)
    for a in members:
        assert not any(a < b for b in members)
    views = [one_hop_subgraph(g, v) for v in g.vertices]
    view_links = [frozenset(gc.index(link) for link in sub.links) for sub in views]
    for clique in table.cliques:
        assert list(clique) == sorted(clique)
        assert any(set(clique) <= links for links in view_links)
        assert all(u in gc.adj[v] for v in clique for u in clique if u != v)
    scaled = list(range(1, len(gc.links) + 1))
    for clique, read in zip(table.cliques, table.readers):
        assert sum(read(scaled)) == sum(scaled[i] for i in clique)
    for sub in views:
        own = conflict_graph(sub, 2)
        elim = elimination(len(own.links), own.adj)
        if elim is None:
            assert tuple(gc.index(link) for link in sub.links) in table.non_chordal
            continue
        for v, later in elim:
            clique = {gc.index(sub.links[u]) for u in (v, *later)}
            assert any(clique <= b for b in members)


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
@hypothesis.example(
    (
        NON_CHORDAL_VIEW,
        {link: Fraction(i % 3, 2) for i, link in enumerate(NON_CHORDAL_VIEW.links)},
    )
)
def test_view_values_and_oracle_equal_the_lp(instance):
    g, tau = instance
    views = local_views(g, tau)
    for sub, value in views:
        assert value == _lp_value(conflict_graph(sub, 2), tau)
    scaled, den = scale_demands(conflict_graph(g, 2), tau)
    local, exact = price_scaled(g, scaled, den)
    local_max, oracle_value = Fraction(local, den), Fraction(exact, den)
    assert local_max == local_estimate(g, tau)
    assert local_max == max(
        _lp_value(conflict_graph(one_hop_subgraph(g, v), 2), tau) for v in g.vertices
    )
    assert local_max == max(value for _, value in views)
    assert oracle_value == _lp_value(conflict_graph(g, 2), tau)
    admit, _ = _decide(local_max, oracle_value, None, 1)
    assert admit == (oracle_value <= 1)
