"""Property tests: the distributed protocol's values against the oracle.

On random connected graphs of at most 7 vertices with random rational
demands, no node's 1-hop value exceeds the network-wide duration (local
is at most global), scaling every demand by c scales every local value
and the oracle's value by c (homogeneity), and every view's value and the
admission oracle equal the covering LP over brute-force maximal
independent sets, whether they were read from a clique table or not.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import tableau_chif  # noqa: E402
from hopadmit import build_graph, conflict_graph  # noqa: E402
from hopadmit.analysis import local_views  # noqa: E402
from hopadmit.search import DEFAULT_SET_CAP  # noqa: E402
from hopadmit.simulate import _decide, run_admission  # noqa: E402

THRESHOLD = Fraction(1, 2)

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
    assert [cliques is None for cliques in NON_CHORDAL_VIEW.view_cliques] == [
        v == "v3" for v in NON_CHORDAL_VIEW.vertices
    ]


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
    values, den, oracle_value, admit, _ = _decide(g, tau, None, DEFAULT_SET_CAP)
    assert [Fraction(x, den) for x in values] == [value for _, value in views]
    assert oracle_value == _lp_value(conflict_graph(g, 2), tau)
    assert admit == (oracle_value <= 1)
