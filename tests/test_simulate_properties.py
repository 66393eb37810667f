"""Property tests: the distributed protocol's values against the oracle.

On random connected graphs of at most 7 vertices with random rational
demands, no node's 1-hop value exceeds the network-wide duration (local
is at most global), and scaling every demand by c scales every local
value and the oracle's value by c (homogeneity).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hopadmit import build_graph  # noqa: E402
from hopadmit.simulate import run_admission  # noqa: E402

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
