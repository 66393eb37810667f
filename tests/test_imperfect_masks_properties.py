"""Property test: the imperfection lower bound agrees with the sweep over
every 0/1 mask, and meets the upper bound wherever that is exact.

On random graphs of at most 7 vertices and 9 links, at radius 1 and 2,
imperfection_lower_bound returns the full sweep's value and witness, with
and without the certified upper bound as the stop. On disjoint unions of
such graphs and rings, which may have more than 12 links in all, the lower
bound equals the upper bound whenever the upper route is perfection or
polytope enumeration, with an integer witness that replays to it.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import full_mask_imperfection_lower_bound  # noqa: E402
from hopadmit import (  # noqa: E402
    build_graph,
    conflict_graph,
    fractional_chromatic,
    imperfection_lower_bound,
    imperfection_upper_bound,
    weighted_clique_number,
)


@st.composite
def small_graphs(draw, prefix="v"):
    n = draw(st.integers(2, 7))
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    return verts, edges


@st.composite
def conflict_graphs(draw):
    verts, edges = draw(small_graphs())
    return conflict_graph(build_graph(verts, edges), draw(st.sampled_from((1, 2))))


def _ring(prefix, n):
    verts = [f"{prefix}{i}" for i in range(n)]
    return verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)]


@st.composite
def disjoint_unions(draw):
    verts, edges = [], []
    for part in range(draw(st.integers(1, 3))):
        prefix = f"p{part}v"
        ring = st.integers(5, 9).map(lambda n, prefix=prefix: _ring(prefix, n))
        more_verts, more_edges = draw(st.one_of(small_graphs(prefix), ring))
        verts += more_verts
        edges += more_edges
    return verts, edges, draw(st.sampled_from((1, 2)))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(conflict_graphs())
def test_sweep_equals_full_mask_sweep(gc):
    assert imperfection_lower_bound(gc) == full_mask_imperfection_lower_bound(gc)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(conflict_graphs())
def test_stopped_sweep_equals_full_mask_sweep(gc):
    upper, _ = imperfection_upper_bound(gc)
    assert imperfection_lower_bound(gc, upper=upper) == full_mask_imperfection_lower_bound(gc)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(disjoint_unions())
@hypothesis.example(
    (_ring("a", 7)[0] + _ring("b", 7)[0], _ring("a", 7)[1] + _ring("b", 7)[1], 2)
).via("two 7-rings, 14 links")
def test_lower_meets_exact_upper(case):
    verts, edges, k = case
    gc = conflict_graph(build_graph(verts, edges), k)
    upper, tag = imperfection_upper_bound(gc)
    lower, witness = imperfection_lower_bound(gc)
    assert all(x.denominator == 1 for x in witness.values())
    assert fractional_chromatic(gc, witness) / weighted_clique_number(gc, witness) == lower
    if tag in ("perfect", "polytope-enumeration"):
        assert lower == upper
