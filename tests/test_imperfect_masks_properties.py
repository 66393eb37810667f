"""Property test: the imperfection sweep over non-chordal masks agrees with
the sweep over every mask.

On random graphs of at most 7 vertices and 9 links, at radius 1 and 2,
imperfection_lower_bound returns the full sweep's value and witness, and
the masks it keeps are exactly those whose induced conflict subgraph is
not chordal. With the certified upper bound as the stop, and with drawn
extra candidates, it still returns the full sweep's value and witness.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import brute_non_chordal_masks, full_mask_imperfection_lower_bound  # noqa: E402
from hopadmit import (  # noqa: E402
    build_graph,
    conflict_graph,
    imperfection_lower_bound,
    imperfection_upper_bound,
)
from hopadmit.invariants import _imperfect_masks  # noqa: E402


@st.composite
def conflict_graphs(draw):
    n = draw(st.integers(2, 7))
    verts = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    return conflict_graph(build_graph(verts, edges), draw(st.sampled_from((1, 2))))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(conflict_graphs())
def test_sweep_equals_full_mask_sweep(gc):
    assert imperfection_lower_bound(gc) == full_mask_imperfection_lower_bound(gc)
    n = len(gc.links)
    assert _imperfect_masks(n, gc.adj) == brute_non_chordal_masks(n, gc.adj)


@st.composite
def graphs_with_candidates(draw):
    gc = draw(conflict_graphs())
    weights = st.fractions(min_value=0, max_value=3, max_denominator=4)
    vector = st.fixed_dictionaries({link: weights for link in gc.links})
    return gc, draw(st.lists(vector, max_size=2))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs_with_candidates())
def test_stopped_sweep_equals_full_mask_sweep(case):
    gc, candidates = case
    upper, _ = imperfection_upper_bound(gc)
    expected = full_mask_imperfection_lower_bound(gc, candidates=candidates)
    assert imperfection_lower_bound(gc, candidates, upper=upper) == expected
    assert imperfection_lower_bound(gc, upper=upper) == full_mask_imperfection_lower_bound(gc)
