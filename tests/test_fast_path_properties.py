"""Property test: the chordal fast path agrees with the covering LP.

On random graphs of at most 7 vertices with random rational demands, at
radius 1 and 2, fractional_chromatic equals the LP value of its support
components, and equals the heaviest clique whenever the support's
conflict graph is chordal. Its integer core, scaled_duration, is
homogeneous and returns an int when every support component is chordal.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import verify_peo  # noqa: E402
from hopadmit import (  # noqa: E402
    build_graph,
    conflict_graph,
    fractional_chromatic,
    induced_conflict,
    is_chordal,
    normalize_demands,
    weighted_clique_number,
)
from hopadmit.scheduling import (  # noqa: E402
    _component_lp,
    _support_components,
    scale_demands,
    scaled_duration,
)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 7))
    verts = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = build_graph(verts, edges)
    demand = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    tau = {link: draw(demand) for link in g.links}
    return g, draw(st.sampled_from((1, 2))), tau


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
def test_fast_path_equals_lp(instance):
    g, k, tau = instance
    gc = conflict_graph(g, k)
    t = normalize_demands(gc, tau)
    value = fractional_chromatic(gc, tau)
    scaled, den = scale_demands(gc, tau)
    components = _support_components(gc, scaled)
    lp_value = max(
        (
            _component_lp(comp, [Fraction(w, den) for w in weights])[0]
            for comp, weights in components
        ),
        default=Fraction(0),
    )
    assert value == lp_value
    # The integer core: value times den, homogeneous in (scaled, den), and
    # an int whenever no support component needs the covering LP.
    duration = scaled_duration(gc, scaled, den)
    assert duration == value * den
    for c in (2, 3, 7):
        assert scaled_duration(gc, [c * s for s in scaled], c * den) == c * duration
    if all(comp.cliques is not None for comp, _ in components):
        assert type(duration) is int
    support = induced_conflict(gc, [gc.index(link) for link in t])
    chordal, cert = is_chordal(support)
    if chordal:
        pos = {link: i for i, link in enumerate(support.links)}
        assert verify_peo(len(support.links), support.adj, [pos[link] for link in cert])
        assert value == weighted_clique_number(gc, tau)
