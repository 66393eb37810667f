"""Local estimates, duration-ratio bounds, and admission thresholds."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest

from corpus import NON_CHORDAL_VIEW, family_graphs, random_connected_graph, random_corpus
from oracles import subgraph_view_values
from hopadmit import (
    INFINITE,
    BoundUnavailableError,
    GraphError,
    admission_threshold,
    build_graph,
    clique_pendant_graph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    duration_ratio,
    fractional_chromatic,
    local_estimate,
    local_views,
    make_link,
    one_hop_subgraph,
    ratio_bounds,
    ratio_lower_bound,
    ratio_upper_bound,
    star_graph,
    uncovered_cycle_order,
)
from hopadmit.analysis import ring_ratio_exact
from hopadmit.graphs import induced_conflict
from hopadmit.simulate import run_admission, sample_demands


def _alternating_ring_demand(n):
    g = cycle_graph(n)
    tau = {}
    for i in range(1, n + 1, 2):
        j = i % n + 1
        tau[make_link(f"v{i}", f"v{j}")] = Fraction(1)
    return g, tau


def test_local_estimate_ring_alternating():
    g, tau = _alternating_ring_demand(6)
    assert local_estimate(g, tau) == 1
    assert fractional_chromatic(conflict_graph(g, 2), tau) == 3
    assert duration_ratio(g, tau) == 3


def test_local_estimate_clique_pendants():
    for r in (2, 3, 4):
        g = clique_pendant_graph(r)
        tau = {make_link(f"x{i}", f"y{i}"): Fraction(1) for i in range(1, r + 1)}
        assert local_estimate(g, tau) == 1
        assert fractional_chromatic(conflict_graph(g, 2), tau) == r
        assert duration_ratio(g, tau) == r


def test_local_estimate_zero_demand():
    g = cycle_graph(5)
    assert local_estimate(g, {}) == 0


def test_local_estimate_never_exceeds_exact(seed=31, trials=20):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 7, 10)
        tau = sample_demands(g, rng)
        t1 = local_estimate(g, tau)
        chif = fractional_chromatic(conflict_graph(g, 2), tau)
        assert t1 <= chif


def test_local_estimate_ignores_far_links(seed=37, trials=12):
    """Each view only reads the 1-hop subgraph around its vertex."""
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 8, 11)
        tau = sample_demands(g, rng)
        views = local_views(g, tau)
        assert [sub for sub, _ in views] == [
            one_hop_subgraph(g, v) for v in g.vertices
        ]
        for sub, value in views:
            local_tau = {l: d for l, d in tau.items() if sub.has_link(l)}
            assert value == fractional_chromatic(conflict_graph(sub, 2), local_tau)
        assert local_estimate(g, tau) == max(value for _, value in views)


def test_views_equal_subgraphs_priced_alone(seed=53, trials=30):
    """Every view priced on the whole conflict graph, restricted to its
    links, equals the view priced as a graph of its own, in local_views,
    local_estimate and run_admission's per-node values, with sampled and
    with all-ones demands."""
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()] + [NON_CHORDAL_VIEW, star_graph(12)]
    graphs.append(build_graph("abcde", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]))
    graphs += [random_connected_graph(rng, 8, 12) for _ in range(trials)]
    for g in graphs:
        for tau in (sample_demands(g, rng), {link: Fraction(1) for link in g.links}):
            expected = subgraph_view_values(g, tau)
            assert local_views(g, tau) == expected
            assert local_estimate(g, tau) == max(value for _, value in expected)
            trace = run_admission(g, tau, Fraction(1, 2))
            assert [(view.subgraph, view.local_value) for view in trace.views] == expected


class _RecordingList(list):
    """A list that records every index read from it."""

    def __getitem__(self, i):
        self.reads.add(i)
        return super().__getitem__(i)


def test_view_value_reads_only_its_view(seed=59, trials=20):
    """A view that is not every link is priced from its own support: no
    demand outside the view is read, and the value is that of the view's
    demands alone."""
    from hopadmit.analysis import _view_value
    from hopadmit.scheduling import scale_demands, scaled_duration

    rng = random.Random(seed)
    graphs = [cycle_graph(30), star_graph(12), NON_CHORDAL_VIEW]
    graphs += [random_connected_graph(rng, 8, 12) for _ in range(trials)]
    for g in graphs:
        gc = conflict_graph(g, 2)
        scaled, den = scale_demands(gc, {link: rng.randint(0, 2) for link in g.links})
        for idx in g.view_links:
            if len(idx) == len(gc.links):
                continue
            demands = _RecordingList(scaled)
            demands.reads = set()
            value = _view_value(gc, idx, demands, den, 1000)
            assert demands.reads <= set(idx)
            alone = [scaled[i] if i in idx else 0 for i in range(len(scaled))]
            assert value == scaled_duration(gc, alone, den)


def test_views_of_one_or_two_demanded_links_build_no_conflict_graph():
    """A connected support of one or two links is a clique: with demand on
    two of every three ring links, each view's support is one link or two
    that share an endpoint, and no view builds a conflict graph to price
    it."""
    from unittest import mock

    g = cycle_graph(30)
    conflict_graph(g, 2)
    demands = {
        make_link(f"v{i}", f"v{i % 30 + 1}"): Fraction(1, 3) for i in range(1, 31) if i % 3
    }
    with mock.patch(
        "hopadmit.scheduling.induced_conflict", wraps=induced_conflict
    ) as built:
        values = [value for _, value in local_views(g, demands, 1000)]
        assert not built.called
        trace = run_admission(g, demands, Fraction(1), 1000)
    # The protocol's views build none either: the one conflict graph built
    # is the oracle's, for the whole support, which is one component.
    assert [len(call.args[1]) for call in built.call_args_list] == [len(demands)]
    assert sorted(set(values)) == [Fraction(1, 3), Fraction(2, 3)]
    assert [view.local_value for view in trace.views] == values


def test_durations_scale_with_demand(seed=47, count=12):
    """Global and local durations are homogeneous of degree one."""
    rng = random.Random(seed)
    for g in random_corpus(seed, count):
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        chif = fractional_chromatic(gc, tau)
        values = [value for _, value in local_views(g, tau)]
        for c in (Fraction(1, 3), Fraction(7, 5), Fraction(2)):
            scaled = {link: c * d for link, d in tau.items()}
            assert fractional_chromatic(gc, scaled) == c * chif
            assert [value for _, value in local_views(g, scaled)] == [
                c * value for value in values
            ]


def test_ratio_is_one_on_complete_graphs(seed=29):
    """Every node sees the whole graph, so the local estimate is exact."""
    rng = random.Random(seed)
    for n in (3, 4, 5):
        g = complete_graph(n)
        for _ in range(5):
            tau = sample_demands(g, rng)
            assert duration_ratio(g, tau) == 1


def test_uncovered_cycle_order_rings():
    order, cycle = uncovered_cycle_order(cycle_graph(10))
    assert order == 2
    assert len(cycle) == 10
    order, cycle = uncovered_cycle_order(cycle_graph(14))
    assert order == 3
    assert len(cycle) == 14


def test_uncovered_cycle_order_absent():
    for g in (complete_graph(5), clique_pendant_graph(3), cycle_graph(12),
              star_graph(5)):
        order, cycle = uncovered_cycle_order(g)
        assert order == INFINITE
        assert cycle is None


def test_ratio_lower_sources():
    value, witness, source = ratio_lower_bound(cycle_graph(10))
    assert (value, source) == (Fraction(5, 2), "odd-cycle")
    assert len(witness) == 5
    for n in (3, 4, 5):
        value, _, source = ratio_lower_bound(complete_graph(n))
        assert (value, source) == (1, "nu-ratio")
    for r in (2, 3, 4):
        value, _, source = ratio_lower_bound(clique_pendant_graph(r))
        assert (value, source) == (r, "nu-ratio")


def test_ratio_lower_witness_replays(seed=41, trials=12):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        value, witness, _ = ratio_lower_bound(g)
        assert duration_ratio(g, witness) == value


def test_odd_cycle_witness_is_odd_hole():
    for n, k in ((10, 2), (14, 3), (18, 4)):
        g = cycle_graph(n)
        value, witness, source = ratio_lower_bound(g)
        assert source == "odd-cycle"
        assert value == Fraction(2 * k + 1, k)
        assert len(witness) == 2 * k + 1
        assert all(d == 1 for d in witness.values())
        gc = conflict_graph(g, 2)
        idx = [gc.index(l) for l in witness]
        present = set(idx)
        degrees = [len(gc.adj[i] & present) for i in idx]
        assert degrees == [2] * len(idx)
        seen = {idx[0]}
        frontier = [idx[0]]
        while frontier:
            cur = frontier.pop()
            for nxt in gc.adj[cur] & present:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == present


def test_ratio_upper_examples():
    upper, imp, tag, cover = ratio_upper_bound(cycle_graph(10))
    assert (upper, imp, tag, cover) == (Fraction(5, 2), Fraction(5, 4), "ring-formula", 2)
    upper, imp, tag, cover = ratio_upper_bound(complete_graph(5))
    assert (upper, imp, tag, cover) == (1, 1, "perfect", 1)
    upper, imp, tag, cover = ratio_upper_bound(clique_pendant_graph(3))
    assert (upper, imp, tag, cover) == (3, 1, "perfect", 3)
    upper, _, tag, _ = ratio_upper_bound(cycle_graph(13))
    assert upper is None
    assert tag == "unavailable"


def test_ratio_bounds_sandwich(seed=43, trials=15):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        b = ratio_bounds(g)
        assert b.lower >= 1
        assert duration_ratio(g, b.lower_witness) == b.lower
        if b.upper is not None:
            assert b.lower <= b.upper
        if b.exact is not None:
            assert b.exact == b.lower == b.upper


def test_ratio_bounds_ring_exact():
    b = ratio_bounds(cycle_graph(10))
    assert b.exact == Fraction(5, 2)
    b = ratio_bounds(cycle_graph(14))
    assert b.exact == Fraction(7, 3)
    b = ratio_bounds(cycle_graph(13))
    assert b.exact is None


def test_ratio_lower_with_upper_equals_full_replay():
    """The upper bound as the stop changes no (value, witness, source)."""
    graphs = [g for _, g in family_graphs()]
    graphs += [cycle_graph(n) for n in (9, 10, 14)]
    graphs += random_corpus(47, 40)
    met = 0
    for g in graphs:
        upper = ratio_upper_bound(g)[0]
        for samples in (0, 12):
            expected = ratio_lower_bound(g, samples, seed=5)
            assert ratio_lower_bound(g, samples, seed=5, upper=upper) == expected
            b = ratio_bounds(g, samples, seed=5)
            assert (b.lower, b.lower_witness, b.lower_source) == expected
        met += expected[0] == upper
    assert met >= 20


def test_nu_ratio_at_upper_skips_later_witnesses(monkeypatch):
    from hopadmit import analysis

    g = clique_pendant_graph(3)
    expected = ratio_lower_bound(g, empirical_samples=5)
    assert expected[2] == "nu-ratio"
    assert expected[0] == ratio_upper_bound(g)[0] == 3

    def forbidden(*args, **kwargs):
        raise AssertionError("witness built after the stop")

    monkeypatch.setattr(analysis, "uncovered_cycle_order", forbidden)
    monkeypatch.setattr(analysis, "_empirical_demands", forbidden)
    b = ratio_bounds(g, empirical_samples=5)
    assert (b.lower, b.lower_witness, b.lower_source) == expected
    assert b.exact == 3
    with pytest.raises(AssertionError):
        ratio_lower_bound(g)


def test_ring_ratio_formula():
    assert ring_ratio_exact(10) == Fraction(5, 2)
    assert ring_ratio_exact(14) == Fraction(7, 3)
    assert ring_ratio_exact(18) == Fraction(9, 4)
    for bad in (6, 9, 12):
        with pytest.raises(GraphError):
            ring_ratio_exact(bad)


def test_empirical_lower_is_deterministic():
    a = ratio_lower_bound(cycle_graph(9), empirical_samples=8, seed=17)
    b = ratio_lower_bound(cycle_graph(9), empirical_samples=8, seed=17)
    assert a == b
    value, witness, _ = a
    assert duration_ratio(cycle_graph(9), witness) == value


def test_threshold_examples():
    threshold, meta = admission_threshold(cycle_graph(10))
    assert threshold == Fraction(2, 5)
    assert meta["source"] == "auto"
    assert meta["certificate"] == "ring-formula"
    threshold, _ = admission_threshold(complete_graph(5))
    assert threshold == 1
    threshold, meta = admission_threshold(clique_pendant_graph(3))
    assert threshold == Fraction(1, 3)
    assert meta["cover_number"] == 3
    threshold, _ = admission_threshold(star_graph(5))
    assert threshold == 1


def test_threshold_user_bound():
    threshold, meta = admission_threshold(cycle_graph(13), user_bound=Fraction(3))
    assert threshold == Fraction(1, 3)
    assert meta == {"source": "user", "ratio_bound": Fraction(3)}


def test_threshold_user_bound_below_lower_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        threshold, _ = admission_threshold(cycle_graph(10), user_bound=Fraction(2))
    assert threshold == Fraction(1, 2)
    assert any(w.category is RuntimeWarning for w in caught)


def test_threshold_unavailable():
    with pytest.raises(BoundUnavailableError):
        admission_threshold(cycle_graph(13))


def test_threshold_admits_feasible_demands(seed=5, trials=200):
    """Demands below the local threshold always schedule within one period."""
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs() if len(g.links) <= 12]
    graphs += [random_connected_graph(rng, 8, 10) for _ in range(trials)]
    checked = 0
    for g in graphs:
        try:
            threshold, _ = admission_threshold(g)
        except BoundUnavailableError:
            continue
        for _ in range(2):
            tau = sample_demands(g, rng, denom_max=4, target=threshold)
            if local_estimate(g, tau) <= threshold:
                assert fractional_chromatic(conflict_graph(g, 2), tau) <= 1
                checked += 1
    assert checked > 100
