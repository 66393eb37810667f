"""Scheduling LP: independent sets, exact durations, schedules, cliques."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from corpus import family_graphs, random_connected_graph
from oracles import (
    brute_chif,
    brute_maximal_independent_sets,
    brute_multicolor,
    dual_tableau_covering,
    solve_max_le,
    tableau_covering,
)
from hopadmit import (
    GraphError,
    ResourceLimitError,
    build_graph,
    clique_pendant_graph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    fractional_chromatic,
    is_feasible,
    make_link,
    maximal_independent_sets,
    min_schedule,
    normalize_demands,
    sample_demands,
    weighted_clique_number,
)


def _unit(gc):
    return {link: Fraction(1) for link in gc.links}


def _dual_value(gc, tau):
    """Optimum of the packing dual, solved by the other simplex route."""
    t = normalize_demands(gc, tau)
    sets = maximal_independent_sets(gc)
    weights = [t.get(link, Fraction(0)) for link in gc.links]
    rows = [[1 if link in s else 0 for link in gc.links] for s in sets]
    return solve_max_le(weights, rows, [1] * len(rows)).value


def test_normalize_demands_validates():
    gc = conflict_graph(cycle_graph(5), 2)
    links = gc.links
    out = normalize_demands(gc, {links[0]: "3/4", links[1]: 0, links[2]: 1})
    assert out == {links[0]: Fraction(3, 4), links[2]: Fraction(1)}
    with pytest.raises(GraphError):
        normalize_demands(gc, {("a", "b"): 1})
    with pytest.raises(GraphError):
        normalize_demands(gc, {links[0]: -1})
    with pytest.raises(GraphError):
        normalize_demands(gc, {links[0]: "x"})


def test_c6_has_three_antipodal_independent_pairs():
    gc = conflict_graph(cycle_graph(6), 2)
    sets = maximal_independent_sets(gc)
    assert len(sets) == 3
    assert all(len(s) == 2 for s in sets)
    for s in sets:
        (a1, a2), (b1, b2) = s
        assert {a1, a2} & {b1, b2} == set()


def test_edgeless_conflict_graph_single_set():
    g = build_graph("abcdef", [("a", "b"), ("c", "d"), ("e", "f")])
    gc = conflict_graph(g, 1)
    assert all(not nbrs for nbrs in gc.adj)
    sets = maximal_independent_sets(gc)
    assert sets == [tuple(gc.links)]


def test_complete_conflict_graph_singletons():
    gc = conflict_graph(complete_graph(3), 2)
    sets = maximal_independent_sets(gc)
    assert sorted(sets) == [(l,) for l in gc.links]


def test_mis_matches_brute(seed=17, trials=20):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=9)
        gc = conflict_graph(g, 2)
        got = {frozenset(gc.index(l) for l in s) for s in maximal_independent_sets(gc)}
        assert got == brute_maximal_independent_sets(len(gc.links), gc.adj)


def test_mis_cap_is_a_distinct_error():
    gc = conflict_graph(cycle_graph(12), 2)
    with pytest.raises(ResourceLimitError):
        maximal_independent_sets(gc, cap=2)


def test_chif_odd_cycles():
    for k in (2, 3, 4):
        gc = conflict_graph(cycle_graph(2 * k + 1), 1)
        assert fractional_chromatic(gc, _unit(gc)) == Fraction(2 * k + 1, k)


def test_chif_example_alternating_demand():
    gc = conflict_graph(cycle_graph(6), 2)
    tau = {
        make_link("v1", "v2"): 1,
        make_link("v3", "v4"): 1,
        make_link("v5", "v6"): 1,
    }
    assert fractional_chromatic(gc, tau) == 3
    assert not is_feasible(gc, tau)


def test_chif_zero_demand():
    gc = conflict_graph(cycle_graph(6), 2)
    assert fractional_chromatic(gc, {}) == 0
    assert is_feasible(gc, {})
    assert min_schedule(gc, {}).entries == ()


def test_chif_c10_uniform_fifth_feasible():
    gc = conflict_graph(cycle_graph(10), 2)
    tau = {link: Fraction(1, 5) for link in gc.links}
    assert fractional_chromatic(gc, tau) == Fraction(2, 3)
    assert is_feasible(gc, tau)


def test_single_link_schedule():
    g = build_graph("ab", [("a", "b")])
    gc = conflict_graph(g, 2)
    schedule = min_schedule(gc, {("a", "b"): Fraction(3, 4)})
    assert schedule.entries == ((frozenset({("a", "b")}), Fraction(3, 4)),)
    assert sum(dur for _, dur in schedule.entries) == Fraction(3, 4)


def test_c6_unit_schedule_uses_antipodal_pairs():
    gc = conflict_graph(cycle_graph(6), 2)
    tau = {link: Fraction(1) for link in gc.links}
    schedule = min_schedule(gc, tau)
    assert sum(dur for _, dur in schedule.entries) == 3
    assert len(schedule.entries) == 3
    for links, duration in schedule.entries:
        assert duration == 1
        assert len(links) == 2
    assert schedule.satisfies(gc, tau)


def test_schedule_witnesses_random(seed=41, trials=25):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=10)
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        schedule = min_schedule(gc, tau)
        assert schedule.satisfies(gc, tau)
        assert sum(dur for _, dur in schedule.entries) == fractional_chromatic(gc, tau)


def test_satisfies_rejects_bad_schedules():
    gc = conflict_graph(cycle_graph(6), 2)
    links = gc.links
    good = min_schedule(gc, {links[0]: 1})
    assert good.satisfies(gc, {links[0]: 1})
    assert not good.satisfies(gc, {links[0]: 2})
    conflicting = type(good)(entries=((frozenset({links[0], links[1]}), Fraction(1)),))
    assert not conflicting.satisfies(gc, {links[0]: 1})


def test_duality_on_families():
    for _, g in family_graphs():
        gc = conflict_graph(g, 2)
        tau = _unit(gc)
        assert fractional_chromatic(gc, tau) == _dual_value(gc, tau)


def test_duality_random(seed=43, trials=20):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=9)
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        assert fractional_chromatic(gc, tau) == _dual_value(gc, tau)


def test_chif_matches_brute_dual(seed=47, trials=12):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=6, max_links=6)
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        weights = [tau.get(link, Fraction(0)) for link in gc.links]
        assert fractional_chromatic(gc, tau) == brute_chif(
            len(gc.links), gc.adj, weights
        )


def test_chif_scaling_and_monotonicity(seed=53, trials=15):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=9)
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        base = fractional_chromatic(gc, tau)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = {l: v * scale for l, v in tau.items()}
        assert fractional_chromatic(gc, scaled) == scale * base
        bigger = dict(tau)
        bump = gc.links[rng.randrange(len(gc.links))]
        bigger[bump] = bigger.get(bump, Fraction(0)) + Fraction(1, 3)
        assert fractional_chromatic(gc, bigger) >= base


def test_clique_number_examples():
    gc10 = conflict_graph(cycle_graph(10), 2)
    assert weighted_clique_number(gc10, _unit(gc10)) == 3
    cp = clique_pendant_graph(4)
    gcp = conflict_graph(cp, 2)
    pendants = {make_link(f"x{i}", f"y{i}"): Fraction(1) for i in range(1, 5)}
    assert weighted_clique_number(gcp, pendants) == 4
    assert weighted_clique_number(gcp, {}) == 0


def test_clique_below_chif(seed=59, trials=20):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=10)
        gc = conflict_graph(g, 2)
        tau = sample_demands(g, rng)
        assert weighted_clique_number(gc, tau) <= fractional_chromatic(gc, tau)


def test_chif_multicolor_consistency(seed=61, trials=8):
    rng = random.Random(seed)
    checked = 0
    while checked < trials:
        g = random_connected_graph(rng, max_vertices=6, max_links=7)
        gc = conflict_graph(g, 2)
        n = len(gc.links)
        tau = sample_demands(g, rng, denom_max=3)
        chif = fractional_chromatic(gc, tau)
        denom = math.lcm(*(v.denominator for v in tau.values()))
        schedule = min_schedule(gc, tau)
        scale = math.lcm(denom, *(dur.denominator for _, dur in schedule.entries))
        best = None
        for mult in sorted({denom, 2 * denom, scale}):
            demand = [int(tau.get(link, 0) * mult) for link in gc.links]
            colors = brute_multicolor(n, gc.adj, demand)
            ratio = Fraction(colors, mult)
            assert ratio >= chif
            best = ratio if best is None else min(best, ratio)
        assert best == chif
        checked += 1


def _schedule_instances():
    rng = random.Random(67)
    for name, g in family_graphs():
        for k in (1, 2):
            gc = conflict_graph(g, k)
            yield name, gc, _unit(gc)
            yield name, gc, {
                link: Fraction(rng.randint(0, 5), rng.randint(1, 4)) for link in gc.links
            }
    for n in range(16, 23):
        gc = conflict_graph(cycle_graph(n), 2)
        yield f"cycle:{n}", gc, {link: Fraction(1, 5) for link in gc.links}


def test_min_schedule_same_under_tableau_solver(monkeypatch):
    """The dense dual tableau gives the same schedule; the two-phase primal
    tableau may pick another optimal basis, but not another duration."""
    import hopadmit.scheduling as scheduling

    instances = list(_schedule_instances())
    revised = [min_schedule(gc, tau) for _, gc, tau in instances]
    monkeypatch.setattr(scheduling, "solve_min_ge", dual_tableau_covering)
    for (name, gc, tau), want in zip(instances, revised):
        assert min_schedule(gc, tau) == want, name
    monkeypatch.setattr(scheduling, "solve_min_ge", tableau_covering)
    for (name, gc, tau), want in zip(instances, revised):
        assert min_schedule(gc, tau).duration == want.duration, name


def test_schedule_duration_is_chif():
    for name, gc, tau in _schedule_instances():
        assert min_schedule(gc, tau).duration == fractional_chromatic(gc, tau), name


def test_support_components_induced_from_gc(seed=71, trials=30):
    from hopadmit import conflict_components, induced_conflict
    from hopadmit.scheduling import _support_components, scale_demands

    rng = random.Random(seed)
    for _ in range(trials):
        gc = conflict_graph(random_connected_graph(rng), rng.choice((1, 2)))
        scaled, _ = scale_demands(gc, {link: rng.randint(0, 2) for link in gc.links})
        support = [i for i, w in enumerate(scaled) if w]
        want = []
        if support:
            sub = induced_conflict(gc, support)
            for comp in conflict_components(sub):
                comp_gc = induced_conflict(sub, comp)
                want.append((comp_gc, [scaled[gc.index(link)] for link in comp_gc.links]))
        assert _support_components(gc, scaled) == want


def test_multi_component_schedules_print_pinned_bytes(capsys):
    """At radius 1 the alternate links of cycle:12 are six one-link
    support components, and two pairs of adjacent links and a lone link
    are three components with up to two entries each. The merged schedules
    print exactly what the timeline cut at every entry boundary printed
    (their sha256 below)."""
    import hashlib
    import json

    from hopadmit.cli import main

    cases = {
        "7e4d76dbeed9781fe0ffdd92300cb51f0358ae946183cde163c53221de399c6f": {
            f"v{i}-v{i + 1}": f"1/{i + 1}" for i in range(1, 12, 2)
        },
        "d87e3d2e3b3b09bc0a86bb87e674fbfc972fa2627698bd45eb59e1db396a6948": {
            "v1-v2": "1/2", "v2-v3": "1/3", "v5-v6": "1/5", "v6-v7": "1/4", "v9-v10": "2/7",
        },
    }
    for digest, demands in cases.items():
        code = main(["chif", "cycle:12", "--schedule", "--k", "1", "--demands", json.dumps(demands)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
