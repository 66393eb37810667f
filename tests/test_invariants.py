"""Graph invariants: interfering matchings, covers, chordality, imperfection."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest

from corpus import family_graphs, random_connected_graph
from oracles import (
    brute_cover_number,
    brute_interfering_matching,
    brute_is_chordal,
    brute_link_distance,
    full_mask_imperfection_lower_bound,
    max_local_interfering_matching,
    priced_polytope_witness,
    reference_ring_scheme_bound,
    scan_cover_number,
    verify_hole,
    verify_peo,
    without_links,
)
from hopadmit import (
    ResourceLimitError,
    build_graph,
    circulant_graph,
    clique_pendant_graph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    fractional_chromatic,
    imperfection_lower_bound,
    imperfection_upper_bound,
    invariant_report,
    is_chordal,
    make_link,
    max_interfering_matching,
    neighborhood_cover_number,
    one_hop_subgraph,
    star_graph,
    weighted_clique_number,
)
from hopadmit import graphs as graphs_module
from hopadmit import invariants, search
from hopadmit.graphs import ConflictGraph
from hopadmit.qstab import qstab_vertices


def _index_adj(gc):
    return len(gc.links), gc.adj


def test_matching_on_complete_graphs():
    for n in range(3, 9):
        size, witness = max_interfering_matching(complete_graph(n))
        assert size == n // 2
        assert len(witness) == size


def test_matching_on_cycles():
    size, _ = max_interfering_matching(cycle_graph(6))
    assert size == 3
    for n in range(7, 13):
        size, _ = max_interfering_matching(cycle_graph(n))
        assert size == 2


def test_matching_witness_is_pairwise_distance_one(seed=67, trials=15):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        size, witness = max_interfering_matching(g)
        assert len(witness) == size
        for i, e in enumerate(witness):
            for f in witness[i + 1 :]:
                assert brute_link_distance(g, e, f) == 1


def test_matching_matches_brute(seed=71, trials=15):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 7, 10)
        size, _ = max_interfering_matching(g)
        assert size == brute_interfering_matching(g)


def test_matching_guard():
    with pytest.raises(ResourceLimitError):
        max_interfering_matching(cycle_graph(5), cap=1)


def test_local_matching_examples():
    for n in (4, 6, 9):
        best, _ = max_local_interfering_matching(cycle_graph(n))
        assert best == 1
    for n in (4, 6):
        best, _ = max_local_interfering_matching(complete_graph(n))
        assert best == n // 2
    best, _ = max_local_interfering_matching(clique_pendant_graph(2))
    assert best == 1
    for r in (3, 4, 5):
        best, _ = max_local_interfering_matching(clique_pendant_graph(r))
        assert best == 1 + (r - 1) // 2


def test_local_matching_below_global(seed=73, trials=12):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 7, 10)
        local, _ = max_local_interfering_matching(g)
        whole, _ = max_interfering_matching(g)
        assert local <= whole
        for v in g.vertices:
            size, _ = max_interfering_matching(one_hop_subgraph(g, v))
            assert size <= whole


def test_cover_number_examples():
    count, _, _ = neighborhood_cover_number(cycle_graph(10))
    assert count == 2
    count, _, _ = neighborhood_cover_number(star_graph(5))
    assert count == 1
    count, _, _ = neighborhood_cover_number(complete_graph(5))
    assert count == 1
    for r in (2, 3, 4):
        count, _, _ = neighborhood_cover_number(clique_pendant_graph(r))
        assert count == r


def test_cover_witness_is_consistent(seed=79, trials=10):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        count, links, vertices = neighborhood_cover_number(g)
        if count == 0:
            continue
        assert len(vertices) == count
        gc = conflict_graph(g, 2)
        idx = [gc.index(l) for l in links]
        assert all(b in gc.adj[a] for a in idx for b in idx if a != b)
        covered = set()
        for v in vertices:
            sub = one_hop_subgraph(g, v)
            covered.update(l for l in links if sub.has_link(l))
        assert set(links) == covered


def test_cover_number_matches_brute(seed=83, trials=10):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 6, 8)
        count, _, _ = neighborhood_cover_number(g)
        assert count == brute_cover_number(g)


def test_cover_number_matches_the_full_scan(seed=107, trials=300):
    """Count, clique and covering vertices equal those of the scan that
    solves every clique's cover exactly. cycle:10 (ten triangles) and
    clique_pendant:3 and :4 have several cliques tied at the maximum, so
    the first of them must be kept."""
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng) for _ in range(trials)]
    for g in graphs:
        assert neighborhood_cover_number(g) == scan_cover_number(g), g.links


def test_cover_number_solves_only_cliques_that_could_raise_it():
    """On cycle:22 every one of the 22 triangles has cover 2, so once the
    first is solved the greedy cover of each other one rules it out."""
    with mock.patch.object(
        invariants, "exact_set_cover", wraps=search.exact_set_cover
    ) as spy:
        count, _, _ = neighborhood_cover_number(cycle_graph(22))
    assert count == 2
    assert spy.call_count == 1


def test_chordal_tree_and_square():
    tree = build_graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    ok, order = is_chordal(tree)
    assert ok and len(order) == 4
    square = cycle_graph(4)
    ok, hole = is_chordal(square)
    assert not ok
    assert len(hole) == 4


def test_chordality_of_ring_conflict_graph():
    gc = conflict_graph(cycle_graph(10), 2)
    ok, hole = is_chordal(gc)
    assert not ok
    assert len(hole) >= 4
    trimmed = without_links(
        gc, [make_link("v9", "v10"), make_link("v1", "v10")]
    )
    ok, order = is_chordal(trimmed)
    assert ok
    n, adj = _index_adj(trimmed)
    pos = {link: i for i, link in enumerate(trimmed.links)}
    assert verify_peo(n, adj, [pos[l] for l in order])


def test_chordality_certificates_verify(seed=89, trials=25):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 7, 10)
        for obj in (g, conflict_graph(g, 2)):
            ok, cert = is_chordal(obj)
            if isinstance(obj, type(g)):
                labels = list(obj.vertices)
                adj = tuple(
                    frozenset(labels.index(w) for w in obj.neighbors(v))
                    for v in labels
                )
            else:
                labels = list(obj.links)
                adj = obj.adj
            n = len(labels)
            assert ok == brute_is_chordal(n, adj)
            indices = [labels.index(c) for c in cert]
            if ok:
                assert verify_peo(n, adj, indices)
            else:
                assert verify_hole(n, adj, indices)


def test_imp_lower_line_c5():
    gc = conflict_graph(cycle_graph(5), 1)
    value, witness = imperfection_lower_bound(gc)
    assert value == Fraction(5, 4)
    replay = fractional_chromatic(gc, witness) / weighted_clique_number(gc, witness)
    assert replay == value


def test_imp_lower_reaches_polytope_value_on_two_7_rings():
    """Two disjoint 7-rings: 14 links, each component the complement of C7
    at radius 2, with no chordless odd cycle of length 5 or more. Only the
    components' polytope witnesses lift the lower bound above 1."""
    verts = [f"{side}{i}" for side in "ab" for i in range(7)]
    edges = [(f"{side}{i}", f"{side}{(i + 1) % 7}") for side in "ab" for i in range(7)]
    g = build_graph(verts, edges)
    gc = conflict_graph(g, 2)
    assert len(gc.links) == 14
    report = invariant_report(g)
    assert report.imp_lower == report.imp_upper == Fraction(7, 6)
    assert report.imp_upper_certificate == "polytope-enumeration"
    witness = report.imp_lower_witness
    assert all(x.denominator == 1 for x in witness.values())
    replay = fractional_chromatic(gc, witness) / weighted_clique_number(gc, witness)
    assert replay == Fraction(7, 6)
    assert imperfection_lower_bound(gc) == (report.imp_lower, witness)


def test_report_enumerates_each_polytope_once(monkeypatch):
    """On two disjoint 7-rings the report enumerates each component's clique
    polytope once: the lower bound reuses the upper route's witness."""

    verts = [f"{side}{i}" for side in "ab" for i in range(7)]
    edges = [(f"{side}{i}", f"{side}{(i + 1) % 7}") for side in "ab" for i in range(7)]
    g = build_graph(verts, edges)
    expected = invariant_report(build_graph(verts, edges))
    calls = []
    real = invariants.qstab_vertices

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(invariants, "qstab_vertices", counting)
    report = invariant_report(g)
    assert calls == [7, 7]
    assert report.imp_lower == report.imp_upper == Fraction(7, 6)
    assert report.imp_lower_witness == expected.imp_lower_witness
    assert report == expected


def _small_enumerated_components():
    """Conflict components of at most POLYTOPE_VERTEX_LIMIT links that are
    neither chordal nor bipartite, so whose polytope is enumerated: those
    of the certify families and 4k+2 rings at radius 2, of the test
    families at radius 1 and 2, and of 150 seeded random graphs of at most
    12 links."""

    graphs = [
        conflict_graph(g, 2)
        for g in (
            cycle_graph(5), cycle_graph(7), cycle_graph(9), cycle_graph(10),
            cycle_graph(14), complete_graph(4), complete_graph(5),
            clique_pendant_graph(3), clique_pendant_graph(4), star_graph(5),
            star_graph(8), circulant_graph(9, (1, 3)), circulant_graph(8, (1, 2)),
        )
    ]
    graphs += [conflict_graph(g, k) for _, g in family_graphs() for k in (1, 2)]
    rng = random.Random(109)
    graphs += [
        conflict_graph(random_connected_graph(rng, 9, 12), k)
        for _ in range(150)
        for k in (1, 2)
    ]
    return [
        comp
        for gc in graphs
        for comp in gc.components
        if len(comp.links) <= invariants.POLYTOPE_VERTEX_LIMIT
        and not invariants._is_perfect(comp)
    ]


def test_polytope_witness_skips_only_unbeatable_vertices():
    """Skipping the integral vertices gives the (ratio, witness) of pricing
    every vertex of the reference enumeration."""

    comps = _small_enumerated_components()
    assert {5, 7, 12} <= {len(comp.links) for comp in comps}
    beaten = 0
    for comp in comps:
        got = invariants._enumerate_polytope(comp, invariants.DEFAULT_SET_CAP)
        assert got == priced_polytope_witness(comp)
        beaten += got[0] > 1
    # Most of these components have a fractional vertex beating 1; the
    # others are perfect without being chordal or bipartite.
    assert beaten > len(comps) // 2


def test_imp_lower_perfect_graphs():
    for g in (complete_graph(4), star_graph(4), clique_pendant_graph(3)):
        gc = conflict_graph(g, 2)
        value, _ = imperfection_lower_bound(gc)
        assert value == 1


def _family_sweep_graphs():
    """Family conflict graphs at radius 1 and 2, and rings 9 and 10."""
    graphs = [conflict_graph(g, k) for _, g in family_graphs() for k in (1, 2)]
    graphs += [conflict_graph(cycle_graph(n), 2) for n in (9, 10)]
    return [gc for gc in graphs if gc.links]


def _sweep_corpus():
    """The family graphs plus 40 seeded random conflict graphs of 7 to 12
    links."""
    graphs = []
    rng = random.Random(103)
    while len(graphs) < 40:
        g = random_connected_graph(rng, 8, 12)
        if 7 <= len(g.links) <= 12:
            graphs.append(conflict_graph(g, 2))
    return _family_sweep_graphs() + graphs


def test_imp_lower_matches_full_mask_sweep():
    """With and without the certified upper bound as the stop."""
    sizes = set()
    stopped = 0
    for gc in _sweep_corpus():
        sizes.add(len(gc.links))
        expected = full_mask_imperfection_lower_bound(gc)
        upper, _ = imperfection_upper_bound(gc)
        assert imperfection_lower_bound(gc) == expected
        assert imperfection_lower_bound(gc, upper=upper) == expected
        stopped += upper == expected[0]
    assert {7, 12} <= sizes
    assert stopped >= 40


def test_imp_lower_stops_at_upper_on_perfect_graph(monkeypatch):
    """Upper bound 1 on a perfect graph: the start, ratio 1 with the first
    link's indicator, is returned with no candidate replayed, and neither
    the hole search nor the polytope enumeration runs."""

    gc = conflict_graph(clique_pendant_graph(3), 2)
    assert imperfection_upper_bound(gc) == (1, "perfect")
    expected = imperfection_lower_bound(gc)
    replayed = []

    def counting(gc, tau, cap):
        replayed.append(tau)
        return fractional_chromatic(gc, tau, cap)

    def forbidden(*args, **kwargs):
        raise AssertionError("candidate built after the stop")

    monkeypatch.setattr(invariants, "fractional_chromatic", counting)
    monkeypatch.setattr(invariants, "qstab_vertices", forbidden)
    monkeypatch.setattr(invariants, "iter_induced_cycles", forbidden)
    assert imperfection_lower_bound(gc, upper=Fraction(1)) == expected
    assert expected == (1, {gc.links[0]: 1})
    assert replayed == []
    report = invariant_report(clique_pendant_graph(3))
    assert (report.imp_lower, report.imp_lower_witness) == expected
    with pytest.raises(AssertionError):
        imperfection_lower_bound(gc)


def test_imp_upper_certificates():
    chordal_gc = conflict_graph(star_graph(4), 2)
    assert imperfection_upper_bound(chordal_gc) == (1, "perfect")
    ring = conflict_graph(cycle_graph(10), 2)
    assert imperfection_upper_bound(ring) == (Fraction(5, 4), "ring-formula")
    line5 = conflict_graph(cycle_graph(5), 1)
    value, tag = imperfection_upper_bound(line5)
    assert value == Fraction(5, 4)
    assert tag == "polytope-enumeration"
    kc = conflict_graph(complete_graph(5), 2)
    assert imperfection_upper_bound(kc) == (1, "perfect")


def _rewired(gc, drop, add):
    adj = [set(a) for a in gc.adj]
    for u, v in drop:
        adj[u].discard(v)
        adj[v].discard(u)
    for u, v in add:
        adj[u].add(v)
        adj[v].add(u)
    return ConflictGraph(gc.links, tuple(frozenset(a) for a in adj), gc.k)


def _rewired_ring_squares(m):
    """C_m squared with one edge moved to a far vertex, and with two
    edges swapped so that every degree stays 4."""
    gc = conflict_graph(cycle_graph(m), 2)
    u = 0
    v = min(gc.adj[u])
    far = min(set(range(m)) - gc.adj[u] - gc.adj[v] - {u, v})
    x = min(w for w in gc.adj[far] if w not in gc.adj[v])
    yield _rewired(gc, [(u, v)], [(u, far)])
    yield _rewired(gc, [(u, v), (far, x)], [(u, far), (v, x)])


def test_ring_scheme_matches_the_induced_subgraph_reference():
    graphs = [conflict_graph(cycle_graph(n), 2) for n in range(4, 47)]
    graphs += [conflict_graph(circulant_graph(m, (1, 3)), 2) for m in range(7, 31)]
    for m in (10, 14, 18, 22, 26):
        graphs += _rewired_ring_squares(m)
    expected = [reference_ring_scheme_bound(gc) for gc in graphs]
    assert sum(value is not None for value in expected) == 10
    built = mock.Mock(side_effect=AssertionError("a deletion was built as a subgraph"))
    with mock.patch.object(graphs_module, "induced_conflict", built), mock.patch.object(
        invariants, "induced_conflict", built, create=True
    ):
        found = [invariants._ring_scheme_bound(gc) for gc in graphs]
    assert found == expected
    assert built.call_count == 0


def test_imp_upper_unavailable_on_large_odd_ring():
    """At radius 2 the conflict graph of C13 is C13 squared, which no route
    past the enumeration limit covers; at radius 1 it is the odd hole C13
    itself, whose ratio 13/12 the odd-cycle family certifies from above
    and the hole's indicator from below."""
    assert imperfection_upper_bound(conflict_graph(cycle_graph(13), 2)) == (None, "unavailable")
    hole = conflict_graph(cycle_graph(13), 1)
    assert imperfection_upper_bound(hole) == (Fraction(13, 12), "odd-cycle-family")
    assert imperfection_lower_bound(hole)[0] == Fraction(13, 12)


def test_imp_bounds_sandwich(seed=97, trials=15):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs.append(clique_pendant_graph(5))
    graphs.append(cycle_graph(14))
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        gc = conflict_graph(g, 2)
        if not gc.links:
            continue
        lower, _ = imperfection_lower_bound(gc)
        upper, tag = imperfection_upper_bound(gc)
        assert lower >= 1
        if upper is not None:
            assert lower <= upper
        if tag == "perfect":
            assert lower == 1


def test_qstab_c5_vertices():
    gc = conflict_graph(cycle_graph(5), 1)
    n = len(gc.links)
    cliques = [
        sorted((i, j)) for i in range(n) for j in gc.adj[i] if j > i
    ]
    vertices = qstab_vertices(n, [tuple(q) for q in cliques])
    assert len(vertices) == 12
    for vertex in vertices:
        assert all(v >= 0 for v in vertex)
        for q in cliques:
            assert sum(vertex[i] for i in q) <= 1
    halves = [v for v in vertices if any(x == Fraction(1, 2) for x in v)]
    assert len(halves) == 1


def test_imp_grid_stays_below_polytope_value(seed=101, trials=6):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 6, 7)
        gc = conflict_graph(g, 2)
        if not gc.links:
            continue
        upper, tag = imperfection_upper_bound(gc)
        if upper is None:
            continue
        for _ in range(30):
            tau = {
                link: Fraction(rng.randint(0, 3), 3) for link in gc.links
            }
            tau = {l: v for l, v in tau.items() if v}
            if not tau:
                continue
            ratio = fractional_chromatic(gc, tau) / weighted_clique_number(gc, tau)
            assert ratio <= upper


def test_invariant_report_ring():
    report = invariant_report(cycle_graph(10))
    assert report.nu == 2
    assert report.lam == 2
    assert report.imp_lower == Fraction(5, 4)
    assert report.imp_upper == Fraction(5, 4)
    assert report.imp_upper_certificate == "ring-formula"
    assert len(report.lam_witness_vertices) == 2


def test_invariant_report_dense_graph_terminates():
    report = invariant_report(complete_graph(6))
    assert report.nu == 3
    assert report.lam == 1
    assert report.imp_lower == 1
    assert report.imp_upper == 1
    assert report.imp_upper_certificate == "perfect"
