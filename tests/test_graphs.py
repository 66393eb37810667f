"""Graph model, link distances, conflict construction, generators."""

from __future__ import annotations

import importlib
import pkgutil
import random
import weakref

import pytest

from corpus import NON_CHORDAL_VIEW, family_graphs, random_connected_graph
from oracles import brute_conflict_pairs, brute_link_distance, filter_one_hop_subgraph
import hopadmit
from hopadmit import (
    INFINITE,
    GraphError,
    build_graph,
    circulant_graph,
    clique_pendant_graph,
    complete_graph,
    conflict_components,
    conflict_graph,
    cycle_graph,
    generate,
    induced_conflict,
    link_distance,
    make_link,
    one_hop_subgraph,
    star_graph,
)


def test_make_link_sorts_endpoints():
    assert make_link("b", "a") == ("a", "b")
    assert make_link("a", "b") == ("a", "b")


def test_make_link_rejects_self_loop():
    with pytest.raises(GraphError):
        make_link("a", "a")


def test_build_graph_canonicalizes():
    g = build_graph(["b", "a", "c"], [("c", "a"), ("a", "c"), ("a", "b")])
    assert g.vertices == ("a", "b", "c")
    assert g.links == (("a", "b"), ("a", "c"))
    assert g.neighbors("a") == ("b", "c")
    assert g.degree("a") == 2
    assert g.has_link(("a", "c"))
    assert not g.has_link(("b", "c"))


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(["a"], [("a", "b")])
    with pytest.raises(GraphError):
        build_graph(["a", "b"], [("a", "a")])
    with pytest.raises(GraphError):
        build_graph(["a", ""], [])
    with pytest.raises(GraphError):
        build_graph(["a", "b", "c"], [("a", "b", "c")])


def test_link_distance_basics():
    g = cycle_graph(6)
    l12 = make_link("v1", "v2")
    l23 = make_link("v2", "v3")
    l34 = make_link("v3", "v4")
    l45 = make_link("v4", "v5")
    assert link_distance(g, l12, l12) == 0
    assert link_distance(g, l12, l23) == 0
    assert link_distance(g, l12, l34) == 1
    assert link_distance(g, l12, l45) == 2
    with pytest.raises(GraphError):
        link_distance(g, l12, make_link("v1", "v4"))


def test_link_distance_disconnected():
    g = build_graph("abcd", [("a", "b"), ("c", "d")])
    assert link_distance(g, ("a", "b"), ("c", "d")) == INFINITE


def test_link_distance_matches_brute(seed=11, trials=25):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=10)
        for e in g.links:
            for f in g.links:
                assert link_distance(g, e, f) == brute_link_distance(g, e, f)


def test_one_hop_subgraph_is_closed_neighborhood():
    g = cycle_graph(6)
    sub = one_hop_subgraph(g, "v2")
    assert sub.vertices == ("v1", "v2", "v3")
    assert sub.links == (("v1", "v2"), ("v2", "v3"))
    with pytest.raises(GraphError):
        one_hop_subgraph(g, "nope")


def test_one_hop_subgraph_keeps_induced_links():
    g = complete_graph(4)
    sub = one_hop_subgraph(g, "v1")
    assert sub.vertices == g.vertices
    assert sub.links == g.links
    assert sub is g


def test_one_hop_subgraph_equals_the_link_filter(seed=23, trials=40):
    """Views read from adjacency are the views a filter over every link
    gives, the graph itself included."""
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [generate(spec) for spec in ("star:40", "circulant:12:1,3", "clique_pendant:6")]
    graphs += [random_connected_graph(rng, 9, 16) for _ in range(trials)]
    graphs.append(build_graph("abcdef", [("a", "b"), ("b", "c"), ("d", "e")]))
    for g in graphs:
        for v in g.vertices:
            sub = one_hop_subgraph(g, v)
            expected = filter_one_hop_subgraph(g, v)
            assert sub == expected
            assert (sub is g) == (expected is g)


def test_view_links_are_the_one_hop_subgraph_links(seed=29, trials=40):
    """Each view's link indices are the indices in g.links of its 1-hop
    subgraph's links, sorted, and the whole conflict graph restricted to
    them is the subgraph's own radius-2 conflict graph, maximal cliques
    included."""
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [NON_CHORDAL_VIEW, star_graph(40), generate("circulant:12:1,3")]
    graphs.append(build_graph("abcde", [("a", "b"), ("b", "c"), ("a", "c")]))
    graphs += [random_connected_graph(rng, 9, 16) for _ in range(trials)]
    for g in graphs:
        gc = conflict_graph(g, 2)
        assert len(g.view_links) == len(g.vertices)
        for v, idx in zip(g.vertices, g.view_links):
            sub = one_hop_subgraph(g, v)
            assert idx == tuple(gc.index(link) for link in sub.links)
            assert list(idx) == sorted(idx)
            own, restricted = conflict_graph(sub, 2), induced_conflict(gc, idx)
            assert (restricted.links, restricted.adj) == (own.links, own.adj)
            assert restricted.cliques == own.cliques


def test_views_make_no_reference_cycle():
    """Reading the views and the clique table of a graph whose view is the
    whole graph leaves nothing that refers back to it, so it is freed as
    soon as it is dropped, with the cyclic collector off."""
    import gc as collector

    specs = [(NON_CHORDAL_VIEW.vertices, NON_CHORDAL_VIEW.links)]
    specs += [(g.vertices, g.links) for g in (star_graph(5), complete_graph(4))]
    enabled = collector.isenabled()
    collector.disable()
    try:
        for vertices, links in specs:
            g = build_graph(vertices, links)
            views = [one_hop_subgraph(g, v) for v in g.vertices]
            assert g in views
            g.view_clique_table
            del views
            freed = weakref.ref(g)
            del g
            assert freed() is None, vertices
    finally:
        if enabled:
            collector.enable()


def test_whole_graph_view_shares_the_conflict_graph(capsys, monkeypatch):
    """On a star the hub's view is the whole graph: beta builds its radius-2
    conflict graph once, for the graph and every view together, and prints
    the same when each view would be a graph of its own."""
    import hopadmit.graphs as graphs
    from hopadmit.cli import main

    builds = []
    build = graphs._build_conflict_graph

    def counting(g, k):
        builds.append((len(g.vertices), k))
        return build(g, k)

    monkeypatch.setattr(graphs, "_build_conflict_graph", counting)
    assert main(["beta", "star:12"]) == 0
    shared = capsys.readouterr().out
    assert builds.count((13, 2)) == 1

    def fresh(g, v):
        keep = {v, *g.neighbors(v)}
        links = [e for e in g.links if e[0] in keep and e[1] in keep]
        return graphs.NetworkGraph(tuple(sorted(keep)), tuple(links))

    builds.clear()
    monkeypatch.setattr(graphs, "one_hop_subgraph", fresh)
    assert main(["beta", "star:12"]) == 0
    assert capsys.readouterr().out == shared
    assert builds.count((13, 2)) == 1


def test_connected_conflict_graph_is_its_own_component(capsys, monkeypatch):
    """A connected conflict graph is its only component, not an induced
    copy that would compute its cliques again; beta star:999 prints
    what it prints when every component is a copy."""
    import hopadmit.graphs as graphs
    from hopadmit.cli import main

    for spec in ("cycle:10", "star:5", "complete:5", "clique_pendant:3"):
        gc = conflict_graph(generate(spec), 2)
        assert len(gc.components) == 1
        assert gc.components[0] is gc
    two = conflict_graph(
        build_graph("abcdef", [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]),
        2,
    )
    assert [comp.links for comp in two.components] == [two.links[:3], two.links[3:]]
    # Being its own component makes no reference cycle: the graph is freed
    # as soon as it is dropped, without a cyclic collection.
    cycle = conflict_graph(cycle_graph(6), 2)
    alone = graphs.ConflictGraph(cycle.links, cycle.adj, 2)
    assert alone.components[0] is alone
    freed = weakref.ref(alone)
    del alone
    assert freed() is None

    assert main(["beta", "star:999"]) == 0
    shared = capsys.readouterr().out

    def copies(gc):
        return tuple(
            graphs.induced_conflict(gc, comp) for comp in graphs.conflict_components(gc)
        )

    monkeypatch.setattr(graphs.ConflictGraph, "components", property(copies))
    assert main(["beta", "star:999"]) == 0
    assert capsys.readouterr().out == shared


def test_hub_views_collapse_to_one_clique():
    """On star:999 and complete:45 every link conflicts with every other,
    and the clique table keeps that one clique of all links."""
    for spec in ("star:999", "complete:45"):
        g = generate(spec)
        table = g.view_clique_table
        assert table.cliques == (tuple(range(len(g.links))),)
        assert table.non_chordal == ()


def test_one_hop_subgraph_of_isolated_vertex():
    g = build_graph(["a", "b", "c"], [("a", "b")])
    sub = one_hop_subgraph(g, "c")
    assert sub.vertices == ("c",)
    assert sub.links == ()


def test_conflict_graph_of_single_link():
    g = build_graph("ab", [("a", "b")])
    for k in (1, 2, 3):
        gc = conflict_graph(g, k)
        assert len(gc.links) == 1
        assert gc.adj == (frozenset(),)


def test_conflict_graph_line_graph_adjacency():
    g = cycle_graph(5)
    gc = conflict_graph(g, 1)
    assert gc.k == 1
    assert len(gc.links) == 5
    assert [len(nbrs) for nbrs in gc.adj] == [2, 2, 2, 2, 2]
    for i, link in enumerate(gc.links):
        for j in gc.adj[i]:
            assert set(link) & set(gc.links[j])


def test_conflict_graph_matches_brute(seed=5, trials=20):
    rng = random.Random(seed)
    graphs = [random_connected_graph(rng, max_vertices=7, max_links=9) for _ in range(trials)]
    graphs.append(dict(family_graphs())["two_triangles"])
    for g in graphs:
        for k in (1, 2, 3, 4):
            gc = conflict_graph(g, k)
            want = brute_conflict_pairs(g, k)
            got = {
                frozenset((gc.links[i], gc.links[j]))
                for i in range(len(gc.links))
                for j in gc.adj[i]
                if j > i
            }
            assert got == want


def test_conflict_adjacency_grows_with_k(seed=6, trials=10):
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, max_vertices=7, max_links=9)
        prev = conflict_graph(g, 1)
        for k in (2, 3):
            nxt = conflict_graph(g, k)
            for i in range(len(g.links)):
                assert prev.adj[i] <= nxt.adj[i]
            prev = nxt


def test_conflict_graph_of_c6_is_octahedral_circulant():
    gc = conflict_graph(cycle_graph(6), 2)
    assert len(gc.links) == 6
    assert [len(nbrs) for nbrs in gc.adj] == [4] * 6
    assert sum(len(nbrs) for nbrs in gc.adj) // 2 == 12
    for i in range(6):
        assert len(set(range(6)) - gc.adj[i] - {i}) == 1


def test_conflict_graph_rejects_bad_radius():
    with pytest.raises(GraphError):
        conflict_graph(cycle_graph(4), 0)


class _Recording(tuple):
    """A tuple that records every index read from it."""

    def __new__(cls, items, reads):
        out = super().__new__(cls, items)
        out.reads = reads
        return out

    def __getitem__(self, i):
        self.reads.add(i)
        return super().__getitem__(i)


def test_conflict_components_walk_only_the_kept_indices(seed=233, trials=40):
    """With keep, the components are those of the induced subgraph, mapped
    back and ordered by their smallest index, and no neighbor set outside
    keep is read."""
    rng = random.Random(seed)
    for _ in range(trials):
        gc = conflict_graph(random_connected_graph(rng), rng.choice((1, 2)))
        m = len(gc.links)
        keep = rng.sample(range(m), rng.randint(0, m))
        sub = induced_conflict(gc, keep)
        order = sorted(keep)
        want = [[order[i] for i in comp] for comp in conflict_components(sub)]
        reads: set[int] = set()
        recording = hopadmit.ConflictGraph(gc.links, _Recording(gc.adj, reads), gc.k)
        got = conflict_components(recording, keep)
        assert got == want
        assert got == sorted(got)
        assert reads <= set(keep)


def test_conflict_components_split():
    g = build_graph("abcdef", [("a", "b"), ("c", "d"), ("e", "f")])
    gc = conflict_graph(g, 2)
    assert conflict_components(gc) == [[0], [1], [2]]
    connected = conflict_graph(cycle_graph(5), 2)
    assert conflict_components(connected) == [[0, 1, 2, 3, 4]]


def test_generators_have_expected_shape():
    assert len(cycle_graph(7).links) == 7
    assert len(complete_graph(5).links) == 10
    cp = clique_pendant_graph(3)
    assert len(cp.vertices) == 6
    assert len(cp.links) == 6
    assert cp.degree("y1") == 1
    assert cp.degree("x1") == 3
    st = star_graph(5)
    assert st.degree("v0") == 5
    assert len(st.links) == 5
    circ = circulant_graph(8, (1, 2))
    assert len(circ.links) == 16
    assert circ.degree("v1") == 4


def test_generator_validation():
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        clique_pendant_graph(1)
    with pytest.raises(GraphError):
        star_graph(0)
    with pytest.raises(GraphError):
        circulant_graph(5, (0,))
    with pytest.raises(GraphError):
        circulant_graph(5, ())


def test_generate_shorthand():
    assert generate("cycle:10") == cycle_graph(10)
    assert generate("complete:4") == complete_graph(4)
    assert generate("clique_pendant:3") == clique_pendant_graph(3)
    assert generate("star:5") == star_graph(5)
    assert generate("circulant:8:1,2") == circulant_graph(8, (1, 2))
    for bad in ("cycle", "cycle:x", "blah:3", "cycle:3:4"):
        with pytest.raises(GraphError):
            generate(bad)


def test_conflict_graph_deterministic():
    # Memoized per graph instance and radius; equal graphs build equal
    # conflict graphs but share nothing.
    g = cycle_graph(9)
    a = conflict_graph(g, 2)
    assert conflict_graph(g, 2) is a
    assert conflict_graph(g) is a
    assert conflict_graph(g, 3) is not a
    other = conflict_graph(cycle_graph(9), 2)
    assert other is not a
    assert other == a
    rebuilt = conflict_graph(build_graph(g.vertices, g.links), 2)
    assert rebuilt == a


def test_no_unbounded_module_caches():
    # Graph-derived state lives on the graph instance, so no module binds a
    # functools cache (lru_cache or cache), bounded or not.
    caches = []
    for info in pkgutil.iter_modules(hopadmit.__path__):
        module = importlib.import_module(f"hopadmit.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                caches.append(f"{module.__name__}.{name}")
    assert caches == []
