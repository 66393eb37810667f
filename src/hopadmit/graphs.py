"""Network graphs, link distances, and interference conflict graphs.

Vertices are strings. A link is a canonically sorted pair of distinct
vertices. The conflict graph for interference radius k puts two links in
conflict when their link distance (shortest vertex distance between their
endpoint sets) is strictly below k; links able to share a time slot are
exactly the independent sets of that graph. It is built from a BFS of
depth k - 1 around each link, so no all-pairs distances are ever held.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .chordal import peo_cliques
from .errors import GraphError, ResourceLimitError
from .search import maximal_cliques
from .simplex import _reader

Link = tuple[str, str]

INFINITE = math.inf


def make_link(u: str, v: str) -> Link:
    if u == v:
        raise GraphError(f"self-loop at {u!r} is not a link")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable undirected graph with sorted vertex and link tuples.

    Adjacency, the conflict graph of each radius, the 1-hop views as link
    indices and their clique table are built once per instance, on first
    use, and live only as long as the graph does.
    """

    vertices: tuple[str, ...]
    links: tuple[Link, ...]

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.links:
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @cached_property
    def view_links(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's 1-hop view, in vertex order, as the sorted indices
        into links of the links inside its closed neighborhood.

        Link (a, b) lies in the views of a, of b and of each common
        neighbor, one frozenset intersection that walks the smaller
        neighbor set, so a hub costs nothing per leaf.
        """
        nbrs = {v: frozenset(nb) for v, nb in self.adjacency.items()}
        views: dict[str, list[int]] = {v: [] for v in self.vertices}
        # Links are visited in index order, so every list comes out sorted.
        for i, (a, b) in enumerate(self.links):
            views[a].append(i)
            views[b].append(i)
            for w in nbrs[a] & nbrs[b]:
                views[w].append(i)
        return tuple([tuple(views[v]) for v in self.vertices])

    @cached_property
    def view_clique_table(self) -> ViewCliqueTable:
        """The maximal cliques of every chordal 1-hop view, in one table.

        At radius 2 a view's conflict graph is conflict_graph(self, 2)
        restricted to its links (`view_links`): two links conflict when
        they share an endpoint or one edge joins their endpoints, and that
        edge lies inside the closed neighborhood. A chordal view is worth
        its heaviest clique, and its maximal cliques are the `cliques` of
        that restriction. The table keeps them, relabelled to link indices
        of the whole conflict graph, and drops each one contained in
        another (of any view):
        weights are nonnegative, so the heaviest clique over all chordal
        views is among the rest. Non-chordal views keep their link indices.
        """
        gc = conflict_graph(self, 2)
        found: set[tuple[int, ...]] = set()
        non_chordal = []
        for idx in dict.fromkeys(self.view_links):
            view = gc if len(idx) == len(gc.links) else induced_conflict(gc, idx)
            cliques = view.cliques
            if cliques is None:
                non_chordal.append(idx)
                continue
            for clique in cliques:
                found.add(tuple(sorted(idx[u] for u in clique)))
        cliques = _inclusion_maximal(found)
        return ViewCliqueTable(
            cliques, tuple(_reader(c) for c in cliques), tuple(non_chordal)
        )

    @cached_property
    def _conflict_graphs(self) -> dict[int, ConflictGraph]:
        return {}

    @cached_property
    def _link_set(self) -> frozenset[Link]:
        return frozenset(self.links)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.adjacency[v]

    def has_vertex(self, v: str) -> bool:
        return v in self.adjacency

    def has_link(self, e: Link) -> bool:
        return e in self._link_set

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))


@dataclass(frozen=True)
class ViewCliqueTable:
    """What the 1-hop views of a graph are worth, read from one table.

    cliques are sorted link-index tuples of the graph's radius-2 conflict
    graph, none contained in another, and readers[i] returns the entries
    of cliques[i] from a list indexed like those links in one call.
    non_chordal holds the distinct views, as sorted link-index tuples of
    the same conflict graph, whose conflict graph is not chordal. The
    largest 1-hop value is the heaviest of these cliques or the value of a
    view in non_chordal, whichever is larger.
    """

    cliques: tuple[tuple[int, ...], ...]
    readers: tuple[Callable, ...]
    non_chordal: tuple[tuple[int, ...], ...]


def _inclusion_maximal(cliques: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The distinct cliques contained in no other one, sorted.

    Larger cliques go first, so each is tested only against the kept
    cliques through its vertex that lies in the fewest of them.
    """
    kept = []
    through: dict[int, list[frozenset[int]]] = {}
    for clique in sorted(cliques, key=lambda c: (-len(c), c)):
        members = frozenset(clique)
        rarest = min(clique, key=lambda v: len(through.get(v, ())))
        if any(members <= other for other in through.get(rarest, ())):
            continue
        kept.append(clique)
        for v in clique:
            through.setdefault(v, []).append(members)
    return tuple(sorted(kept))


def build_graph(vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> NetworkGraph:
    """Validate and canonicalize a vertex/edge description.

    Duplicate edges collapse; self-loops and edges touching unknown
    vertices are rejected.
    """
    vset = set()
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise GraphError(f"vertex ids must be nonempty strings, got {v!r}")
        vset.add(v)
    links = set()
    for edge in edges:
        if len(edge) != 2:
            raise GraphError(f"edge {edge!r} must have exactly two endpoints")
        u, v = edge
        if u not in vset or v not in vset:
            raise GraphError(f"edge {edge!r} touches an unknown vertex")
        links.add(make_link(u, v))
    return NetworkGraph(tuple(sorted(vset)), tuple(sorted(links)))


def _bfs_distances(
    g: NetworkGraph, sources: Iterable[str], depth: int | float = INFINITE
) -> dict[str, int]:
    """Hop distance from the sources to every vertex within depth hops."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if d > depth:
            break
        for w in adj[u]:
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


def link_distance(g: NetworkGraph, e: Link, f: Link) -> int | float:
    """Shortest vertex distance between the endpoint sets of two links.

    Equal links and links sharing an endpoint are at distance 0.
    Returns INFINITE when the links lie in different components.
    """
    for link in (e, f):
        if not g.has_link(link):
            raise GraphError(f"{link!r} is not a link of the graph")
    if e == f or set(e) & set(f):
        return 0
    dist = _bfs_distances(g, e)
    best = min((dist[x] for x in f if x in dist), default=None)
    return INFINITE if best is None else best


def one_hop_subgraph(g: NetworkGraph, v: str) -> NetworkGraph:
    """Subgraph induced by v and its neighbors, its links read from
    g.view_links; g itself when that is every vertex, so such a view
    shares g's conflict graphs."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex {v!r}")
    keep = {v, *g.adjacency[v]}
    if len(keep) == len(g.vertices):
        return g
    links = g.links
    view = g.view_links[bisect_left(g.vertices, v)]
    return NetworkGraph(tuple(sorted(keep)), tuple([links[i] for i in view]))


@dataclass(frozen=True)
class ConflictGraph:
    """Graph on links; adjacency means the links may not share a slot.
    Its maximal cliques (when chordal), their readers (when chordal or
    co-chordal) and its components are cached on the instance."""

    links: tuple[Link, ...]
    adj: tuple[frozenset[int], ...]
    k: int

    @cached_property
    def _link_index(self) -> dict[Link, int]:
        return {link: i for i, link in enumerate(self.links)}

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...] | None:
        """The maximal cliques as link-index tuples, each a link plus its
        later neighbors along a perfect elimination ordering, in that
        order; None when the graph is not chordal. Built once per
        instance.
        """
        found = peo_cliques(len(self.links), self.adj)
        return None if found is None else tuple(found[1])

    @cached_property
    def clique_readers(self) -> tuple[Callable, ...] | None:
        """One reader per maximal clique, each returning the clique's
        entries of a list indexed like links in one call, or None when the
        graph is neither chordal nor co-chordal (`_co_chordal_cliques`).
        Both kinds are perfect (Lovasz), so the heaviest of these cliques,
        max(sum(read(w)) for read in clique_readers), is the weighted
        fractional chromatic number (0 with no vertex).
        """
        cliques = self.cliques
        if cliques is None:
            cliques = _co_chordal_cliques(self.adj)
            if cliques is None:
                return None
        return tuple([_reader(c) for c in cliques])

    @property
    def components(self) -> tuple[ConflictGraph, ...]:
        """The subgraph induced by each connected component, in the order
        of conflict_components; (self,) when the graph is connected. Built
        once per instance, so whatever is derived from a component, and
        kept in its memo, is derived once per graph."""
        comps = self._split
        return (self,) if comps is None else comps

    @cached_property
    def _split(self) -> tuple[ConflictGraph, ...] | None:
        # None when connected: caching (self,) would be a reference cycle,
        # which keeps every conflict graph alive until a cyclic collection.
        comps = conflict_components(self)
        if len(comps) == 1:
            return None
        return tuple(induced_conflict(self, comp) for comp in comps)

    @cached_property
    def memo(self) -> dict:
        """Values other modules derive from this graph, keyed by their
        caller; they live as long as the graph does."""
        return {}

    def index(self, link: Link) -> int:
        return self._link_index[link]

    def has_link(self, link: Link) -> bool:
        return link in self._link_index


def _co_chordal_cliques(adj: Sequence[frozenset[int]]) -> list[tuple[int, ...]] | None:
    """The maximal cliques of a graph whose complement is chordal, or None.

    The complement is built only when it has no more edges than the graph,
    so it never holds more than the graph does. Its PEO, from
    `peo_cliques`, gives its largest independent set greedily (Gavril),
    which is the clique number w of the graph; the cliques (Bron-Kerbosch)
    are kept only up to n(n - 1) / w of them, so they hold at most n(n - 1)
    entries. Past either limit, or when the complement is not chordal,
    this is None.
    """
    n = len(adj)
    if n * (n - 1) // 2 > sum(map(len, adj)):
        return None
    everything = frozenset(range(n))
    co_adj = [everything - a - {v} for v, a in enumerate(adj)]
    found = peo_cliques(n, co_adj)
    if found is None:
        return None
    independent: set[int] = set()
    for v in found[0]:
        if not co_adj[v] & independent:
            independent.add(v)
    try:
        return maximal_cliques(n, adj, n * (n - 1) // len(independent))
    except ResourceLimitError:
        return None


def induced_conflict(gc: ConflictGraph, keep: Sequence[int]) -> ConflictGraph:
    """Conflict subgraph induced by a list of vertex indices. Each neighbor
    set is intersected with the kept set, walking the smaller of the two."""
    order = sorted(set(keep))
    kept = frozenset(order)
    pos = {old: new for new, old in enumerate(order)}
    # Tuples are built from lists: tuple() over a generator is grown by
    # resizing, and each resized tuple is kept on CPython's free list for
    # its length until a full collection, so per-call tuples of more than
    # ten entries would pile up there.
    adj = tuple([frozenset([pos[j] for j in gc.adj[old] & kept]) for old in order])
    return ConflictGraph(tuple([gc.links[old] for old in order]), adj, gc.k)


def conflict_graph(g: NetworkGraph, k: int = 2) -> ConflictGraph:
    """Conflict graph of g: links conflict iff link distance < k.

    Built once per graph and radius, and kept on the graph.
    """
    if k < 1:
        raise GraphError(f"interference radius must be >= 1, got {k}")
    memo = g._conflict_graphs
    if k not in memo:
        memo[k] = _build_conflict_graph(g, k)
    return memo[k]


def _build_conflict_graph(g: NetworkGraph, k: int) -> ConflictGraph:
    # Link e conflicts with every other link touching a vertex within
    # k - 1 hops of an endpoint of e.
    links = g.links
    incident: dict[str, list[int]] = {v: [] for v in g.vertices}
    for i, (a, b) in enumerate(links):
        incident[a].append(i)
        incident[b].append(i)
    adj = []
    for i, link in enumerate(links):
        near = set().union(*(incident[x] for x in _bfs_distances(g, link, k - 1)))
        near.discard(i)
        adj.append(frozenset(near))
    return ConflictGraph(links, tuple(adj), k)


def conflict_components(
    gc: ConflictGraph, keep: Iterable[int] | None = None
) -> list[list[int]]:
    """Connected components of the conflict graph, or of the subgraph
    induced by the indices in keep, as sorted index lists of gc, ordered by
    their smallest index. Only the kept indices are walked: each neighbor
    set is intersected with the unvisited ones, walking the smaller."""
    order = range(len(gc.links)) if keep is None else sorted(set(keep))
    unseen = set(order)
    comps = []
    for s in order:
        if s not in unseen:
            continue
        unseen.discard(s)
        comp = [s]
        # The loop also walks the indices appended while it runs.
        for u in comp:
            new = gc.adj[u] & unseen
            if new:
                unseen -= new
                comp += new
        comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# Generators. Vertices are named v1..vn (x1..xr / y1..yr for the clique with
# pendants) so CLI link ids like "v1-v2" stay unambiguous.


def cycle_graph(n: int) -> NetworkGraph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return build_graph(verts, edges)


def complete_graph(n: int) -> NetworkGraph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return build_graph(verts, edges)


def clique_pendant_graph(r: int) -> NetworkGraph:
    """Clique x1..xr with one pendant leaf yi hanging off each xi."""
    if r < 2:
        raise GraphError(f"clique with pendants needs r >= 2, got {r}")
    xs = [f"x{i}" for i in range(1, r + 1)]
    ys = [f"y{i}" for i in range(1, r + 1)]
    edges = [(xs[i], xs[j]) for i in range(r) for j in range(i + 1, r)]
    edges += [(xs[i], ys[i]) for i in range(r)]
    return build_graph(xs + ys, edges)


def star_graph(m: int) -> NetworkGraph:
    """Star with center v0 and leaves v1..vm."""
    if m < 1:
        raise GraphError(f"star needs m >= 1 leaves, got {m}")
    verts = ["v0"] + [f"v{i}" for i in range(1, m + 1)]
    edges = [("v0", f"v{i}") for i in range(1, m + 1)]
    return build_graph(verts, edges)


def circulant_graph(n: int, offsets: Iterable[int]) -> NetworkGraph:
    if n < 3:
        raise GraphError(f"circulant needs n >= 3, got {n}")
    offs = set()
    for s in offsets:
        s = s % n
        if s == 0:
            raise GraphError("circulant offset 0 would be a self-loop")
        offs.add(min(s, n - s))
    if not offs:
        raise GraphError("circulant needs at least one offset")
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[(i + s) % n]) for i in range(n) for s in offs]
    return build_graph(verts, edges)


GENERATOR_LIMIT = 1000

# Graph and demand files are read up to this many bytes before they are
# parsed, so a huge file costs no more memory than this. 1 MiB holds
# GENERATOR_LIMIT vertices and GENERATOR_LIMIT edges written by json.dump
# with indent=2 and vertex ids of 300 characters.
GRAPH_FILE_LIMIT = 1 << 20


def _size_guard(spec: str, vertices: int, links: int) -> None:
    if max(vertices, links) > GENERATOR_LIMIT:
        raise ResourceLimitError(
            f"{spec!r} would have {vertices} vertices and up to {links} links; "
            f"generators allow at most {GENERATOR_LIMIT} of each"
        )


def generate(spec: str) -> NetworkGraph:
    """Build a named family instance from shorthand like "cycle:10".

    Families: cycle:n, complete:n, clique_pendant:r, star:m,
    circulant:n:s1,s2,... Instances with more than GENERATOR_LIMIT
    vertices or links raise ResourceLimitError before anything is built.
    """
    parts = spec.split(":")
    family = parts[0]
    try:
        if family == "cycle" and len(parts) == 2:
            n = int(parts[1])
            _size_guard(spec, n, n)
            return cycle_graph(n)
        if family == "complete" and len(parts) == 2:
            n = int(parts[1])
            _size_guard(spec, n, n * (n - 1) // 2)
            return complete_graph(n)
        if family == "clique_pendant" and len(parts) == 2:
            r = int(parts[1])
            _size_guard(spec, 2 * r, r * (r + 1) // 2)
            return clique_pendant_graph(r)
        if family == "star" and len(parts) == 2:
            m = int(parts[1])
            _size_guard(spec, m + 1, m)
            return star_graph(m)
        if family == "circulant" and len(parts) == 3:
            n = int(parts[1])
            offsets = [int(s) for s in parts[2].split(",") if s]
            _size_guard(spec, n, n * len(set(offsets)))
            return circulant_graph(n, offsets)
    except ValueError as exc:
        raise GraphError(f"bad generator shorthand {spec!r}: {exc}") from exc
    raise GraphError(f"unknown generator shorthand {spec!r}")


GENERATOR_FAMILIES = ("cycle", "complete", "clique_pendant", "star", "circulant")
