"""Structural invariants used to bound scheduling performance.

Three quantities drive the admission analysis:

* the largest matching whose links pairwise sit at distance exactly one
  (disjoint but still conflicting);
* the worst-case number of 1-hop neighborhoods needed to cover a maximal
  set of pairwise conflicting links;
* lower and upper bounds on the imperfection ratio of the conflict graph,
  the largest possible gap between the scheduling LP and its clique bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterator, Sequence

from .chordal import chordality_certificate
from .errors import GraphError
from .graphs import ConflictGraph, Link, NetworkGraph, conflict_graph
from .qstab import qstab_vertices
from .scheduling import fractional_chromatic, weighted_clique_number
from .search import (
    DEFAULT_SET_CAP,
    exact_set_cover,
    greedy_set_cover,
    is_bipartite,
    iter_induced_cycles,
    max_clique,
    maximal_cliques,
)

POLYTOPE_VERTEX_LIMIT = 12


# ---------------------------------------------------------------------------
# Spaced matchings.


def _unit_distance_adjacency(g: NetworkGraph) -> tuple[frozenset[int], ...]:
    """Adjacency between links at distance exactly one.

    These are the radius-2 conflicts between links that share no endpoint.
    """
    links = g.links
    return tuple(
        frozenset(j for j in nbrs if a not in links[j] and b not in links[j])
        for (a, b), nbrs in zip(links, conflict_graph(g, 2).adj)
    )


def max_interfering_matching(
    g: NetworkGraph, cap: int = DEFAULT_SET_CAP
) -> tuple[int, tuple[Link, ...]]:
    """Largest set of links pairwise at distance exactly one, with witness.

    Such links are disjoint yet mutually conflicting under radius 2, so any
    schedule must serialize them all. The cap bounds the clique search's
    branches.
    """
    if not g.links:
        return 0, ()
    adj = _unit_distance_adjacency(g)
    clique = max_clique(len(g.links), adj, cap)
    return len(clique), tuple(g.links[i] for i in clique)


# ---------------------------------------------------------------------------
# Neighborhood covers of conflict cliques.


def neighborhood_cover_number(
    g: NetworkGraph, cap: int = DEFAULT_SET_CAP
) -> tuple[int, tuple[Link, ...], tuple[str, ...]]:
    """Worst maximal conflict clique, measured in 1-hop views needed to see it.

    Returns (count, clique links, covering vertices) for the first maximal
    clique, in `maximal_cliques` order, attaining the maximum. Graphs
    without links return (0, (), ()).

    Each clique's covering sets are the distinct nonempty traces of the
    1-hop views on it, in vertex order. The best moves only on a strictly
    larger minimum cover, which is what keeps the first of tied cliques.
    So a clique whose greedy cover (`greedy_set_cover`) has at most `best`
    sets cannot move it, and its exact cover is never searched: only the
    first clique and those whose greedy cover exceeds the best so far
    reach `exact_set_cover`.
    """
    gc = conflict_graph(g, 2)
    if not gc.links:
        return 0, (), ()
    best = 0
    best_links: tuple[Link, ...] = ()
    best_vertices: tuple[str, ...] = ()
    for clique in maximal_cliques(len(gc.links), gc.adj, cap):
        members = {link_idx: pos for pos, link_idx in enumerate(clique)}
        owners: list[str] = []
        seen: dict[frozenset[int], str] = {}
        sets: list[frozenset[int]] = []
        for v, view in zip(g.vertices, g.view_links):
            part = frozenset(members[i] for i in view if i in members)
            if part and part not in seen:
                seen[part] = v
                sets.append(part)
                owners.append(v)
        if best and len(greedy_set_cover(len(clique), sets)) <= best:
            continue
        chosen = exact_set_cover(len(clique), sets)
        if len(chosen) > best:
            best = len(chosen)
            best_links = tuple(gc.links[i] for i in clique)
            best_vertices = tuple(sorted(owners[i] for i in chosen))
    return best, best_links, best_vertices


# ---------------------------------------------------------------------------
# Chordality.


def is_chordal(
    obj: NetworkGraph | ConflictGraph,
) -> tuple[bool, tuple]:
    """Chordality with a checkable certificate.

    Returns (True, perfect elimination ordering) or (False, induced hole),
    labeled by vertices for a network graph and by links for a conflict
    graph.
    """
    if isinstance(obj, NetworkGraph):
        labels: Sequence = obj.vertices
        index = {v: i for i, v in enumerate(labels)}
        adj = tuple(
            frozenset(index[w] for w in obj.neighbors(v)) for v in labels
        )
    else:
        labels = obj.links
        adj = obj.adj
    ok, cert = chordality_certificate(len(labels), adj)
    return ok, tuple(labels[i] for i in cert)


# ---------------------------------------------------------------------------
# Imperfection ratio bounds.


def _odd_hole_candidates(
    gc: ConflictGraph, cap: int, most: int = 128
) -> Iterator[dict[Link, Fraction]]:
    """Indicators of the chordless odd cycles of the shortest odd length
    from 5 to 13 that has any, at most `most` of them, found lazily."""
    n = len(gc.links)
    for length in range(5, min(n, 13) + 1, 2):
        found = 0
        for cycle in iter_induced_cycles(n, gc.adj, length, cap):
            yield {gc.links[i]: Fraction(1) for i in cycle}
            found += 1
            if found >= most:
                return
        if found:
            return


def _is_perfect(comp: ConflictGraph) -> bool:
    """Chordal or bipartite, so perfect and of imperfection ratio 1."""
    return comp.cliques is not None or is_bipartite(len(comp.links), comp.adj)


def _polytope_witness(
    comp: ConflictGraph, cap: int
) -> tuple[Fraction, dict[Link, Fraction]]:
    """Exact imperfection ratio of a component, with a vertex attaining it.

    The ratio is the largest chi_f over the vertices of the clique polytope
    (Gerke and McDiarmid, 2001), whose weighted clique number is at most
    one, so the first vertex of largest chi_f replays to the ratio. The
    witness is that vertex scaled to its primitive integer vector, or empty
    when no vertex beats 1.

    The result is kept in the component's memo, per cap: the upper and the
    lower bound of one report walk the same cached components
    (`ConflictGraph.components`), so each is enumerated once.
    """
    key = ("polytope-witness", cap)
    if key not in comp.memo:
        comp.memo[key] = _enumerate_polytope(comp, cap)
    return comp.memo[key]


def _enumerate_polytope(
    comp: ConflictGraph, cap: int
) -> tuple[Fraction, dict[Link, Fraction]]:
    m = len(comp.links)
    best = Fraction(1)
    witness: dict[Link, Fraction] = {}
    for vertex in qstab_vertices(m, maximal_cliques(m, comp.adj, cap)):
        # An integral vertex is a stable set's indicator, of chi_f at most
        # 1, so it cannot beat the starting best.
        if all(x.denominator == 1 for x in vertex):
            continue
        tau = {comp.links[i]: x for i, x in enumerate(vertex) if x > 0}
        value = fractional_chromatic(comp, tau, cap)
        if value > best:
            best = value
            witness = tau
    if witness:
        scale = Fraction(
            lcm(*(x.denominator for x in witness.values())),
            gcd(*(x.numerator for x in witness.values())),
        )
        witness = {link: x * scale for link, x in witness.items()}
    return best, witness


def _imperfection_candidates(
    gc: ConflictGraph, cap: int
) -> Iterator[dict[Link, Fraction]]:
    yield from _odd_hole_candidates(gc, cap)
    for comp in gc.components:
        if len(comp.links) > POLYTOPE_VERTEX_LIMIT:
            continue
        if not _is_perfect(comp):
            _, witness = _polytope_witness(comp, cap)
            if witness:
                yield witness


def imperfection_lower_bound(
    gc: ConflictGraph,
    cap: int = DEFAULT_SET_CAP,
    upper: Fraction | None = None,
) -> tuple[Fraction, dict[Link, Fraction]]:
    """Best LP-to-clique-bound gap over a candidate demand family.

    The bound starts at 1, the ratio of every single link's indicator,
    with the first link's as witness. Candidates tried, in order: indicators
    of chordless odd cycles, and for each conflict component of at most
    POLYTOPE_VERTEX_LIMIT links that is neither chordal nor bipartite its
    clique polytope vertex of largest chi_f, scaled to integers. That
    vertex attains the component's imperfection ratio, so the result equals
    the true ratio whenever every imperfect component is that small, and
    it is always sound as a lower bound. The cap bounds every search.

    Candidates are built one at a time. With a certified upper bound on
    the ratio (`upper`, as from `imperfection_upper_bound`), the replay
    stops once the best ratio reaches it: no later candidate can beat it,
    and a tie keeps the earlier witness, so the result is the one the full
    replay returns, and the searches behind the skipped candidates never
    run (none when `upper` is 1). Without `upper` every candidate is replayed.
    """
    if not gc.links:
        raise GraphError("imperfection ratio needs at least one link")
    best = Fraction(1)
    witness: dict[Link, Fraction] = {gc.links[0]: Fraction(1)}
    if upper is not None and best >= upper:
        return best, witness
    for tau in _imperfection_candidates(gc, cap):
        clique = weighted_clique_number(gc, tau, cap)
        if clique == 0:
            continue
        ratio = fractional_chromatic(gc, tau, cap) / clique
        if ratio > best:
            best = ratio
            witness = tau
            if upper is not None and best >= upper:
                break
    return best, witness


def _ring_scheme_bound(gc: ConflictGraph) -> Fraction | None:
    """Certified ratio bound from deleting spaced vertex pairs.

    Looks for a cyclic layout where consecutive pairs partition the
    vertices and every pair deletion leaves a chordal graph. Each vertex
    then appears in all but one of the p chordal subgraphs, so stacking
    their clique-tight schedules proves chi_f/omega <= p/(p-1). The bound
    is only returned once every deletion's chordality has been verified:
    deleting the pair order[2t], order[2t + 1] leaves the path order[2t +
    2], ..., order[2t + m - 1], which is replayed as a perfect elimination
    ordering, each vertex's later kept neighbours checked pairwise
    adjacent. That is O(m) set operations per pair, and no subgraph is
    built.
    """
    m = len(gc.links)
    if m < 10 or m % 4 != 2:
        return None
    if any(len(a) != 4 for a in gc.adj):
        return None
    ring_adj: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in gc.adj[i]:
            if j > i and len(gc.adj[i] & gc.adj[j]) == 2:
                ring_adj[i].append(j)
                ring_adj[j].append(i)
    if any(len(nb) != 2 for nb in ring_adj):
        return None
    order = [0, min(ring_adj[0])]
    while len(order) < m:
        prev, cur = order[-2], order[-1]
        nxt = next((w for w in ring_adj[cur] if w != prev), None)
        if nxt is None or nxt in order:
            return None
        order.append(nxt)
    if order[-1] not in ring_adj[0]:
        return None
    pos = {v: i for i, v in enumerate(order)}
    for v in range(m):
        p = pos[v]
        expected = {
            order[(p - 2) % m],
            order[(p - 1) % m],
            order[(p + 1) % m],
            order[(p + 2) % m],
        }
        if gc.adj[v] != frozenset(expected):
            return None
    for first in range(2, m + 2, 2):
        # Path positions run from 0 at order[first]; the deleted pair sits
        # at m - 2 and m - 1.
        for k in range(m - 2):
            v = order[(first + k) % m]
            later = [w for w in gc.adj[v] if k < (pos[w] - first) % m < m - 2]
            if any(b not in gc.adj[a] for a, b in combinations(later, 2)):
                return None
    p = m // 2
    return Fraction(p, p - 1)


def _component_imp_upper(comp: ConflictGraph, cap: int) -> tuple[Fraction | None, str]:
    m = len(comp.links)
    if _is_perfect(comp):
        return Fraction(1), "perfect"
    ring = _ring_scheme_bound(comp)
    if ring is not None:
        return ring, "ring-formula"
    if m <= POLYTOPE_VERTEX_LIMIT:
        return _polytope_witness(comp, cap)[0], "polytope-enumeration"
    if m % 2 == 1 and all(len(a) == 2 for a in comp.adj):
        return Fraction(m, m - 1), "odd-cycle-family"
    return None, "unavailable"


def imperfection_upper_bound(
    gc: ConflictGraph, cap: int = DEFAULT_SET_CAP
) -> tuple[Fraction | None, str]:
    """Certified upper bound on the imperfection ratio, with its route.

    Routes per connected component: perfection by chordality or
    bipartiteness, the verified pair-deletion scheme, exact polytope
    vertex enumeration on small components, and the plain odd-cycle
    formula. Components combine by maximum. Returns (None, "unavailable")
    when any component has no route.
    """
    if not gc.links:
        return Fraction(1), "perfect"
    best = Fraction(0)
    tag = "perfect"
    for comp in gc.components:
        value, route = _component_imp_upper(comp, cap)
        if value is None:
            return None, "unavailable"
        if value > best:
            best = value
            tag = route
    return best, tag


# ---------------------------------------------------------------------------
# Combined report.


@dataclass(frozen=True)
class InvariantReport:
    nu: int
    nu_witness: tuple[Link, ...]
    lam: int
    lam_witness_links: tuple[Link, ...]
    lam_witness_vertices: tuple[str, ...]
    imp_lower: Fraction
    imp_lower_witness: dict[Link, Fraction]
    imp_upper: Fraction | None
    imp_upper_certificate: str


def invariant_report(
    g: NetworkGraph, cap: int = DEFAULT_SET_CAP
) -> InvariantReport:
    """Compute every invariant of the conflict graph of g at radius 2."""
    gc = conflict_graph(g, 2)
    nu, nu_wit = max_interfering_matching(g, cap)
    lam, lam_links, lam_verts = neighborhood_cover_number(g, cap)
    imp_hi, cert = imperfection_upper_bound(gc, cap)
    if gc.links:
        imp_lo, imp_wit = imperfection_lower_bound(gc, cap=cap, upper=imp_hi)
    else:
        imp_lo, imp_wit = Fraction(1), {}
    return InvariantReport(
        nu=nu,
        nu_witness=nu_wit,
        lam=lam,
        lam_witness_links=lam_links,
        lam_witness_vertices=lam_verts,
        imp_lower=imp_lo,
        imp_lower_witness=imp_wit,
        imp_upper=imp_hi,
        imp_upper_certificate=cert,
    )
