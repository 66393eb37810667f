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
from math import gcd, lcm
from typing import Iterator, Sequence

from .chordal import chordality_certificate
from .errors import GraphError
from .graphs import ConflictGraph, Link, NetworkGraph, conflict_graph
from .qstab import qstab_vertices
from .scheduling import fractional_chromatic, weighted_clique_number
from .search import (
    cap_in_force,
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


def max_interfering_matching(g: NetworkGraph) -> tuple[int, tuple[Link, ...]]:
    """Largest set of links pairwise at distance exactly one, with witness.

    Such links are disjoint yet mutually conflicting under radius 2, so any
    schedule must serialize them all.
    """
    if not g.links:
        return 0, ()
    adj = _unit_distance_adjacency(g)
    clique = max_clique(len(g.links), adj)
    return len(clique), tuple(g.links[i] for i in clique)


# ---------------------------------------------------------------------------
# Neighborhood covers of conflict cliques.


def neighborhood_cover_number(g: NetworkGraph) -> tuple[int, tuple[Link, ...], tuple[str, ...]]:
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
    for clique in maximal_cliques(len(gc.links), gc.adj):
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


def _odd_hole_candidates(gc: ConflictGraph) -> Iterator[dict[Link, Fraction]]:
    """Indicator of the first chordless odd cycle of the shortest odd length
    L from 5 to 13 that has any. Every such cycle has clique number 2 and
    chi_f 2L/(L - 1), so a later one could only tie its ratio L/(L - 1),
    and a tie keeps the earlier witness."""
    n = len(gc.links)
    for length in range(5, min(n, 13) + 1, 2):
        for cycle in iter_induced_cycles(n, gc.adj, length):
            yield {gc.links[i]: Fraction(1) for i in cycle}
            return


def _is_perfect(comp: ConflictGraph) -> bool:
    """Chordal or bipartite, so perfect and of imperfection ratio 1."""
    return comp.cliques is not None or is_bipartite(len(comp.links), comp.adj)


def _polytope_witness(comp: ConflictGraph) -> tuple[Fraction, dict[Link, Fraction]]:
    """Exact imperfection ratio of a component, with a vertex attaining it.

    The ratio is the largest chi_f over the vertices of the clique polytope
    (Gerke and McDiarmid, 2001), whose weighted clique number is at most
    one, so the first vertex of largest chi_f replays to the ratio. The
    witness is that vertex scaled to its primitive integer vector, or empty
    when no vertex beats 1.

    The result is kept in the component's memo, keyed by the search limit
    in force: the upper and the lower bound of one report walk the same
    cached components (`ConflictGraph.components`), so each is enumerated
    once, and a smaller limit still raises where it would without the memo.
    """
    key = ("polytope-witness", cap_in_force())
    if key not in comp.memo:
        comp.memo[key] = _enumerate_polytope(comp)
    return comp.memo[key]


def _enumerate_polytope(comp: ConflictGraph) -> tuple[Fraction, dict[Link, Fraction]]:
    m = len(comp.links)
    best = Fraction(1)
    witness: dict[Link, Fraction] = {}
    for vertex in qstab_vertices(m, maximal_cliques(m, comp.adj)):
        # An integral vertex is a stable set's indicator, of chi_f at most
        # 1, so it cannot beat the starting best.
        if all(x.denominator == 1 for x in vertex):
            continue
        tau = {comp.links[i]: x for i, x in enumerate(vertex) if x > 0}
        value = fractional_chromatic(comp, tau)
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


def _imperfection_candidates(gc: ConflictGraph) -> Iterator[dict[Link, Fraction]]:
    yield from _odd_hole_candidates(gc)
    for comp in gc.components:
        if len(comp.links) > POLYTOPE_VERTEX_LIMIT:
            continue
        if not _is_perfect(comp):
            _, witness = _polytope_witness(comp)
            if witness:
                yield witness


def imperfection_lower_bound(
    gc: ConflictGraph,
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
    it is always sound as a lower bound.

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
    for tau in _imperfection_candidates(gc):
        clique = weighted_clique_number(gc, tau)
        if clique == 0:
            continue
        ratio = fractional_chromatic(gc, tau) / clique
        if ratio > best:
            best = ratio
            witness = tau
            if upper is not None and best >= upper:
                break
    return best, witness


def _ring_scheme_bound(gc: ConflictGraph) -> Fraction | None:
    """Certified ratio bound p/(p - 1) when gc is C_m squared, m = 2p = 4k + 2 >= 10.

    One walk from vertex 0 finds the ring order: the next vertex is the
    smallest neighbour of the current one that shares exactly two
    neighbours with it (vertices two apart share one) and is neither of
    the last two in the order. The bound is returned only if the order
    visits all m vertices and each order[q] is adjacent to exactly
    order[q - 2], order[q - 1], order[q + 1] and order[q + 2], mod m.

    Then deleting the pair order[2t], order[2t + 1] leaves the square of
    the path order[2t + 2], ..., order[2t + m - 1], whose ends are three
    apart on the ring. Along that path each vertex's later neighbours are
    the next two vertices, which are adjacent, so each of the p deletions
    is chordal. Each vertex lies in p - 1 of them, so stacking their
    clique-tight schedules proves chi_f/omega <= p/(p - 1).
    """
    m = len(gc.links)
    if m < 10 or m % 4 != 2 or any(len(a) != 4 for a in gc.adj):
        return None
    order = [0]
    while len(order) < m:
        cur = gc.adj[order[-1]]
        ring = [w for w in cur if w not in order[-2:] and len(cur & gc.adj[w]) == 2]
        if not ring:
            return None
        order.append(min(ring))
    if len(set(order)) != m or any(
        gc.adj[v] != {order[(q + d) % m] for d in (-2, -1, 1, 2)} for q, v in enumerate(order)
    ):
        return None
    p = m // 2
    return Fraction(p, p - 1)


def _component_imp_upper(comp: ConflictGraph) -> tuple[Fraction | None, str]:
    m = len(comp.links)
    if _is_perfect(comp):
        return Fraction(1), "perfect"
    ring = _ring_scheme_bound(comp)
    if ring is not None:
        return ring, "ring-formula"
    if m <= POLYTOPE_VERTEX_LIMIT:
        return _polytope_witness(comp)[0], "polytope-enumeration"
    if m % 2 == 1 and all(len(a) == 2 for a in comp.adj):
        return Fraction(m, m - 1), "odd-cycle-family"
    return None, "unavailable"


def imperfection_upper_bound(gc: ConflictGraph) -> tuple[Fraction | None, str]:
    """Certified upper bound on the imperfection ratio, with its route.

    Routes per connected component: perfection by chordality or
    bipartiteness, the ring formula on C_m squared, exact polytope
    vertex enumeration on small components, and the plain odd-cycle
    formula. Components combine by maximum. Returns (None, "unavailable")
    when any component has no route.
    """
    if not gc.links:
        return Fraction(1), "perfect"
    best = Fraction(0)
    tag = "perfect"
    for comp in gc.components:
        value, route = _component_imp_upper(comp)
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


def invariant_report(g: NetworkGraph) -> InvariantReport:
    """Compute every invariant of the conflict graph of g at radius 2."""
    gc = conflict_graph(g, 2)
    nu, nu_wit = max_interfering_matching(g)
    lam, lam_links, lam_verts = neighborhood_cover_number(g)
    imp_hi, cert = imperfection_upper_bound(gc)
    if gc.links:
        imp_lo, imp_wit = imperfection_lower_bound(gc, upper=imp_hi)
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
