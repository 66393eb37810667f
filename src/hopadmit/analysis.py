"""Gap analysis between local 1-hop scheduling estimates and the optimum.

A node that only sees its 1-hop subgraph can compute the minimum schedule
duration for the demands it knows about. The largest such local value is a
lower bound on the true network-wide duration; the worst-case ratio between
the two over all demand vectors is what admission control must absorb.
This module certifies lower bounds on that ratio by replaying explicit
witness demands, and upper bounds via the imperfection ratio of the
conflict graph times the neighborhood cover number.

Demands are checked and scaled to integers over one denominator once per
call (`scheduling.scale_demands`), and every price then comes from
`scheduling.scaled_duration` in those integers. A view is its link
indices (`NetworkGraph.view_links`), priced by `_view_value` on the whole
radius-2 conflict graph from the view's own support, so a view costs
nothing per link outside it. `price_scaled` is the batch pricer: given a
list of such integer vectors over one denominator, it returns each
vector's largest view value and its network-wide duration. It reads each
clique of the graph's table of maximal view cliques
(`NetworkGraph.view_clique_table`) and, on a chordal or co-chordal
conflict graph, each maximal clique of the whole graph
(`ConflictGraph.clique_readers`) once across all vectors, a column of
clique sums per clique, and takes each vector's largest (`_heaviest`).
Only a non-chordal view, or a conflict graph with no readers, is priced
vector by vector. `duration_ratio` prices a batch of one, and
`local_estimate` the view values of a batch of one (`_view_maxima`).
`local_views` and the protocol trace (`simulate.run_admission`) price each
view on its own by `_view_value`.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import BoundUnavailableError, GraphError, ResourceLimitError
from .graphs import (
    INFINITE,
    ConflictGraph,
    Link,
    NetworkGraph,
    conflict_graph,
    cycle_graph,
    make_link,
    one_hop_subgraph,
)
from .invariants import (
    imperfection_upper_bound,
    max_interfering_matching,
    neighborhood_cover_number,
)
from .scheduling import scale_demands, scaled_duration
from .search import DEFAULT_SET_CAP, iter_induced_cycles

# Random demand samples per run, for beta --empirical and simulate
# --samples. Each sample a sweep keeps, its row and its output, costs
# about 0.8 KB of peak memory on any graph (0.79 KB for simulate
# complete:5 at 100,000 samples and 0.74 KB for star:999 at 10,000, each
# against 0 samples, Python 3.11), since its raw vector is dropped once its
# batch is priced and its output is written a chunk of rows at a time; so
# the limit adds at most about 80 MB to a run. A larger count raises
# ResourceLimitError before any sample is drawn.
SAMPLE_LIMIT = 100_000


def check_sample_count(count: int, what: str) -> None:
    """Reject a negative count (GraphError) or one above SAMPLE_LIMIT."""
    if count < 0:
        raise GraphError(f"{what} must be nonnegative")
    if count > SAMPLE_LIMIT:
        raise ResourceLimitError(f"{what} {count} exceeds the limit of {SAMPLE_LIMIT}")


def _view_value(gc: ConflictGraph, idx, scaled: list[int], den: int, cap: int) -> int | Fraction:
    """Duration of the demands scaled / den on the view of link indices
    idx, times den. At radius 2 the view's conflict graph is gc restricted
    to idx, so this is `scaled_duration` on gc priced from the view's own
    support, its indices with nonzero demand, or on all of gc when the
    view holds every link."""
    if len(idx) == len(scaled):
        return scaled_duration(gc, scaled, den, cap)
    return scaled_duration(gc, scaled, den, cap, [i for i in idx if scaled[i]])


def _heaviest(readers, vectors: list[list[int]]) -> list[int]:
    """The heaviest clique sum of each vector (0 with no reader).

    A batch reads each clique's entries once across all vectors: one
    column of sums per reader, then the largest entry of each vector's
    row, which is faster than reading each vector reader by reader. A
    lone vector, as from `duration_ratio`, is read reader by reader, as
    `scaled_duration` reads it, since a column of one sum per reader
    costs more than that read.
    """
    if len(vectors) == 1:
        (scaled,) = vectors
        return [max([sum(read(scaled)) for read in readers], default=0)]
    if not readers:
        return [0] * len(vectors)
    columns = [list(map(sum, map(read, vectors))) for read in readers]
    return list(map(max, zip(*columns)))


def _view_maxima(
    g: NetworkGraph, vectors: list[list[int]], den: int, cap: int
) -> list[int | Fraction]:
    """Largest 1-hop view value of each demand vector in vectors, over
    den, times den.

    Every chordal view is priced at once, by the heaviest clique of
    g.view_clique_table, an integer; a view whose conflict graph is not
    chordal is priced by `_view_value`, vector by vector.
    """
    table = g.view_clique_table
    maxima = _heaviest(table.readers, vectors)
    if table.non_chordal:
        gc = conflict_graph(g, 2)
        for idx in table.non_chordal:
            maxima = [
                max(value, _view_value(gc, idx, scaled, den, cap))
                for value, scaled in zip(maxima, vectors)
            ]
    return maxima


def price_scaled(
    g: NetworkGraph, vectors: list[list[int]], den: int, cap: int = DEFAULT_SET_CAP
) -> tuple[list[int | Fraction], list[int | Fraction]]:
    """The largest 1-hop view value and the exact network-wide duration of
    each demand vector in vectors, over den, both times den, as two lists
    in the order of vectors.

    Each vector is indexed like g.links, which are the links of
    conflict_graph(g, 2), and holds nonnegative integers, as from
    `scale_demands`. On a chordal or co-chordal conflict graph each
    vector's duration is its heaviest maximal clique
    (`ConflictGraph.clique_readers`). Those cliques, and the view table's,
    are read once across all vectors (`_heaviest`); otherwise
    `scaled_duration` prices each vector, as `_view_value` does each
    non-chordal view. Values are ints unless the covering LP prices a
    support component of a view or of the whole conflict graph.
    """
    gc = conflict_graph(g, 2)
    readers = gc.clique_readers
    if readers is None:
        exact = [scaled_duration(gc, scaled, den, cap) for scaled in vectors]
    else:
        exact = _heaviest(readers, vectors)
    return _view_maxima(g, vectors, den, cap), exact


def local_views(
    g: NetworkGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> list[tuple[NetworkGraph, Fraction]]:
    """Each vertex's 1-hop view and the duration it certifies, in vertex order.

    A view is the subgraph induced by the vertex's closed neighborhood; its
    value is the exact minimum schedule duration for the demands of the
    links inside it, which conflict as they do in the whole graph.
    """
    gc = conflict_graph(g, 2)
    scaled, den = scale_demands(gc, tau)
    return [
        (one_hop_subgraph(g, v), Fraction(_view_value(gc, idx, scaled, den, cap), den))
        for v, idx in zip(g.vertices, g.view_links)
    ]


def local_estimate(g: NetworkGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP) -> Fraction:
    """Largest minimum schedule duration over all 1-hop views."""
    scaled, den = scale_demands(conflict_graph(g, 2), tau)
    (local,) = _view_maxima(g, [scaled], den, cap)
    return Fraction(local, den)


def duration_ratio(g: NetworkGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP) -> Fraction:
    """Exact network-wide duration divided by the best local estimate."""
    scaled, den = scale_demands(conflict_graph(g, 2), tau)
    if not any(scaled):
        raise GraphError("duration ratio needs a nonzero demand vector")
    (local,), (exact,) = price_scaled(g, [scaled], den, cap)
    return Fraction(exact, local)


def uncovered_cycle_order(
    g: NetworkGraph, cap: int = DEFAULT_SET_CAP
) -> tuple[int | float, tuple[str, ...] | None]:
    """Smallest k >= 2 such that some chordless (4k+2)-cycle fits in no
    1-hop view.

    Returns (k, cycle vertices) or (INFINITE, None). Covered cycles, those
    whose vertices all lie inside one closed neighborhood, do not count.
    """
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    adj = tuple(
        frozenset(index[w] for w in g.neighbors(v)) for v in verts
    )
    closed = [adj[i] | {i} for i in range(n)]
    for length in range(10, n + 1, 4):
        for cycle in iter_induced_cycles(n, adj, length, cap):
            members = set(cycle)
            if not any(members <= closed[i] for i in range(n)):
                return (length - 2) // 4, tuple(verts[i] for i in cycle)
    return INFINITE, None


@dataclass(frozen=True)
class RatioBounds:
    """Certified bounds on the worst local-to-global duration ratio."""

    lower: Fraction
    lower_witness: dict[Link, Fraction]
    lower_source: str
    upper: Fraction | None
    imp_upper: Fraction | None
    imp_certificate: str
    cover_number: int
    exact: Fraction | None


def _alternate_link_demand(
    g: NetworkGraph, cycle: tuple[str, ...]
) -> dict[Link, Fraction]:
    links = [
        make_link(cycle[i], cycle[(i + 1) % len(cycle)])
        for i in range(0, len(cycle), 2)
    ]
    for link in links:
        if not g.has_link(link):
            raise GraphError(f"cycle witness uses missing link {link!r}")
    return {link: Fraction(1) for link in links}


def _empirical_demands(
    g: NetworkGraph, count: int, seed: int, cap: int
) -> Iterator[dict[Link, Fraction]]:
    rng = random.Random(seed)
    gc = conflict_graph(g, 2)
    n = len(gc.links)
    for _ in range(count):
        if rng.random() < 0.5:
            tau = {
                link: Fraction(rng.randint(1, 4), rng.randint(1, 4))
                for link in g.links
                if rng.random() < 0.5
            }
            if tau:
                yield tau
        else:
            start = rng.randrange(n)
            clique = [start]
            frontier = set(gc.adj[start])
            while frontier:
                pick = rng.choice(sorted(frontier))
                clique.append(pick)
                frontier &= gc.adj[pick]
            yield {gc.links[i]: Fraction(1) for i in clique}


def _check_ratio_input(g: NetworkGraph, empirical_samples: int) -> None:
    if not g.links:
        raise GraphError("ratio bounds need at least one link")
    check_sample_count(empirical_samples, "empirical sample count")


def _ratio_candidates(
    g: NetworkGraph, empirical_samples: int, seed: int, cap: int
) -> Iterator[tuple[str, dict[Link, Fraction]]]:
    size, matching = max_interfering_matching(g, cap)
    if size >= 1:
        yield "nu-ratio", {link: Fraction(1) for link in matching}
    _, cycle = uncovered_cycle_order(g, cap)
    if cycle is not None:
        yield "odd-cycle", _alternate_link_demand(g, cycle)
    for tau in _empirical_demands(g, empirical_samples, seed, cap):
        yield "empirical", tau


def ratio_lower_bound(
    g: NetworkGraph,
    empirical_samples: int = 0,
    seed: int = 0,
    cap: int = DEFAULT_SET_CAP,
    upper: Fraction | None = None,
) -> tuple[Fraction, dict[Link, Fraction], str]:
    """Best certified ratio over witness demands, each replayed exactly.

    Witness families, in order: the indicator of a maximum interfering
    matching, the alternate links of an uncovered (4k+2)-cycle, and
    optional seeded empirical demand vectors. The reported bound is always
    the replayed exact ratio of its witness, never a formula.

    Witnesses are built one at a time. With a certified upper bound on the
    ratio (`upper`, as from `ratio_upper_bound`), the replay stops once the
    best ratio reaches it: later witnesses can only tie, and a tie keeps
    the earlier one, so (value, witness, source) is what the full replay
    returns, and the cycle search and samples behind the skipped witnesses
    never run. Without `upper` every witness is replayed.
    """
    _check_ratio_input(g, empirical_samples)
    best = Fraction(0)
    witness: dict[Link, Fraction] = {}
    source = "nu-ratio"
    for src, tau in _ratio_candidates(g, empirical_samples, seed, cap):
        ratio = duration_ratio(g, tau, cap)
        if ratio > best:
            best = ratio
            witness = tau
            source = src
            if upper is not None and best >= upper:
                break
    return best, witness, source


def ratio_upper_bound(
    g: NetworkGraph, cap: int = DEFAULT_SET_CAP
) -> tuple[Fraction | None, Fraction | None, str, int]:
    """Imperfection bound times cover number; None when no route certifies.

    Returns (upper, imperfection upper, certificate tag, cover number).
    """
    if not g.links:
        raise GraphError("ratio bounds need at least one link")
    imp, tag = imperfection_upper_bound(conflict_graph(g, 2), cap)
    cover, _, _ = neighborhood_cover_number(g, cap)
    upper = None if imp is None else imp * cover
    return upper, imp, tag, cover


def ratio_bounds(
    g: NetworkGraph,
    empirical_samples: int = 0,
    seed: int = 0,
    cap: int = DEFAULT_SET_CAP,
) -> RatioBounds:
    """Certified two-sided bounds; exact is set when the sides meet.

    The upper bound is computed first and passed to `ratio_lower_bound`,
    which stops replaying witnesses once they reach it; the bounds are the
    ones the full replay gives.
    """
    _check_ratio_input(g, empirical_samples)
    upper, imp, tag, cover = ratio_upper_bound(g, cap)
    lower, witness, source = ratio_lower_bound(
        g, empirical_samples, seed, cap, upper=upper
    )
    if upper is not None and lower > upper:
        raise RuntimeError(
            f"certified bounds crossed: lower {lower} > upper {upper}"
        )
    return RatioBounds(
        lower=lower,
        lower_witness=witness,
        lower_source=source,
        upper=upper,
        imp_upper=imp,
        imp_certificate=tag,
        cover_number=cover,
        exact=lower if upper == lower else None,
    )


def ring_ratio_exact(n: int) -> Fraction:
    """Exact worst-case ratio for the n-cycle, n = 4k+2 with k >= 2.

    Cross-validated: the replayed lower-bound witness and the certified
    upper bound must both equal (2k+1)/k before the value is returned.
    """
    if n < 10 or n % 4 != 2:
        raise GraphError(f"ring formula needs n = 4k+2 with k >= 2, got {n}")
    k = (n - 2) // 4
    expected = Fraction(2 * k + 1, k)
    bounds = ratio_bounds(cycle_graph(n))
    if bounds.exact != expected:
        raise RuntimeError(
            f"ring certificates disagree with {expected}: "
            f"lower {bounds.lower}, upper {bounds.upper}"
        )
    return expected


def admission_threshold(
    g: NetworkGraph,
    user_bound=None,
    cap: int = DEFAULT_SET_CAP,
) -> tuple[Fraction, dict]:
    """Local-value threshold under which admission is always safe.

    With no user bound the threshold is 1 / (imperfection upper bound times
    cover number); any demand whose every local estimate stays at or below
    it is globally feasible. A user-supplied ratio bound is used as given,
    with a warning if it undercuts the certified lower bound.
    """
    if not g.links:
        raise GraphError("admission threshold needs at least one link")
    if user_bound is not None:
        bound = Fraction(user_bound)
        if bound <= 0:
            raise GraphError("user ratio bound must be positive")
        lower, _, _ = ratio_lower_bound(g, cap=cap)
        if bound < lower:
            warnings.warn(
                f"user ratio bound {bound} is below the certified lower "
                f"bound {lower}; admissions may be unsound",
                RuntimeWarning,
                stacklevel=2,
            )
        return Fraction(1) / bound, {"source": "user", "ratio_bound": bound}
    upper, imp, tag, cover = ratio_upper_bound(g, cap)
    if upper is None:
        raise BoundUnavailableError(
            "no imperfection certificate applies to this conflict graph"
        )
    return Fraction(1) / upper, {
        "source": "auto",
        "ratio_upper": upper,
        "imp_upper": imp,
        "certificate": tag,
        "cover_number": cover,
    }
