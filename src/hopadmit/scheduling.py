"""Exact link scheduling against a conflict graph.

A demand vector assigns each link a nonnegative rational airtime per unit
time. A schedule is a list of (independent link set, duration) entries; the
shortest schedule meeting a demand vector has total duration equal to the
weighted fractional chromatic number of the conflict graph, computed here
as an exact covering LP over maximal independent sets. A chordal graph,
and the complement of one (a co-chordal graph), is perfect (Lovasz), so
its duration is its heaviest clique, without the LP: the conflict graph
caches one reader per maximal clique (`gc.clique_readers`), and the
heaviest is a few integer sums. A chordal graph's cliques are read off a
perfect elimination ordering in the pass that tests chordality
(`gc.cliques`; Gavril); a co-chordal one's are listed by Bron-Kerbosch,
within a bound on their number. Both properties are hereditary, so on
such a conflict graph this holds for every demand vector at once. On any
other graph, and for a given support, each connected support component
is priced on its own: one or two links by their total, a larger
component by its heaviest clique when it is chordal and by the LP when
it is not. Components are built per call, so only a conflict graph that
is kept, as a command's own, is tested for co-chordality.

This module is the one place that prices demands. `scale_demands`
checks a demand vector once and writes it as integers over one common
denominator; `scaled_duration` returns the duration times that
denominator, an int unless a component needs the LP, and prices only a
given support when one is passed, as for a 1-hop view. Every other
entry point, here and in `analysis` and `simulate`, scales once and
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import GraphError
from .graphs import ConflictGraph, Link, conflict_components, induced_conflict
from .search import DEFAULT_SET_CAP
from .search import maximal_cliques as _maximal_cliques_idx
from .search import maximal_independent_sets as _mis_idx
from .simplex import solve_min_ge


def normalize_demands(gc: ConflictGraph, tau: Mapping) -> dict[Link, Fraction]:
    """Coerce values to Fraction and reject unknown links or negative demand."""
    out: dict[Link, Fraction] = {}
    for link, raw in tau.items():
        if not gc.has_link(link):
            raise GraphError(f"demand names {link!r}, which is not a link")
        try:
            value = raw if type(raw) is Fraction else Fraction(raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise GraphError(f"demand for {link!r} is not a rational: {raw!r}") from exc
        if value.numerator < 0:
            raise GraphError(f"demand for {link!r} is negative")
        if value.numerator:
            out[link] = value
    return out


def maximal_independent_sets(
    gc: ConflictGraph, cap: int = DEFAULT_SET_CAP
) -> list[tuple[Link, ...]]:
    """All maximal sets of pairwise non-conflicting links, sorted."""
    return [tuple(gc.links[i] for i in s) for s in _mis_idx(len(gc.links), gc.adj, cap)]


def _component_lp(
    comp: ConflictGraph, weights: Sequence[Fraction], cap: int
) -> tuple[Fraction, list[tuple[tuple[int, ...], Fraction]]]:
    """Solve the covering LP on one connected support component.

    Returns the optimal duration and the positive-duration entries as
    (independent index set, duration) pairs.
    """
    sets = _mis_idx(len(comp.links), comp.adj, cap)
    sol = solve_min_ge(sets, weights)
    # x >= 0, so its nonzero entries are the positive ones.
    entries = [(sets[j], dur) for j, dur in enumerate(sol.x) if dur]
    return sol.value, entries


def integer_weights(
    n: int, weights: Mapping[int, Fraction]
) -> tuple[list[int], int]:
    """Weights of indices 0..n-1 as integers over their common denominator.

    Returns (scaled, den) with weights[i] == scaled[i] / den; indices
    missing from weights get 0.
    """
    den = lcm(*(w.denominator for w in weights.values()))
    scaled = [0] * n
    for i, w in weights.items():
        scaled[i] = w.numerator * (den // w.denominator)
    return scaled, den


def scale_demands(gc: ConflictGraph, tau: Mapping) -> tuple[list[int], int]:
    """The demands, checked by `normalize_demands`, as integers over their
    common denominator, indexed like gc.links. Returns (scaled, den)."""
    t = normalize_demands(gc, tau)
    return integer_weights(
        len(gc.links), {gc.index(link): value for link, value in t.items()}
    )


def _support_components(
    gc: ConflictGraph, scaled: Sequence[int]
) -> list[tuple[ConflictGraph, list[int]]]:
    """Each connected component of the demands' support, every index with
    a nonzero entry, as its induced conflict graph and its entries of
    scaled."""
    support = [i for i, w in enumerate(scaled) if w]
    return [
        (induced_conflict(gc, comp), [scaled[i] for i in comp])
        for comp in conflict_components(gc, support)
    ]


def scaled_duration(
    gc: ConflictGraph,
    scaled: Sequence[int],
    den: int,
    cap: int = DEFAULT_SET_CAP,
    support: Sequence[int] | None = None,
) -> int | Fraction:
    """Minimum schedule duration of the demands scaled / den, times den.

    scaled is indexed like gc.links and holds nonnegative integers. Given
    support, the indices of some nonzero entries, only those demands are
    priced and the rest of scaled is never read. With no support given,
    on a chordal or co-chordal gc the value is its heaviest maximal
    clique, read by gc.clique_readers. Otherwise each connected support
    component is priced, the largest value winning: a component of one
    or two links is a clique, worth its total; a larger one is worth its
    heaviest clique when it is chordal (its `cliques`; a component built
    for one call is never tested for co-chordality) and its covering LP,
    on the demands as Fractions, when it is not. The value is an int
    unless some component needs the LP.
    """
    if support is None:
        readers = gc.clique_readers
        if readers is not None:
            return max([sum(read(scaled)) for read in readers], default=0)
        support = [i for i, w in enumerate(scaled) if w]
    best: int | Fraction = 0
    for idx in conflict_components(gc, support):
        weights = [scaled[i] for i in idx]
        if len(idx) < 3:
            value = sum(weights)
        else:
            comp = induced_conflict(gc, idx)
            cliques = comp.cliques
            if cliques is not None:
                value = max([sum([weights[i] for i in c]) for c in cliques])
            else:
                lp, _ = _component_lp(comp, [Fraction(w, den) for w in weights], cap)
                value = lp * den
        if value > best:
            best = value
    return best


def fractional_chromatic(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Fraction:
    """Minimum total schedule duration meeting the demand vector, exactly,
    from `scaled_duration`. Demands restricted to zero give duration 0."""
    scaled, den = scale_demands(gc, tau)
    return Fraction(scaled_duration(gc, scaled, den, cap), den)


@dataclass(frozen=True)
class Schedule:
    """Timetable entries of (independent link set, duration)."""

    entries: tuple[tuple[frozenset[Link], Fraction], ...]

    @property
    def duration(self) -> Fraction:
        return sum((dur for _, dur in self.entries), Fraction(0))

    def satisfies(self, gc: ConflictGraph, tau: Mapping) -> bool:
        """Every entry independent in gc and every demand fully covered."""
        t = normalize_demands(gc, tau)
        covered: dict[Link, Fraction] = {}
        for links, dur in self.entries:
            if dur < 0:
                return False
            idx = [gc.index(l) for l in links]
            if any(b in gc.adj[a] for a in idx for b in idx):
                return False
            for link in links:
                covered[link] = covered[link] + dur if link in covered else dur
        return all(
            link in covered and covered[link] >= need for link, need in t.items()
        )


def min_schedule(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Schedule:
    """A shortest schedule meeting the demands.

    Per-component optimal schedules run in parallel, which is sound
    because links in different support components never conflict. Each
    component's entries are a stack of [links, remaining duration], its
    first entry on top. Each step runs the union of the entries on top
    for the smallest remaining duration, takes that from each of them and
    pops those it used up, so a step ends where some entry ends. Every
    component's entries have positive durations and fill its optimum, so
    the merged duration is the largest optimum, which is
    fractional_chromatic(gc, tau).
    """
    scaled, den = scale_demands(gc, tau)
    stacks = []
    for comp, weights in _support_components(gc, scaled):
        _, entries = _component_lp(comp, [Fraction(w, den) for w in weights], cap)
        stacks.append([[frozenset(comp.links[i] for i in idx_set), dur]
                       for idx_set, dur in reversed(entries)])
    merged = []
    while stacks:
        step = min([stack[-1][1] for stack in stacks])
        merged.append((frozenset().union(*[stack[-1][0] for stack in stacks]), step))
        for stack in stacks:
            stack[-1][1] -= step
            if not stack[-1][1]:
                stack.pop()
        stacks = [stack for stack in stacks if stack]
    schedule = Schedule(tuple(merged))
    if not schedule.satisfies(gc, tau):
        raise AssertionError("optimal schedule failed its own feasibility check")
    return schedule


def weighted_clique_number(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Fraction:
    """Largest total demand on a set of pairwise conflicting links.

    When gc has clique readers (it is chordal or co-chordal, so perfect)
    this is the duration, from `scaled_duration`, which reads them;
    otherwise the heaviest maximal clique of the demands' support.
    """
    scaled, den = scale_demands(gc, tau)
    if gc.clique_readers is not None:
        return Fraction(scaled_duration(gc, scaled, den, cap), den)
    support = [i for i, w in enumerate(scaled) if w]
    if not support:
        return Fraction(0)
    sub = induced_conflict(gc, support)
    best = max(
        (
            sum([scaled[support[i]] for i in clique])
            for clique in _maximal_cliques_idx(len(sub.links), sub.adj, cap)
        ),
        default=0,
    )
    return Fraction(best, den)


def is_feasible(gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP) -> bool:
    """Whether the demands fit in one unit of time."""
    return fractional_chromatic(gc, tau, cap) <= 1
