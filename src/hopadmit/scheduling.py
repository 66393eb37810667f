"""Exact link scheduling against a conflict graph.

A demand vector assigns each link a nonnegative rational airtime per unit
time. A schedule is a list of (independent link set, duration) entries; the
shortest schedule meeting a demand vector has total duration equal to the
weighted fractional chromatic number of the conflict graph, computed here
as an exact covering LP over maximal independent sets. A chordal graph is
perfect (Lovasz), so its duration is its heaviest clique, read off the
conflict graph's cached elimination ordering in integers over the
demands' common denominator, without the LP. Chordality is hereditary, so
on a chordal conflict graph this holds for every demand vector at once;
on any other graph each connected support component is priced this way
when it is chordal and by the LP when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

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
    entries = [
        (sets[j], dur) for j, dur in enumerate(sol.x) if dur > 0
    ]
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


def heaviest_clique_sum(
    elimination: Iterable[tuple[int, Iterable[int]]], scaled: Sequence[int]
) -> int:
    """Heaviest clique of a chordal graph in integer weights, given its
    elimination ordering as (vertex, later neighbors) pairs.

    Every maximal clique is a vertex plus its later neighbors, and a vertex
    of weight 0 can be skipped: its later neighbors lie in the clique of
    the earliest of them.
    """
    return max(
        (
            scaled[v] + sum([scaled[u] for u in later])
            for v, later in elimination
            if scaled[v]
        ),
        default=0,
    )


def _heaviest_clique(
    elimination: Sequence[tuple[int, frozenset[int]]],
    weights: Mapping[int, Fraction],
) -> Fraction:
    """Heaviest clique of a chordal graph, summed in integers over the
    weights' common denominator. Vertices missing from weights weigh 0."""
    scaled, den = integer_weights(len(elimination), weights)
    return Fraction(heaviest_clique_sum(elimination, scaled), den)


def _component_duration(
    comp: ConflictGraph, weights: Sequence[Fraction], cap: int
) -> Fraction:
    """Exact duration of one connected support component: its heaviest
    clique when it is chordal, the covering LP otherwise."""
    if comp.elimination is None:
        value, _ = _component_lp(comp, weights, cap)
        return value
    return _heaviest_clique(comp.elimination, dict(enumerate(weights)))


def _indexed(gc: ConflictGraph, t: dict[Link, Fraction]) -> dict[int, Fraction]:
    return {gc.index(link): value for link, value in t.items()}


def _support_components(
    gc: ConflictGraph, tau: dict[Link, Fraction]
) -> list[tuple[ConflictGraph, list[Fraction]]]:
    support = [i for i, link in enumerate(gc.links) if tau.get(link, 0) > 0]
    out = []
    for comp in conflict_components(gc, support):
        comp_gc = induced_conflict(gc, comp)
        out.append((comp_gc, [tau[link] for link in comp_gc.links]))
    return out


def fractional_chromatic(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Fraction:
    """Minimum total schedule duration meeting the demand vector, exactly.

    Demands restricted to zero give duration 0. On a chordal conflict graph
    the value is the heaviest clique; otherwise it decomposes as the max
    over connected components of the demand's support.
    """
    t = normalize_demands(gc, tau)
    if gc.elimination is not None:
        return _heaviest_clique(gc.elimination, _indexed(gc, t))
    best = Fraction(0)
    for comp, weights in _support_components(gc, t):
        value = _component_duration(comp, weights, cap)
        if value > best:
            best = value
    return best


@dataclass(frozen=True)
class Schedule:
    """Timetable entries of (independent link set, duration)."""

    entries: tuple[tuple[frozenset[Link], Fraction], ...]

    @property
    def duration(self) -> Fraction:
        return sum((dur for _, dur in self.entries), Fraction(0))

    def coverage(self, link: Link) -> Fraction:
        return sum(
            (dur for links, dur in self.entries if link in links), Fraction(0)
        )

    def satisfies(self, gc: ConflictGraph, tau: Mapping) -> bool:
        """Every entry independent in gc and every demand fully covered."""
        t = normalize_demands(gc, tau)
        for links, dur in self.entries:
            if dur < 0:
                return False
            idx = [gc.index(l) for l in links]
            if any(b in gc.adj[a] for a in idx for b in idx):
                return False
        return all(self.coverage(link) >= need for link, need in t.items())


def min_schedule(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Schedule:
    """A shortest schedule meeting the demands.

    Per-component optimal schedules run in parallel: the timeline is cut at
    every component's entry boundary and concurrent entries are unioned,
    which is sound because links in different support components never
    conflict. Every component's entries have positive durations and fill
    its optimum, so the merged duration is the largest optimum, which is
    fractional_chromatic(gc, tau).
    """
    t = normalize_demands(gc, tau)
    parts = []
    for comp, weights in _support_components(gc, t):
        _, entries = _component_lp(comp, weights, cap)
        timeline = []
        clock = Fraction(0)
        for idx_set, dur in entries:
            links = frozenset(comp.links[i] for i in idx_set)
            timeline.append((clock, clock + dur, links))
            clock += dur
        parts.append(timeline)
    if not parts:
        return Schedule(())

    cuts = sorted({Fraction(0)} | {seg[1] for timeline in parts for seg in timeline})
    merged = []
    for lo, hi in zip(cuts, cuts[1:]):
        active: frozenset[Link] = frozenset()
        for timeline in parts:
            for start, end, links in timeline:
                if start <= lo and hi <= end:
                    active = active | links
                    break
        if active:
            merged.append((active, hi - lo))
    schedule = Schedule(tuple(merged))
    if not schedule.satisfies(gc, tau):
        raise AssertionError("optimal schedule failed its own feasibility check")
    return schedule


def weighted_clique_number(
    gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP
) -> Fraction:
    """Largest total demand on a set of pairwise conflicting links."""
    t = normalize_demands(gc, tau)
    if gc.elimination is not None:
        return _heaviest_clique(gc.elimination, _indexed(gc, t))
    support = [i for i, link in enumerate(gc.links) if t.get(link, 0) > 0]
    if not support:
        return Fraction(0)
    sub = induced_conflict(gc, support)
    best = Fraction(0)
    for clique in _maximal_cliques_idx(len(sub.links), sub.adj, cap):
        weight = sum((t[sub.links[i]] for i in clique), Fraction(0))
        if weight > best:
            best = weight
    return best


def is_feasible(gc: ConflictGraph, tau: Mapping, cap: int = DEFAULT_SET_CAP) -> bool:
    """Whether the demands fit in one unit of time."""
    return fractional_chromatic(gc, tau, cap) <= 1
