"""Acceptance checks, one test per promised behavior, each with a time budget.

Every test prints a single PASS line (visible with pytest -s) naming the
check and the measured wall time; a failure prints a FAIL line instead.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from corpus import random_corpus
from oracles import brute_multicolor, solve_max_le, verify_peo, without_links
from hopadmit import (
    clique_pendant_graph,
    complete_graph,
    conflict_graph,
    cycle_graph,
    duration_ratio,
    fractional_chromatic,
    is_chordal,
    local_estimate,
    make_link,
    max_interfering_matching,
    maximal_independent_sets,
    min_schedule,
    neighborhood_cover_number,
    normalize_demands,
    ratio_bounds,
    star_graph,
)
from hopadmit.simulate import evaluate_policy


@contextlib.contextmanager
def _budget(name, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name}: {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds


@pytest.fixture(scope="module")
def corpus():
    named = [
        cycle_graph(10),
        cycle_graph(14),
        clique_pendant_graph(3),
        complete_graph(5),
        star_graph(5),
    ]
    return named + random_corpus(7, 200, max_vertices=8, max_links=12)


def _ring_alternating(n):
    tau = {}
    for i in range(1, n + 1, 2):
        tau[make_link(f"v{i}", f"v{i % n + 1}")] = Fraction(1)
    return tau


def _dual_value(gc, tau):
    t = normalize_demands(gc, tau)
    sets = maximal_independent_sets(gc)
    weights = [t.get(link, Fraction(0)) for link in gc.links]
    rows = [[1 if link in s else 0 for link in gc.links] for s in sets]
    return solve_max_le(weights, rows, [1] * len(rows)).value


def test_alternating_ring_exact_values():
    with _budget("alternating ring exact values", 1):
        g = cycle_graph(6)
        tau = _ring_alternating(6)
        assert fractional_chromatic(conflict_graph(g, 2), tau) == 3
        assert local_estimate(g, tau) == 1
        assert duration_ratio(g, tau) == 3


def test_clique_pendant_family_exact_values():
    with _budget("clique pendant family exact values", 5):
        for r in range(2, 7):
            g = clique_pendant_graph(r)
            tau = {
                make_link(f"x{i}", f"y{i}"): Fraction(1) for i in range(1, r + 1)
            }
            assert fractional_chromatic(conflict_graph(g, 2), tau) == r
            assert local_estimate(g, tau) == 1
            assert duration_ratio(g, tau) == r


def test_ring_family_exact_ratio():
    with _budget("ring family exact ratio", 60):
        for n, k in ((10, 2), (14, 3), (18, 4)):
            bounds = ratio_bounds(cycle_graph(n))
            expected = Fraction(2 * k + 1, k)
            assert bounds.lower == expected
            assert bounds.upper == expected
            assert bounds.exact == expected


def test_matching_and_cover_examples():
    with _budget("matching and cover examples", 10):
        for n in range(3, 9):
            size, _ = max_interfering_matching(complete_graph(n))
            assert size == n // 2
        size, _ = max_interfering_matching(cycle_graph(6))
        assert size == 3
        for n in range(7, 13):
            size, _ = max_interfering_matching(cycle_graph(n))
            assert size == 2
        count, _, _ = neighborhood_cover_number(cycle_graph(10))
        assert count == 2


def test_odd_ring_unit_duration_and_duality():
    with _budget("odd ring unit duration and duality", 5):
        for k in (2, 3, 4):
            n = 2 * k + 1
            gc = conflict_graph(cycle_graph(n), 1)
            tau = {link: Fraction(1) for link in gc.links}
            value = fractional_chromatic(gc, tau)
            assert value == Fraction(n, k)
            assert _dual_value(gc, tau) == value


def test_certified_policy_soundness_sweep(corpus):
    with _budget("certified policy soundness sweep", 600):
        for i, g in enumerate(corpus):
            out = evaluate_policy(g, 100, seed=1000 + i, policy="theorem3")
            assert out["summary"]["false_admit"] == 0
            assert out["summary"]["samples"] == 100


def test_bound_sandwich_and_witness_replay(corpus):
    with _budget("bound sandwich and witness replay", 600):
        for g in corpus:
            bounds = ratio_bounds(g)
            assert bounds.lower >= 1
            if bounds.upper is not None:
                assert bounds.lower <= bounds.upper
            assert duration_ratio(g, bounds.lower_witness) == bounds.lower
            if bounds.exact is not None:
                assert bounds.exact == bounds.lower == bounds.upper


def test_duration_matches_coloring_oracle(corpus):
    with _budget("duration matches coloring oracle", 300):
        rng = random.Random(99)
        checked = 0
        for g in corpus:
            if not 1 <= len(g.links) <= 8:
                continue
            gc = conflict_graph(g, 2)
            for _ in range(2):
                tau = {}
                for link in g.links:
                    if rng.random() < 0.7:
                        den = rng.randint(1, 4)
                        tau[link] = Fraction(rng.randint(1, den), den)
                if not tau:
                    tau = {g.links[0]: Fraction(1, 2)}
                chif = fractional_chromatic(gc, tau)
                schedule = min_schedule(gc, tau)
                base = math.lcm(*(v.denominator for v in tau.values()))
                exact_mult = math.lcm(
                    base, *(d.denominator for _, d in schedule.entries)
                )
                ratios = []
                for mult in sorted({base, 2 * base, exact_mult}):
                    demand = tuple(
                        int(mult * tau.get(l, 0)) for l in gc.links
                    )
                    colors = brute_multicolor(len(gc.links), gc.adj, demand)
                    ratios.append(Fraction(colors, mult))
                assert all(r >= chif for r in ratios)
                assert min(ratios) == chif
                checked += 1
        assert checked >= 200


def test_ring_conflict_chordality():
    with _budget("ring conflict chordality", 1):
        gc = conflict_graph(cycle_graph(10), 2)
        ok, hole = is_chordal(gc)
        assert not ok
        assert len(hole) >= 4
        trimmed = without_links(
            gc, [make_link("v9", "v10"), make_link("v1", "v10")]
        )
        ok, order = is_chordal(trimmed)
        assert ok
        pos = {link: i for i, link in enumerate(trimmed.links)}
        assert verify_peo(
            len(trimmed.links), trimmed.adj, [pos[l] for l in order]
        )
