"""Clique polytope vertices: the double description with carried tight
sets, the rank prefilter and the bitset adjacency test lists the same
vertices, and trips the ray cap at the same step, as the reference
enumeration with dense tight sets and a scan adjacency test."""

from __future__ import annotations

import random

import pytest

from corpus import random_adjacency
from oracles import reference_qstab_vertices
from hopadmit import qstab
from hopadmit.errors import ResourceLimitError
from hopadmit.qstab import qstab_vertices
from hopadmit.search import maximal_cliques


def _outcome(fn, n, cliques):
    try:
        return fn(n, cliques)
    except ResourceLimitError as exc:
        return str(exc)


def _random_family(rng, n):
    """Either random index subsets of sizes 1 to 4 on at most 8
    coordinates, or the maximal cliques of a random graph; then perhaps a
    repeated or a nested member, and singletons for whatever is left
    uncovered."""
    if n <= 8 and rng.random() < 0.4:
        family = [
            tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(0, 2 * n))
        ]
    else:
        adj = random_adjacency(rng, n, rng.choice((0.5, 0.7, 0.9)))
        family = list(maximal_cliques(n, adj))
    if n and family and rng.random() < 0.2:
        picked = rng.choice(family)
        family.append(picked[: rng.randint(1, len(picked))])
    covered = set().union(*family)
    family += [(i,) for i in range(n) if i not in covered]
    rng.shuffle(family)
    return family


# n = 0 has one ray and no cut; on n = 1 the two starting rays share no
# tight row, so the pair's common tight set is empty and only the start of
# the AND from all current rays finds them adjacent.
EDGE_FAMILIES = [
    (0, []),
    (0, [()]),
    (1, [(0,)]),
    (1, [(0,), (0,)]),
    (2, [(0,), (1,)]),
    (2, [(0, 1)]),
    (2, [(1, 0), (0,), (1,)]),
    (3, [(0, 1), (1, 2), (0, 2)]),
]


@pytest.mark.parametrize("n, cliques", EDGE_FAMILIES)
def test_edge_families_equal_the_reference(n, cliques):
    assert qstab_vertices(n, cliques) == reference_qstab_vertices(n, cliques)


def test_vertices_equal_the_reference(seed=131, trials=2000):
    rng = random.Random(seed)
    sizes = set()
    fractional = 0
    for _ in range(trials):
        # Larger families cost the reference far more, so they are drawn
        # less often; every size from 0 to 12 still appears.
        n = rng.randint(0, rng.randint(6, 12))
        family = _random_family(rng, n)
        got = qstab_vertices(n, family)
        assert got == reference_qstab_vertices(n, family)
        sizes.add(n)
        fractional += any(x.denominator > 1 for v in got for x in v)
    assert sizes == set(range(13))
    assert fractional > trials // 10


def test_ray_cap_trips_at_the_same_step(monkeypatch, seed=137, trials=300):
    rng = random.Random(seed)
    raised = 0
    for _ in range(trials):
        n = rng.randint(1, 9)
        family = _random_family(rng, n)
        monkeypatch.setattr(qstab, "DEFAULT_RAY_CAP", rng.choice((2, 5, 12, 30)))
        got = _outcome(qstab_vertices, n, family)
        assert got == _outcome(reference_qstab_vertices, n, family)
        raised += isinstance(got, str)
    assert 0 < raised < trials


def test_uncovered_coordinate_is_rejected():
    with pytest.raises(ValueError):
        qstab_vertices(2, [(0,)])
