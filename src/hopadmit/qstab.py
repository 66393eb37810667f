"""Vertex enumeration for the clique-constrained fractional polytope.

The polytope lives in R^n: x >= 0 together with sum(x[i] for i in Q) <= 1
for every maximal clique Q. Vertices are enumerated with the double
description method on the homogenization cone in R^{n+1}, using integer ray
vectors. The polytope is bounded (every coordinate is covered by some
clique), so every final ray scales to a vertex.

Each ray carries its tight set, the bitset of constraint rows it meets with
equality, from step to step. A ray kept at a step gains that step's bit
when its value there is 0, whether or not the step cuts any ray. A new ray,
the positive combination of a (+, -) pair, is tight exactly on the pair's
common tight set plus the new row: both terms of the combination are
nonnegative on every earlier row, so its value there is 0 only where both
are. Two extreme rays of the cone are adjacent only if their common tight
set has rank n - 1, so a pair with fewer than n - 1 common rows is skipped
unexamined. For the others the combinatorial test decides: the pair is
adjacent when no third ray is tight on every common row, read off by
ANDing, over the common rows, the bitsets of the rays tight on each row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ResourceLimitError

DEFAULT_RAY_CAP = 200_000


def _reduce(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, v)
    return vec if g in (0, 1) else tuple(v // g for v in vec)


def qstab_vertices(
    n: int, cliques: Sequence[Sequence[int]]
) -> list[tuple[Fraction, ...]]:
    """All extreme points of the clique polytope, sorted.

    cliques must jointly cover range(n); isolated indices should be passed
    as singleton cliques. More than DEFAULT_RAY_CAP intermediate rays raise
    ResourceLimitError.
    """
    covered = set()
    for q in cliques:
        covered.update(q)
    if covered != set(range(n)):
        raise ValueError("cliques must cover every coordinate")

    # Homogeneous coordinates (t, x1..xn). Rows a.r >= 0: t >= 0 (row 0),
    # each x_i >= 0 (row i + 1), then one row t - sum(x in clique) >= 0 per
    # clique, kept as the ray positions of the subtracted coordinates.
    rows = [
        [i + 1 for i in q] for q in sorted(tuple(sorted(set(c))) for c in cliques)
    ]

    # The first n+1 rows carve the nonnegative orthant, whose extreme rays
    # are the coordinate directions, each tight on every other orthant row.
    base = n + 1
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []
    for i in range(base):
        unit = [0] * base
        unit[i] = 1
        rays.append(tuple(unit))
        tight.append(((1 << base) - 1) ^ (1 << i))

    for step, cols in enumerate(rows, start=base):
        bit = 1 << step
        vals = [r[0] - sum([r[c] for c in cols]) for r in rays]
        tight = [m | bit if v == 0 else m for m, v in zip(tight, vals)]
        if min(vals) >= 0:
            continue
        # rays_on[j]: the rays tight on row j, as a bitset over ray indices,
        # by transposing the tight sets written as bit strings.
        width = f"0{step + 1}b"
        rays_on = [
            int("".join(col)[::-1], 2)
            for col in zip(*[format(m, width) for m in tight])
        ]
        rays_on.reverse()
        everyone = (1 << len(rays)) - 1
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        fresh: list[tuple[int, ...]] = []
        fresh_tight: list[int] = []
        for ip in plus:
            mp = tight[ip]
            for im in minus:
                common = mp & tight[im]
                if common.bit_count() < n - 1:
                    continue
                pair = (1 << ip) | (1 << im)
                others = everyone
                rest = common
                while rest and others != pair:
                    low = rest & -rest
                    others &= rays_on[low.bit_length() - 1]
                    rest ^= low
                if others != pair:
                    continue
                combo = tuple(
                    vals[ip] * rm - vals[im] * rp
                    for rp, rm in zip(rays[ip], rays[im])
                )
                fresh.append(_reduce(combo))
                fresh_tight.append(common | bit)
        kept = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in kept] + fresh
        tight = [tight[i] for i in kept] + fresh_tight
        if len(rays) > DEFAULT_RAY_CAP:
            raise ResourceLimitError(
                f"double description ray count exceeded cap of {DEFAULT_RAY_CAP}"
            )

    finite = set()
    for r in rays:
        if r[0] <= 0:
            if any(v != 0 for v in r):
                raise RuntimeError("unbounded direction in a bounded polytope")
            continue
        finite.add(r)
    # Every ray is primitive, so distinct rays are distinct vertices; they
    # are sorted in integers over the common denominator of all of them.
    den = lcm(*(r[0] for r in finite))
    ordered = sorted(finite, key=lambda r: [v * (den // r[0]) for v in r[1:]])
    return [tuple(Fraction(v, r[0]) for v in r[1:]) for r in ordered]
