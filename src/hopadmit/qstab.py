"""Vertex enumeration for the clique-constrained fractional polytope.

The polytope lives in R^n: x >= 0 together with sum(x[i] for i in Q) <= 1
for every maximal clique Q. Vertices are enumerated with the double
description method on the homogenization cone in R^{n+1}, using integer ray
vectors and the standard combinatorial adjacency test. The polytope is
bounded (every coordinate is covered by some clique), so every final ray
scales to a vertex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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

    # Homogeneous coordinates (t, x1..xn). Constraint rows a.r >= 0:
    # t >= 0, each x_i >= 0, then 1*t - sum(x in clique) >= 0.
    constraints: list[tuple[int, ...]] = [tuple([1] + [0] * n)]
    for i in range(n):
        row = [0] * (n + 1)
        row[i + 1] = 1
        constraints.append(tuple(row))
    for q in sorted(tuple(sorted(set(c))) for c in cliques):
        row = [1] + [0] * n
        for i in q:
            row[i + 1] = -1
        constraints.append(tuple(row))

    # The first n+1 constraints carve the nonnegative orthant, whose
    # extreme rays are the coordinate directions.
    rays: list[tuple[int, ...]] = []
    for i in range(n + 1):
        unit = [0] * (n + 1)
        unit[i] = 1
        rays.append(tuple(unit))

    def dot(a: tuple[int, ...], r: tuple[int, ...]) -> int:
        return sum(x * y for x, y in zip(a, r))

    def tight_mask(r: tuple[int, ...], upto: int) -> int:
        mask = 0
        for idx in range(upto):
            if dot(constraints[idx], r) == 0:
                mask |= 1 << idx
        return mask

    base = n + 1
    for step in range(base, len(constraints)):
        a = constraints[step]
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            continue
        masks = [tight_mask(r, step) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        fresh: list[tuple[int, ...]] = []
        for ip in plus:
            for im in minus:
                common = masks[ip] & masks[im]
                adjacent = True
                for io, other in enumerate(rays):
                    if io in (ip, im):
                        continue
                    if masks[io] & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[ip] * rm - vals[im] * rp
                    for rp, rm in zip(rays[ip], rays[im])
                )
                fresh.append(_reduce(combo))
        rays = keep + fresh
        if len(rays) > DEFAULT_RAY_CAP:
            raise ResourceLimitError(
                f"double description ray count exceeded cap of {DEFAULT_RAY_CAP}"
            )

    vertices = set()
    for r in rays:
        t = r[0]
        if t <= 0:
            if any(v != 0 for v in r):
                raise RuntimeError("unbounded direction in a bounded polytope")
            continue
        vertices.add(tuple(Fraction(v, t) for v in r[1:]))
    return sorted(vertices)
