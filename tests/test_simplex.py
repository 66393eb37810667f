"""Exact rational LP solver: known optima, brute cross-checks, duality,
the dual certificate, and pivot-for-pivot agreement with the dense tableau."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import brute_lp, solve_max_le, tableau_min_ge
from hopadmit import conflict_graph, cycle_graph
from hopadmit.scheduling import maximal_independent_sets
from hopadmit.simplex import (
    LPInfeasibleError,
    LPUnboundedError,
    solve_min_ge,
)


def _dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def test_known_covering_lp():
    sol = solve_min_ge([1, 1], [[1, 2], [2, 1]], [3, 3])
    assert sol.value == 2
    assert sol.x == (1, 1)


def test_fractional_optimum_is_exact():
    sol = solve_min_ge(
        [1, 1, 1],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [1, 1, 1],
    )
    assert sol.value == Fraction(3, 2)
    assert all(v == Fraction(1, 2) for v in sol.x)


def test_zero_rhs_gives_zero():
    sol = solve_min_ge([2, 3], [[1, 0], [0, 1]], [0, 0])
    assert sol.value == 0
    assert sol.x == (0, 0)


def test_infeasible_raises():
    with pytest.raises(LPInfeasibleError):
        solve_min_ge([1], [[1], [-1]], [1, 0])


def test_unbounded_min_raises():
    with pytest.raises(LPUnboundedError):
        solve_min_ge([-1], [[1]], [0])


def test_unbounded_max_raises():
    with pytest.raises(LPUnboundedError):
        solve_max_le([1, 1], [[1, -1]], [1])


def test_max_known_value():
    sol = solve_max_le([3, 2], [[1, 1], [1, 0]], [4, 2])
    assert sol.value == 10
    assert sol.x == (2, 2)


def test_rational_coefficients():
    sol = solve_min_ge(
        [Fraction(1, 2), Fraction(1, 3)],
        [[Fraction(1, 4), 1]],
        [Fraction(5, 6)],
    )
    assert sol.value == Fraction(5, 18)
    assert _dot(sol.x, [Fraction(1, 4), 1]) >= Fraction(5, 6)


def test_min_ge_matches_brute(seed=23, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        c = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        a = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-2, 6), rng.randint(1, 2)) for _ in range(m)]
        want = brute_lp(n, [(row, rhs, ">=") for row, rhs in zip(a, b)], c, maximize=False)
        if want is None:
            with pytest.raises(LPInfeasibleError):
                solve_min_ge(c, a, b)
            continue
        sol = solve_min_ge(c, a, b)
        assert sol.value == want
        assert all(v >= 0 for v in sol.x)
        for row, rhs in zip(a, b):
            assert _dot(sol.x, row) >= rhs
        assert _dot(sol.x, c) == sol.value


def test_max_le_matches_brute(seed=29, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        c = [rng.randint(-2, 5) for _ in range(n)]
        a = [[rng.randint(-1, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 6) for _ in range(m)]
        a += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        b += [10] * n
        want = brute_lp(n, [(row, rhs, "<=") for row, rhs in zip(a, b)], c, maximize=True)
        sol = solve_max_le(c, a, b)
        assert sol.value == want
        for row, rhs in zip(a, b):
            assert _dot(sol.x, row) <= rhs
        assert _dot(sol.x, c) == sol.value


def test_covering_duality(seed=31, trials=60):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for i, row in enumerate(a):
            if not any(row):
                row[i % n] = 1
        b = [rng.randint(0, 5) for _ in range(m)]
        c = [rng.randint(1, 4) for _ in range(n)]
        primal = solve_min_ge(c, a, b)
        transposed = [[a[i][j] for i in range(m)] for j in range(n)]
        dual = solve_max_le(b, transposed, c)
        assert primal.value == dual.value


def test_degenerate_ties_terminate():
    sol = solve_min_ge(
        [1, 1, 1, 1],
        [
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ],
        [1, 1, 1, 1, 1, 1],
    )
    assert sol.value == 2


def _outcome(solver, c, a, b):
    try:
        return solver(c, a, b)
    except (LPInfeasibleError, LPUnboundedError) as exc:
        return type(exc)


def _assert_dual_certificate(c, a, b, sol):
    assert len(sol.y) == len(a)
    assert all(v >= 0 for v in sol.y)
    for j, cj in enumerate(c):
        assert sum((Fraction(row[j]) * yi for row, yi in zip(a, sol.y)), Fraction(0)) <= cj
    assert _dot(b, sol.y) == sol.value


def _random_lp(rng):
    """Small LPs with degenerate ties, negative and zero rhs, rational
    entries, duplicated rows, and infeasible and unbounded instances."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    c = [Fraction(rng.randint(-1, 5), rng.randint(1, 3)) for _ in range(n)]
    a = [
        [rng.choice((0, 0, 1, 1, 2, -1, Fraction(1, 2))) for _ in range(n)]
        for _ in range(m)
    ]
    b = [Fraction(rng.randint(-3, 6), rng.randint(1, 2)) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(a))
        a.append(list(a[i]))
        b.append(b[i])
    return c, a, b


def test_revised_simplex_matches_tableau(seed=37, trials=1500):
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        c, a, b = _random_lp(rng)
        got = _outcome(solve_min_ge, c, a, b)
        assert got == _outcome(tableau_min_ge, c, a, b)
        if isinstance(got, type):
            seen.add(got)
            continue
        seen.add("optimal")
        _assert_dual_certificate(c, a, b, got)
    assert seen == {"optimal", LPInfeasibleError, LPUnboundedError}


def test_dual_of_redundant_rows():
    a = [[1, 1], [1, 1], [2, 2], [1, 0]]
    b = [2, 2, 4, 1]
    sol = solve_min_ge([1, 2], a, b)
    assert sol == tableau_min_ge([1, 2], a, b)
    assert sol.value == 2
    _assert_dual_certificate([1, 2], a, b, sol)


def test_negated_rows_give_nonnegative_duals():
    # x1 >= 1 and -x1 - x2 >= -5 (x1 + x2 <= 5): the second row is negated.
    sol = solve_min_ge([1, -1], [[1, 0], [-1, -1]], [1, -5])
    assert sol.value == -3
    assert sol.y == (2, 1)
    _assert_dual_certificate([1, -1], [[1, 0], [-1, -1]], [1, -5], sol)


@pytest.mark.parametrize("n", range(16, 23))
def test_ring_covering_lp_matches_tableau(n):
    gc = conflict_graph(cycle_graph(n), 2)
    sets = maximal_independent_sets(gc)
    a = [[1 if link in s else 0 for s in sets] for link in gc.links]
    rng = random.Random(n)
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in gc.links]
    c = [1] * len(sets)
    sol = solve_min_ge(c, a, w)
    assert sol == tableau_min_ge(c, a, w)
    _assert_dual_certificate(c, a, w, sol)
    assert sol.value == _dot(c, sol.x)
