"""Exact covering LP solver: known optima, brute cross-checks, duality,
the dual certificate, pivot-for-pivot agreement with the dense dual
tableau and with the per-entry reference pivot, the optimal value of the
two-phase primal tableau, the pivot count, and the per-row exactness
check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import (
    LPUnboundedError,
    bland_tableau_covering,
    brute_lp,
    covering_matrix,
    dual_tableau_covering,
    pivot_trace,
    reference_pivot,
    solve_max_le,
    tableau_covering,
)
from hopadmit import conflict_graph, cycle_graph, simplex
from hopadmit.search import maximal_independent_sets
from hopadmit.simplex import LPInfeasibleError, solve_min_ge


def _dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _assert_feasible(sets, b, sol):
    assert len(sol.x) == len(sets)
    assert all(v >= 0 for v in sol.x)
    for i, need in enumerate(b):
        assert sum((x for s, x in zip(sets, sol.x) if i in s), Fraction(0)) >= need
    assert sum(sol.x, Fraction(0)) == sol.value
    # A basic solution: at most one positive set per row.
    assert sum(1 for v in sol.x if v > 0) <= len(b)


def _assert_dual_certificate(sets, b, sol):
    """y >= 0, no set's rows sum to more than 1 under y, and b.y = value."""
    assert len(sol.y) == len(b)
    assert all(v >= 0 for v in sol.y)
    for s in sets:
        assert sum((sol.y[i] for i in s), Fraction(0)) <= 1
    assert _dot(b, sol.y) == sol.value


def test_known_covering_lp():
    sets = [(0, 1), (1, 2)]
    b = [Fraction(1), Fraction(2), Fraction(1)]
    sol = solve_min_ge(sets, b)
    assert sol.value == 2
    assert sol.x == (1, 1)
    _assert_dual_certificate(sets, b, sol)


def test_fractional_optimum_is_exact():
    sol = solve_min_ge([(0, 2), (0, 1), (1, 2)], [Fraction(1)] * 3)
    assert sol.value == Fraction(3, 2)
    assert all(v == Fraction(1, 2) for v in sol.x)


def test_rational_coefficients():
    # Demands with different denominators: each row is scaled by its own.
    sets = [(0,), (0, 1), (1, 2)]
    b = [Fraction(5, 6), Fraction(1, 3), Fraction(1, 4)]
    sol = solve_min_ge(sets, b)
    assert sol.value == Fraction(13, 12)
    assert sol == tableau_covering(sets, b)
    _assert_feasible(sets, b, sol)
    _assert_dual_certificate(sets, b, sol)


def test_zero_rhs_gives_zero():
    sol = solve_min_ge([(0,), (1,)], [Fraction(0), Fraction(0)])
    assert sol.value == 0
    assert sol.x == (0, 0)
    assert solve_min_ge([(), ()], []).x == (0, 0)


def test_infeasible_raises():
    # Row 1 is in no set: a positive demand there cannot be met, a zero
    # demand can.
    with pytest.raises(LPInfeasibleError):
        solve_min_ge([(0,)], [Fraction(1), Fraction(1)])
    with pytest.raises(LPInfeasibleError):
        solve_min_ge([], [Fraction(1, 2)])
    sol = solve_min_ge([(0,)], [Fraction(1), Fraction(0)])
    assert sol.value == 1


def test_unbounded_max_raises():
    with pytest.raises(LPUnboundedError):
        solve_max_le([1, 1], [[1, -1]], [1])


def test_max_known_value():
    sol = solve_max_le([3, 2], [[1, 1], [1, 0]], [4, 2])
    assert sol.value == 10
    assert sol.x == (2, 2)


def _random_sets(rng, n, m, p=0.5):
    return [tuple(i for i in range(m) if rng.random() < p) for _ in range(n)]


def test_min_ge_matches_brute(seed=23, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        sets = _random_sets(rng, n, m)
        b = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
        rows = covering_matrix(sets, m)
        want = brute_lp(n, [(row, rhs, ">=") for row, rhs in zip(rows, b)], [1] * n, maximize=False)
        if want is None:
            with pytest.raises(LPInfeasibleError):
                solve_min_ge(sets, b)
            continue
        sol = solve_min_ge(sets, b)
        assert sol.value == want
        _assert_feasible(sets, b, sol)


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
    """The covering optimum equals the packing optimum: maximize b.y with
    every set's rows summing to at most 1 under y."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        sets = _random_sets(rng, n, m)
        for i in range(m):
            if not any(i in s for s in sets):
                j = i % n
                sets[j] = tuple(sorted(sets[j] + (i,)))
        b = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        primal = solve_min_ge(sets, b)
        packing = [[1 if i in s else 0 for i in range(m)] for s in sets]
        dual = solve_max_le(b, packing, [1] * n)
        assert primal.value == dual.value


def test_degenerate_ties_terminate():
    sets = [(0, 3, 4), (0, 1, 5), (1, 2, 4), (2, 3, 5)]
    b = [Fraction(1)] * 6
    sol = solve_min_ge(sets, b)
    assert sol.value == 2
    _assert_dual_certificate(sets, b, sol)


def _outcome(solver, sets, b):
    try:
        return solver(sets, b)
    except LPInfeasibleError as exc:
        return type(exc)


def _assert_matches_oracles(sets, b, got):
    """The same LPSolution, or the same error, as the dense dual tableau;
    the same value, or the same error, as the two-phase primal tableau;
    and every optimum a feasible basic x with a dual certificate y."""
    assert got == _outcome(dual_tableau_covering, sets, b)
    primal = _outcome(tableau_covering, sets, b)
    if isinstance(got, type):
        assert primal == got
        return
    assert primal.value == got.value
    _assert_feasible(sets, b, got)
    _assert_dual_certificate(sets, b, got)


def _random_covering_lp(rng):
    """Small covering LPs with rational and zero demands, empty and
    duplicated sets, duplicated rows, degenerate ties, and infeasible
    instances (a row in no set with positive demand)."""
    n = rng.randint(1, 7)
    m = rng.randint(1, 6)
    sets = _random_sets(rng, n, m, rng.choice((0.3, 0.5, 0.7)))
    for _ in range(rng.randint(0, 2)):
        sets.append(sets[rng.randrange(n)])
    b = [
        rng.choice((Fraction(0), Fraction(1), Fraction(1, 2), Fraction(rng.randint(0, 6), rng.randint(1, 3))))
        for _ in range(m)
    ]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(b))
        sets = [s + (len(b),) if i in s else s for s in sets]
        b.append(b[i])
    return sets, b


def test_revised_simplex_matches_tableau(seed=37, trials=1500):
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        sets, b = _random_covering_lp(rng)
        got = _outcome(solve_min_ge, sets, b)
        _assert_matches_oracles(sets, b, got)
        seen.add(got if isinstance(got, type) else "optimal")
    assert seen == {"optimal", LPInfeasibleError}


def test_dual_of_redundant_rows():
    # Rows 0 and 1 are the same row; row 2 is covered by every set.
    sets = [(0, 1, 2), (2, 3), (0, 1, 2, 3)]
    b = [Fraction(2), Fraction(2), Fraction(1), Fraction(1, 2)]
    sol = solve_min_ge(sets, b)
    _assert_matches_oracles(sets, b, sol)
    assert sol.value == 2


@pytest.mark.parametrize("n", range(16, 23))
def test_ring_covering_lp_matches_tableau(n):
    gc = conflict_graph(cycle_graph(n), 2)
    sets = maximal_independent_sets(len(gc.links), gc.adj)
    rng = random.Random(n)
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in gc.links]
    _assert_matches_oracles(sets, w, solve_min_ge(sets, w))


def _uniform_ring_lps():
    for n in range(16, 23):
        gc = conflict_graph(cycle_graph(n), 2)
        sets = maximal_independent_sets(len(gc.links), gc.adj)
        yield n, sets, [Fraction(1, 5)] * len(gc.links)


def test_ring_pivot_count():
    """The dual simplex starts dual feasible from the surplus basis and
    leaves by steepest edge: 176 pivots on the uniform ring LPs of 16 to
    22 links, where the dual Bland rule alone made 251 and the two-phase
    primal simplex 1,047."""
    total = 0
    for n, sets, b in _uniform_ring_lps():
        trace, sol = pivot_trace(sets, b)
        assert sol.value == Fraction(n, 5 * (n // 3))
        total += len(trace)
    assert total <= 180


def test_bland_fallback_alone_matches_bland_oracle(monkeypatch, seed=37, trials=600):
    """With no degenerate pivot allowed before the fallback, every pivot
    follows the dual Bland rule: the same LPSolution, or the same error,
    as the dense Bland tableau, and the 251 ring pivots of that rule."""
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", 0)
    rng = random.Random(seed)
    for _ in range(trials):
        sets, b = _random_covering_lp(rng)
        assert _outcome(solve_min_ge, sets, b) == _outcome(bland_tableau_covering, sets, b)
    total = 0
    for _, sets, b in _uniform_ring_lps():
        trace, sol = pivot_trace(sets, b)
        assert sol == bland_tableau_covering(sets, b)
        total += len(trace)
    assert total == 251


def test_dual_degenerate_lps_terminate(seed=43, trials=300):
    """Many duplicated sets, zero and equal demands and duplicated rows
    make long runs of equal ratios and degenerate pivots; the solver still
    ends at the primal tableau's optimum, or at the same infeasibility."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        m = rng.randint(2, 6)
        base = _random_sets(rng, rng.randint(2, 6), m, rng.choice((0.4, 0.6)))
        sets = [base[rng.randrange(len(base))] for _ in range(rng.randint(len(base), 12))]
        level = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        b = [rng.choice((Fraction(0), level, level)) for _ in range(m)]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(b))
            sets = [s + (len(b),) if i in s else s for s in sets]
            b.append(b[i])
        got = _outcome(solve_min_ge, sets, b)
        _assert_matches_oracles(sets, b, got)
        seen.add(got if isinstance(got, type) else "optimal")
    assert seen == {"optimal", LPInfeasibleError}


def test_pivot_sequence_matches_reference_pivot(seed=41, trials=800):
    """The per-row exactness check changes no pivot: the solver makes the
    same (leaving row, pivot element) sequence and returns the same
    LPSolution, or raises the same error, as with the per-entry pivot."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(trials):
        sets, b = _random_covering_lp(rng)
        trace, got = pivot_trace(sets, b)
        assert (trace, got) == pivot_trace(sets, b, reference_pivot)
        seen.add(got if isinstance(got, type) else "optimal")
    assert seen == {"optimal", LPInfeasibleError}


@pytest.mark.parametrize("n", range(16, 23))
def test_ring_pivot_sequence_matches_reference_pivot(n):
    gc = conflict_graph(cycle_graph(n), 2)
    sets = maximal_independent_sets(len(gc.links), gc.adj)
    w = [Fraction(1, 5)] * len(gc.links)
    trace, sol = pivot_trace(sets, w)
    assert trace
    assert (trace, sol) == pivot_trace(sets, w, reference_pivot)


def _copy(block):
    return [row[:] for row in block]


@pytest.mark.parametrize("piv", (2, 4))
def test_pivot_equals_reference_on_exact_block(piv):
    # Rows 1 and 3 have no entry in the pivot column: rescaled by piv / den
    # when piv = 4, left as they are when piv = den = 2.
    block = [[2, 4, 6], [0, 2, 2], [4, 2, 0], [2, 2, 2]]
    col = [2, 0, piv, 0]
    got, want = _copy(block), _copy(block)
    assert simplex._pivot(got, 2, col, 2) == reference_pivot(want, 2, col, 2) == piv
    assert got == want


def test_pivot_rejects_an_inexact_row_update():
    # Row 0 has f = 1 != 0: (2*3 - 1*2) / 2 is exact, (1*3 - 1*4) / 2 is not.
    with pytest.raises(ArithmeticError):
        simplex._pivot([[2, 1], [2, 4]], 2, [1, 3], 1)
    with pytest.raises(ArithmeticError):
        reference_pivot([[2, 1], [2, 4]], 2, [1, 3], 1)


def test_pivot_rejects_an_inexact_rescale():
    # Row 0 has f = 0 and piv = 3 != den = 2: 2*3 / 2 is exact, 1*3 / 2 is not.
    with pytest.raises(ArithmeticError):
        simplex._pivot([[2, 1], [2, 4]], 2, [0, 3], 1)
    with pytest.raises(ArithmeticError):
        reference_pivot([[2, 1], [2, 4]], 2, [0, 3], 1)


def test_surplus_column_rejects_an_inexact_entry():
    # Minus block column 0 over scale 2: -4 / 2 is exact, -3 / 2 is not.
    with pytest.raises(ArithmeticError):
        simplex._column([[4, 0], [3, 1]], [], [2], 0)
    assert simplex._column([[4, 0], [-2, 1]], [], [2], 0) == [-2, 1]
