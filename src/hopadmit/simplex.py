"""Exact covering LP via a revised two-phase primal simplex.

Solves: minimize sum(x) subject to sum(x[j] for every j with i in
sets[j]) >= b[i] for every row i, x >= 0. Column j is the 0/1 indicator of
the row-index tuple sets[j] and costs 1; b holds nonnegative Fractions.
This is the weighted fractional chromatic number LP over independent link
sets.

Row i is scaled by b[i].denominator, so every entry is an integer. Every
row operation of a tableau simplex applies one linear map to all columns,
so each tableau column is that map times the column's scaled entries. The
solver keeps only the map composed with the scaling: one block column per
row, the tableau column of that row's unscaled unit vector, plus the rhs,
all as arbitrary-precision integers over one positive common denominator
(fraction-free Gauss-Jordan pivoting). The tableau column of a set is then
the sum of its rows' block columns, which takes only additions. A row's
surplus column is minus its block column over the row's scale. The pivot
sequence is the full tableau's: Bland's rule picks entering and leaving
variables, which rules out cycling. Every exact division is checked; a
nonzero remainder would mean the invariant broke, and raises instead of
silently corrupting results.

Row 0 of the kept block holds den times the reduced cost of each row's
unit column, which at the optimum is minus that row's dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class LPInfeasibleError(RuntimeError):
    pass


class LPUnboundedError(RuntimeError):
    pass


@dataclass(frozen=True)
class LPSolution:
    """Optimal primal x (one entry per set), dual y (one per row) and value.

    y >= 0, no set's rows sum to more than 1 under y, and
    b.y = sum(x) = value.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free pivot produced a non-integer entry")
    return q


def _entry(
    row: list[int], sets: Sequence[Sequence[int]], scale: list[int], j: int
) -> int:
    """Entry of the current tableau row (a block row) in column j: set j
    for j < len(sets), else the surplus of row j - len(sets)."""
    n = len(sets)
    if j < n:
        return sum([row[r] for r in sets[j]])
    return _exact_div(-row[j - n], scale[j - n])


def _pivot(block: list[list[int]], den: int, col: list[int], r: int) -> int:
    """Gauss-Jordan pivot on block row r, whose tableau column is col;
    returns the new common denominator."""
    piv = col[r]
    if piv <= 0:
        raise ArithmeticError("pivot element must be positive")
    row_r = block[r]
    for i, row in enumerate(block):
        if i == r:
            continue
        f = col[i]
        if den == 1:
            block[i] = [v * piv - f * w for v, w in zip(row, row_r)]
        else:
            block[i] = [_exact_div(v * piv - f * w, den) for v, w in zip(row, row_r)]
    return piv


def _pivot_until_optimal(
    block: list[list[int]],
    den: int,
    basis: list[int],
    sets: Sequence[Sequence[int]],
    scale: list[int],
    priced: bool,
) -> int:
    """Run Bland-rule pivots until no column improves the objective.

    Block row 0 gives the (scaled) reduced costs of a minimization problem,
    den per set when priced plus row0 times the column; constraint rows
    follow, with basis[i] naming the basic variable of row i+1.
    """
    n, m = len(sets), len(scale)
    while True:
        y = block[0]
        cost = den if priced else 0
        enter = -1
        for j, s in enumerate(sets):
            reduced = sum([y[r] for r in s]) + cost
            if reduced < 0:
                enter = j
                break
        else:
            # A surplus column's reduced cost is -y[i] / scale[i].
            i = next((i for i in range(m) if y[i] > 0), -1)
            if i < 0:
                return den
            enter = n + i
            reduced = _exact_div(-y[i], scale[i])
        col = [reduced] + [_entry(row, sets, scale, enter) for row in block[1:]]
        leave = -1
        for i in range(1, len(block)):
            a = col[i]
            if a <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            lhs = block[i][-1] * col[leave]
            rhs = block[leave][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i - 1] < basis[leave - 1]):
                leave = i
        if leave < 0:
            raise LPUnboundedError("objective is unbounded")
        den = _pivot(block, den, col, leave)
        basis[leave - 1] = enter


def solve_min_ge(sets: Sequence[Sequence[int]], b: Sequence[Fraction]) -> LPSolution:
    """Minimize sum(x) subject to, for every row i, the sets holding i
    having total x >= b[i], x >= 0."""
    n, m = len(sets), len(b)
    if m == 0:
        return LPSolution(Fraction(0), tuple(Fraction(0) for _ in range(n)), ())

    # Variables: n sets, one surplus per row, then one artificial per row,
    # which starts basic. block[i + 1] is row i + 1 of the tableau over the
    # rows' unit columns and the rhs.
    scale = [rhs.denominator for rhs in b]
    block: list[list[int]] = [[-d for d in scale] + [-sum(rhs.numerator for rhs in b)]]
    for i, rhs in enumerate(b):
        unit = [0] * (m + 1)
        unit[i] = scale[i]
        unit[m] = rhs.numerator
        block.append(unit)
    basis = [n + m + i for i in range(m)]

    # Phase 1: minimize the sum of artificials. Row 0 starts as minus the
    # sum of the rows, so a column's reduced cost is its negated entry sum.
    # Artificial columns never enter, so they need no column of their own.
    den = _pivot_until_optimal(block, 1, basis, sets, scale, False)

    if any(block[r + 1][m] != 0 for r in range(m) if basis[r] >= n + m):
        raise LPInfeasibleError("constraints have no nonnegative solution")

    # Drive leftover zero-level artificials out of the basis, entering the
    # first column with a nonzero entry in the row. If artificial n + m + s
    # is basic in a row, the surplus column n + s holds -den there, so the
    # search always succeeds and no row is redundant.
    for r in range(m):
        if basis[r] < n + m:
            continue
        pivot_col = next(j for j in range(n + m) if _entry(block[r + 1], sets, scale, j))
        if _entry(block[r + 1], sets, scale, pivot_col) < 0:
            block[r + 1] = [-v for v in block[r + 1]]
        col = [_entry(row, sets, scale, pivot_col) for row in block]
        den = _pivot(block, den, col, r + 1)
        basis[r] = pivot_col

    # Phase 2: every set costs 1.
    costed = [block[i + 1] for i in range(m) if basis[i] < n]
    block[0] = [-sum([row[r] for row in costed]) for r in range(m + 1)]
    den = _pivot_until_optimal(block, den, basis, sets, scale, True)

    x = [Fraction(0)] * n
    total = 0
    for row, var in enumerate(basis, start=1):
        if var < n:
            x[var] = Fraction(block[row][m], den)
            total += block[row][m]
    # Row 0's entry for a row's unit column is den times minus its dual.
    y = tuple(Fraction(-v, den) for v in block[0][:m])
    return LPSolution(Fraction(total, den), tuple(x), y)
