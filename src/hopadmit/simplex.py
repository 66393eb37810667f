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
(fraction-free Gauss-Jordan pivoting). A set's tableau column is the sum
of its rows' block columns, and a row's surplus column is minus its block
column over the row's scale. Bland's rule picks entering and leaving
variables, as on the full tableau, which rules out cycling.

Each row's exact divisions are checked at once, raising ArithmeticError
otherwise: floor division by a positive divisor leaves remainders in
[0, divisor), so the quotients times the divisor sum to the exact row sum
only if every remainder is zero. A row with no entry in the pivot column
is only rescaled by piv / den, and skipped when piv == den.

Row 0 of the kept block holds den times the reduced cost of each row's
unit column, which at the optimum is minus that row's dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

Reader = Callable[[list[int]], Sequence[int]]


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


def _reader(s: Sequence[int]) -> Reader:
    """Set s's entries of a block row in one C-level call (a slice where
    itemgetter would return a bare value for one index or need at least one)."""
    if len(s) > 1:
        return itemgetter(*s)
    return itemgetter(slice(s[0], s[0] + 1) if s else slice(0))


def _column(
    rows: list[list[int]], readers: Sequence[Reader], scale: list[int], j: int
) -> list[int]:
    """Tableau column j over the given block rows: set j for j < n, else
    the surplus of row k = j - n, minus block column k over scale[k]."""
    n = len(readers)
    if j < n:
        read = readers[j]
        return [sum(read(row)) for row in rows]
    k, d = j - n, scale[j - n]
    col = [-row[k] // d for row in rows]
    if sum(col) * d != -sum([row[k] for row in rows]):
        raise ArithmeticError("surplus column has a non-integer entry")
    return col


def _pivot(block: list[list[int]], den: int, col: list[int], r: int) -> int:
    """Gauss-Jordan pivot on block row r, whose tableau column is col;
    returns the new common denominator."""
    piv = col[r]
    if piv <= 0:
        raise ArithmeticError("pivot element must be positive")
    row_r = block[r]
    sum_r = sum(row_r)
    for i, row in enumerate(block):
        f = col[i]
        if i == r or (not f and piv == den):
            continue
        if f:
            new = [(v * piv - f * w) // den for v, w in zip(row, row_r)]
        else:
            new = [v * piv // den for v in row]
        if sum(new) * den != piv * sum(row) - f * sum_r:
            raise ArithmeticError("fraction-free pivot produced a non-integer entry")
        block[i] = new
    return piv


def _pivot_until_optimal(
    block: list[list[int]], den: int, basis: list[int], readers: Sequence[Reader],
    scale: list[int], priced: bool,
) -> int:
    """Run Bland-rule pivots until no column improves the objective. Block
    row 0 holds den times the reduced costs (plus den per set when priced);
    basis[i] names the basic variable of block row i + 1."""
    while True:
        y = block[0]
        cost = den if priced else 0
        for enter, read in enumerate(readers):
            if sum(read(y)) + cost < 0:
                break
        else:
            # A surplus column's reduced cost is -y[i] / scale[i].
            enter = next((len(readers) + i for i, v in enumerate(y[:-1]) if v > 0), -1)
            if enter < 0:
                return den
            cost = 0
        col = _column(block, readers, scale, enter)
        col[0] += cost
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
    # Variables: n sets, one surplus per row, then one artificial per row,
    # which starts basic. block[i + 1] is row i + 1 of the tableau over the
    # rows' unit columns and the rhs.
    scale = [rhs.denominator for rhs in b]
    block = [[-d for d in scale] + [-sum(rhs.numerator for rhs in b)]]
    block += [[d if k == i else 0 for k in range(m)] + [rhs.numerator]
              for i, (d, rhs) in enumerate(zip(scale, b))]
    basis = [n + m + i for i in range(m)]
    readers = [_reader(s) for s in sets]

    # Phase 1: minimize the sum of artificials. Row 0 starts as minus the
    # sum of the rows, so a column's reduced cost is its negated entry sum.
    # Artificial columns never enter, so they need no column of their own.
    den = _pivot_until_optimal(block, 1, basis, readers, scale, False)

    if any(block[r + 1][m] != 0 for r in range(m) if basis[r] >= n + m):
        raise LPInfeasibleError("constraints have no nonnegative solution")

    # Drive leftover zero-level artificials out of the basis, entering the
    # first column with a nonzero entry in the row. If artificial n + m + s
    # is basic in a row, the surplus column n + s holds -den there, so the
    # search always succeeds and no row is redundant.
    for r in [r for r in range(m) if basis[r] >= n + m]:
        rows_r = [block[r + 1]]
        enter = next(j for j in range(n + m) if _column(rows_r, readers, scale, j)[0])
        col = _column(block, readers, scale, enter)
        if col[r + 1] < 0:
            block[r + 1] = [-v for v in block[r + 1]]
            col[r + 1] = -col[r + 1]
        den = _pivot(block, den, col, r + 1)
        basis[r] = enter

    # Phase 2: every set costs 1.
    costed = [block[i + 1] for i in range(m) if basis[i] < n]
    block[0] = [-sum([row[r] for row in costed]) for r in range(m + 1)]
    den = _pivot_until_optimal(block, den, basis, readers, scale, True)

    x = [Fraction(0)] * n
    total = 0
    for row, var in enumerate(basis, start=1):
        if var < n:
            x[var] = Fraction(block[row][m], den)
            total += block[row][m]
    # Row 0's entry for a row's unit column is den times minus its dual.
    y = tuple(Fraction(-v, den) for v in block[0][:m])
    return LPSolution(Fraction(total, den), tuple(x), y)
