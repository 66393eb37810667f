"""Exact covering LP via a revised dual simplex.

Solves: minimize sum(x) subject to sum(x[j] for every j with i in
sets[j]) >= b[i] for every row i, x >= 0. Column j is the 0/1 indicator of
the row-index tuple sets[j] and costs 1; b holds nonnegative Fractions.
This is the weighted fractional chromatic number LP over independent link
sets.

Every set costs 1 and b >= 0, so the basis of all surplus variables is
dual feasible: its duals are 0 and every reduced cost is 1 or 0. It is
only primal infeasible, each surplus being -b[i]. The dual simplex starts
there and needs no phase 1 and no artificial variables.

Each iteration prices the leaving row by steepest edge (Forrest and
Goldfarb, Math. Programming 1992): among the negative-rhs rows, the one
with the largest rhs**2 over the squared norm of its row of the inverse
basis, ties to the smallest basic variable. The entering column has a
negative entry in that row and the smallest ratio of reduced cost to
minus that entry, which keeps every reduced cost nonnegative; ties go to
the largest |entry|, then to the smallest index, sets before surplus
columns. A pivot whose entering reduced cost is 0 is degenerate: it
leaves the objective where it is, and runs of them could cycle. After
2 * m of them in a row, the dual Bland rule picks instead (the
negative-rhs row whose basic variable has the smallest index, ratio ties
to the smallest index) until a pivot raises the objective. Bland's rule
cannot cycle from any basis, so such a run ends; every other pivot
raises the objective strictly, and there are finitely many bases, so the
solver terminates. A negative-rhs row with no negative entry proves the
LP infeasible. The objective is bounded below by 0, so it is never
unbounded. The dense Fraction tableau in the tests follows this rule
pivot for pivot and returns the same solution.

Row i is scaled by b[i].denominator, so every entry is an integer. Every
row operation of a tableau simplex applies one linear map to all columns,
so each tableau column is that map times the column's scaled entries. The
solver keeps only the map composed with the scaling: one block column per
row, the tableau column of that row's unscaled unit vector, plus the rhs,
all as arbitrary-precision integers over one positive common denominator
(fraction-free Gauss-Jordan pivoting). A set's tableau column is the sum
of its rows' block columns, and a row's surplus column is minus its block
column over the row's scale. The leaving row is negated before the pivot,
so that the pivot element is positive.

Each row's exact divisions are checked at once, raising ArithmeticError
otherwise: floor division by a positive divisor leaves remainders in
[0, divisor), so the quotients times the divisor sum to the exact row sum
only if every remainder is zero. A row with no entry in the pivot column
is only rescaled by piv / den, and skipped when piv == den.

Row 0 of the kept block holds den times the reduced cost of each row's
unit column, which at the optimum is minus that row's dual. Up to sign,
block row r holds row r of the inverse basis of the unscaled LP and its
rhs, both times den and one factor of the row, which cancel in the
steepest-edge ratio: rhs**2 over the sum of squares of the row's unit
columns, compared by integer cross-multiplication and computed only when
more than one row is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Sequence

Reader = Callable[[list[int]], Sequence[int]]

# Consecutive degenerate pivots, per row, after which the dual Bland rule
# picks until the next nondegenerate pivot.
_DEGENERATE_RUN = 2


class LPInfeasibleError(RuntimeError):
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


def solve_min_ge(sets: Sequence[Sequence[int]], b: Sequence[Fraction]) -> LPSolution:
    """Minimize sum(x) subject to, for every row i, the sets holding i
    having total x >= b[i], x >= 0."""
    n, m = len(sets), len(b)
    # Variables: n sets, then one surplus per row, which starts basic.
    # block[i + 1] is row i negated, so that its surplus has coefficient 1,
    # over the rows' unit columns and the rhs; row 0 holds den times the
    # reduced costs of the unit columns, which cost 0.
    scale = [rhs.denominator for rhs in b]
    block = [[0] * (m + 1)]
    block += [[-d if k == i else 0 for k in range(m)] + [-rhs.numerator]
              for i, (d, rhs) in enumerate(zip(scale, b))]
    basis = [n + i for i in range(m)]
    readers = [_reader(s) for s in sets]
    den = 1
    run, limit = 0, _DEGENERATE_RUN * m  # degenerate pivots in a row
    while True:
        bland = run >= limit
        negative = [i for i in range(1, m + 1) if block[i][-1] < 0]
        if not negative:
            break
        r = negative[0]
        if bland:
            # Leaving row: the smallest basic variable.
            r = min(negative, key=lambda i: basis[i - 1])
        elif len(negative) > 1:
            # Leaving row: steepest edge, the largest rhs**2 over the
            # squared norm of the row's unit columns, by cross-multiplying,
            # ties to the smallest basic variable.
            row = block[r]
            rhs2 = row[-1] ** 2
            norm = sum(map(mul, row, row)) - rhs2
            for i in negative[1:]:
                row = block[i]
                t = row[-1] ** 2
                q = sum(map(mul, row, row)) - t
                d = t * norm - rhs2 * q
                if d > 0 or (not d and basis[i - 1] < basis[r - 1]):
                    r, rhs2, norm = i, t, q
        # Entering column: among those negative in row r, the smallest
        # ratio num / dnm of reduced cost to minus that entry. Both are den
        # times their value, so den cancels; in the surplus column of row k
        # both are also over scale[k], which cancels too, leaving
        # -top[k] / row[k]. Ties go to the largest |entry|, which is dnm
        # over one positive factor of row r for a set and for the surplus
        # of an unscaled row alike, then to the smallest index; under the
        # Bland rule, straight to the smallest index. Sets come before
        # surplus columns. num / dnm starts at 1 / 0, above every ratio.
        row, top = block[r], block[0]
        enter, num, dnm = -1, 1, 0
        for j, read in enumerate(readers):
            a = sum(read(row))
            if a < 0:
                cost = sum(read(top)) + den
                d = cost * dnm + num * a
                if d < 0 or (not d and not bland and a < -dnm):
                    enter, num, dnm = j, cost, -a
        for k, a in enumerate(row[:-1]):
            if a > 0:
                d = -top[k] * dnm - num * a
                if d < 0 or (not d and not bland and a > dnm):
                    enter, num, dnm = n + k, -top[k], a
        if enter < 0:
            raise LPInfeasibleError("constraints have no nonnegative solution")
        # Negate row r so that the pivot element is positive.
        block[r] = [-v for v in row]
        col = _column(block, readers, scale, enter)
        if enter < n:
            col[0] += den
        den = _pivot(block, den, col, r)
        basis[r - 1] = enter
        run = 0 if num else run + 1

    x = [Fraction(0)] * n
    total = 0
    for row, var in enumerate(basis, start=1):
        if var < n:
            x[var] = Fraction(block[row][m], den)
            total += block[row][m]
    # Row 0's entry for a row's unit column is den times minus its dual.
    # From a list, so the tuple is not resized (see graphs.induced_conflict).
    y = tuple([Fraction(-v, den) for v in block[0][:m]])
    return LPSolution(Fraction(total, den), tuple(x), y)
