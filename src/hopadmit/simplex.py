"""Exact rational linear programming via a revised two-phase primal simplex.

Solves: minimize c.x subject to A x >= b, x >= 0.

Every row operation of a tableau simplex applies one linear map to all
columns, so each tableau column is that map times the column's initial
entries. The solver keeps only the map: the tableau's columns of the
starting unit basis, one per constraint row, plus the rhs, all as
arbitrary-precision integers over one positive common denominator
(fraction-free Gauss-Jordan pivoting). Reduced costs and the entering
column are computed on demand from the sparse constraint columns; for 0/1
columns, such as the independent sets of the scheduling LP, that takes
only additions. The pivot sequence is the full tableau's: Bland's rule
picks entering and leaving variables, which rules out cycling. Every
exact division is checked; a nonzero remainder would mean the invariant
broke, and raises instead of silently corrupting results.

Row 0 of the kept block holds the scaled reduced costs of the starting
unit columns, from which the optimal dual vector is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class LPInfeasibleError(RuntimeError):
    pass


class LPUnboundedError(RuntimeError):
    pass


@dataclass(frozen=True)
class LPSolution:
    """Optimal primal x, dual y (one entry per row of A) and value.

    y >= 0, A^T y <= c and b.y = c.x = value.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


# A sparse column: the rows holding its nonzero entries, and their values,
# or None when every value is 1.
Column = tuple[tuple[int, ...], tuple[int, ...] | None]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free pivot produced a non-integer entry")
    return q


def _dot(row: list[int], column: Column) -> int:
    """Entry of the current tableau row (a block row) in a column."""
    rows, values = column
    if values is None:
        return sum([row[r] for r in rows])
    return sum([row[r] * v for r, v in zip(rows, values)])


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
    columns: list[Column],
    cost: list[int],
) -> int:
    """Run Bland-rule pivots until no column improves the objective.

    Block row 0 gives the (scaled) reduced costs den*cost_j + row0.a_j of a
    minimization problem; constraint rows follow, with basis[i] naming the
    basic variable of row i+1.
    """
    while True:
        y = block[0]
        enter = -1
        for j, column in enumerate(columns):
            reduced = _dot(y, column)
            if cost[j]:
                reduced += den * cost[j]
            if reduced < 0:
                enter = j
                break
        if enter < 0:
            return den
        col = [reduced] + [_dot(row, columns[enter]) for row in block[1:]]
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


def solve_min_ge(c: Sequence, a_matrix: Sequence[Sequence], b: Sequence) -> LPSolution:
    """Minimize c.x subject to A x >= b, x >= 0."""
    cf = [Fraction(v) for v in c]
    bf = [Fraction(v) for v in b]
    rows = [[v if type(v) is int else Fraction(v) for v in row] for row in a_matrix]
    n, m = len(cf), len(rows)
    if len(bf) != m or any(len(row) != n for row in rows):
        raise ValueError("inconsistent LP dimensions")
    if m == 0:
        return LPSolution(Fraction(0), tuple(Fraction(0) for _ in range(n)), ())

    # Variables: n structural, then one per row. Each row is scaled to
    # integers. A row with nonnegative rhs keeps its sense, gets a surplus
    # variable, and starts from an artificial; a row with negative rhs is
    # negated into <= form, whose slack variable is feasible at the start.
    # The starting basic column of row i is the i-th unit column, and
    # block[i + 1] is row i + 1 of the tableau restricted to those columns
    # and the rhs.
    scale = [lcm(rhs.denominator, *(v.denominator for v in row)) for row, rhs in zip(rows, bf)]
    sign = [-1 if rhs < 0 else 1 for rhs in bf]
    entries: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    block: list[list[int]] = [[0] * (m + 1)]
    for i, row in enumerate(rows):
        factor = sign[i] * scale[i]
        for j, v in enumerate(row):
            if v:
                entries[j].append((i, int(v * factor)))
        unit = [0] * (m + 1)
        unit[i] = 1
        unit[m] = int(bf[i] * factor)
        block.append(unit)
    columns: list[Column] = []
    for col_entries in entries:
        idx = tuple(i for i, _ in col_entries)
        values = tuple(v for _, v in col_entries)
        columns.append((idx, None if all(v == 1 for v in values) else values))
    columns += [((i,), (-sign[i],)) for i in range(m)]
    basis = [n + i if sign[i] < 0 else n + m + i for i in range(m)]

    # Phase 1: minimize the sum of artificials. Row 0 starts as minus the
    # sum of the artificial-basic rows, so a column's reduced cost is its
    # negated entry sum over those rows. Artificial columns never enter, so
    # they need no column of their own.
    no_cost = [0] * (n + m)
    art_rows = [i for i in range(m) if sign[i] > 0]
    den = 1
    if art_rows:
        for i in art_rows:
            block[0][i] = -1
        block[0][m] = -sum(block[i + 1][m] for i in art_rows)
        den = _pivot_until_optimal(block, 1, basis, columns, no_cost)

    if any(block[r + 1][m] != 0 for r in range(m) if basis[r] >= n + m):
        raise LPInfeasibleError("constraints have no nonnegative solution")

    # Drive leftover zero-level artificials out of the basis, entering the
    # first column with a nonzero entry in the row. If artificial n + m + s
    # is basic in a row, the surplus column n + s holds -den there, so the
    # search always succeeds and no row is redundant.
    for r in range(m):
        if basis[r] < n + m:
            continue
        pivot_col = next(j for j in range(n + m) if _dot(block[r + 1], columns[j]))
        if _dot(block[r + 1], columns[pivot_col]) < 0:
            block[r + 1] = [-v for v in block[r + 1]]
        col = [_dot(row, columns[pivot_col]) for row in block]
        den = _pivot(block, den, col, r + 1)
        basis[r] = pivot_col

    # Phase 2: true objective.
    lc = lcm(*(v.denominator for v in cf)) if cf else 1
    cost = [int(v * lc) for v in cf] + [0] * m
    block[0] = [
        -sum(cost[basis[i]] * block[i + 1][r] for i in range(m)) for r in range(m + 1)
    ]
    den = _pivot_until_optimal(block, den, basis, columns, cost)

    x = [Fraction(0)] * n
    for row, var in enumerate(basis, start=1):
        if var < n:
            x[var] = Fraction(block[row][m], den)
    value = sum((cj * xj for cj, xj in zip(cf, x)), Fraction(0))
    # Optimality makes every reduced cost den*cost_j + row0.a_j nonnegative
    # on the scaled, sign-adjusted rows; undoing the scaling and the
    # negation gives the dual of the original rows.
    y = tuple(
        Fraction(-block[0][i] * sign[i] * scale[i], den * lc) for i in range(m)
    )
    return LPSolution(value, tuple(x), y)
