"""Property test: the revised simplex follows the dense tableau exactly.

On small random LPs, minimize c.x subject to A x >= b, x >= 0, with
rational entries, negative rhs and duplicated rows, solve_min_ge returns
the same LPSolution as tableau_min_ge or raises the same error, and every
optimum carries a dual certificate: y >= 0, A^T y <= c and b.y = value.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import tableau_min_ge  # noqa: E402
from hopadmit.simplex import LPInfeasibleError, LPUnboundedError, solve_min_ge  # noqa: E402

entries = st.sampled_from((0, 0, 1, 1, 2, -1, Fraction(1, 2), Fraction(-2, 3)))
rationals = st.builds(Fraction, st.integers(-3, 6), st.integers(1, 3))


@st.composite
def lps(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        a.append(list(a[i]))
        b.append(b[i])
    return c, a, b


def _outcome(solver, c, a, b):
    try:
        return solver(c, a, b)
    except (LPInfeasibleError, LPUnboundedError) as exc:
        return type(exc)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(lps())
def test_revised_equals_tableau(lp):
    c, a, b = lp
    got = _outcome(solve_min_ge, c, a, b)
    assert got == _outcome(tableau_min_ge, c, a, b)
    if isinstance(got, type):
        return
    assert all(v >= 0 for v in got.y)
    for j, cj in enumerate(c):
        assert sum((Fraction(row[j]) * yi for row, yi in zip(a, got.y)), Fraction(0)) <= cj
    assert sum((Fraction(bi) * yi for bi, yi in zip(b, got.y)), Fraction(0)) == got.value
