"""Property tests: the revised simplex follows the dense dual tableau
exactly, reaches the two-phase primal tableau's optimal value, and pivots
as it would with the per-entry reference pivot.

On small random covering LPs, minimize sum(x) subject to every row i being
covered at least b[i] by the sets holding it, x >= 0, with rational and
zero demands, duplicated sets and duplicated rows, solve_min_ge returns
the same LPSolution as the dense dual tableau or raises the same error,
the primal tableau finds the same value or the same error, and every
optimum is a feasible x with at most one positive set per row and carries
a dual certificate: y >= 0, no set's rows sum to more than 1 under y, and
b.y = value.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import (  # noqa: E402
    dual_tableau_covering,
    pivot_trace,
    reference_pivot,
    tableau_covering,
)
from hopadmit.simplex import LPInfeasibleError, solve_min_ge  # noqa: E402

demands = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))


@st.composite
def covering_lps(draw):
    m = draw(st.integers(1, 5))
    row_sets = st.lists(st.integers(0, m - 1), max_size=m).map(lambda s: tuple(sorted(set(s))))
    sets = draw(st.lists(row_sets, min_size=1, max_size=6))
    for j in draw(st.lists(st.integers(0, len(sets) - 1), max_size=2)):
        sets.append(sets[j])
    b = draw(st.lists(demands, min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        sets = [s + (len(b),) if i in s else s for s in sets]
        b.append(b[i])
    return sets, b


def _outcome(solver, sets, b):
    try:
        return solver(sets, b)
    except LPInfeasibleError as exc:
        return type(exc)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(covering_lps())
def test_revised_equals_tableau(lp):
    sets, b = lp
    got = _outcome(solve_min_ge, sets, b)
    assert got == _outcome(dual_tableau_covering, sets, b)
    primal = _outcome(tableau_covering, sets, b)
    if isinstance(got, type):
        assert primal == got
        return
    assert primal.value == got.value
    assert all(v >= 0 for v in got.x)
    assert sum(got.x, Fraction(0)) == got.value
    assert sum(1 for v in got.x if v > 0) <= len(b)
    for i, need in enumerate(b):
        assert sum((v for s, v in zip(sets, got.x) if i in s), Fraction(0)) >= need
    assert all(v >= 0 for v in got.y)
    for s in sets:
        assert sum((got.y[i] for i in s), Fraction(0)) <= 1
    assert sum((bi * yi for bi, yi in zip(b, got.y)), Fraction(0)) == got.value


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(covering_lps())
def test_pivot_sequence_equals_reference_pivot(lp):
    sets, b = lp
    assert pivot_trace(sets, b) == pivot_trace(sets, b, reference_pivot)
