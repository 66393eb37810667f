"""Calibration probe: a fixed slice of pure-Python work, timed.

The benchmark shares its machine with other jobs, which can slow it by
more than half for seconds at a time. A probe run between items measures
how fast the machine is right then, so item times can be scaled to a
machine on which the probe takes ``REFERENCE_S``. The probe does the kind
of work hopadmit spends most of its time on (fraction-free integer row
operations and Fraction sums), and is part of the benchmark, so a change
to hopadmit cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.003


def _work() -> int:
    # Fraction-free Gauss-Jordan elimination, as hopadmit's simplex pivots:
    # integer rows whose entries grow to dozens of digits.
    rows = [[(i * 13 + j * 7) % 17 - 8 for j in range(24)] for i in range(12)]
    den = 1
    for r in range(12):
        piv = rows[r][r] or 1
        if piv < 0:
            rows[r] = [-v for v in rows[r]]
            piv = -piv
        for i in range(12):
            if i != r:
                f = rows[i][r]
                rows[i] = [(v * piv - f * w) // den for v, w in zip(rows[i], rows[r])]
        den = piv
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    return sum(map(sum, rows)) % 97 + acc.denominator % 97


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds as they would read on the reference machine."""
    return seconds * REFERENCE_S / probe_s


def probe() -> float:
    """Seconds taken by one fixed slice of work."""
    start = time.perf_counter()
    for _ in range(4):
        _work()
    return time.perf_counter() - start
