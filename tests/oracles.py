"""Independent brute-force reference implementations.

Everything here recomputes results from first principles (subset scans,
Gaussian elimination, memoized search, dense primal and dual tableau
simplex solvers) without touching the package's solvers, so agreement is
meaningful evidence of correctness. Two exceptions wrap the package:
pivot_trace records the package simplex's pivots so tests can compare
them with reference_pivot's, and canonical_json joins the chunks of the
package's JSON writer so tests can compare them with json.dumps.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

from hopadmit import qstab, simplex
from hopadmit.chordal import mcs_order
from hopadmit.analysis import (
    admission_threshold,
    check_sample_count,
    local_estimate,
    local_views,
)
from hopadmit.errors import GraphError, ResourceLimitError
from hopadmit.graphs import (
    NetworkGraph,
    conflict_graph,
    induced_conflict,
    one_hop_subgraph,
)
from hopadmit.invariants import max_interfering_matching
from hopadmit.jsonio import write_json
from hopadmit.scheduling import fractional_chromatic, weighted_clique_number
from hopadmit.search import DEFAULT_SET_CAP, exact_set_cover, maximal_cliques
from hopadmit.simplex import LPInfeasibleError, LPSolution
from hopadmit.simulate import _classify, run_admission, sample_demands


class LPUnboundedError(RuntimeError):
    """Raised by the dense tableau solvers below when the objective is
    unbounded; the package's covering LP is bounded below by 0."""


# ---------------------------------------------------------------------------
# Index-graph subset scans. Graphs appear as (n, adj) with adj a sequence of
# neighbor index sets.


def brute_maximal_independent_sets(n, adj):
    found = set()
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(j in adj[i] for i in members for j in members if j > i):
            continue
        mset = set(members)
        grows = any(
            v not in mset and all(v not in adj[i] for i in members)
            for v in range(n)
        )
        if not grows:
            found.add(frozenset(members))
    return found


def brute_maximal_cliques(n, adj):
    found = set()
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if not members:
            continue
        if any(j not in adj[i] for i in members for j in members if j > i):
            continue
        mset = set(members)
        grows = any(
            v not in mset and all(v in adj[i] for i in members)
            for v in range(n)
        )
        if not grows:
            found.add(frozenset(members))
    return found


def scan_clique_pivot(p, x, adj):
    """Bron-Kerbosch pivot by a full scan: the first vertex of p | x, in
    ascending order, with the most neighbours in p."""
    pivot = -1
    best = -1
    for u in sorted(p | x):
        score = len(p & adj[u])
        if score > best:
            best = score
            pivot = u
    return pivot


def scan_maximal_cliques(n, adj, cap=DEFAULT_SET_CAP):
    """search.maximal_cliques with the full-scan pivot: the same recursion
    order, output and cap error."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            if len(out) >= cap:
                raise ResourceLimitError(f"maximal set enumeration exceeded cap of {cap}")
            out.append(tuple(sorted(r)))
            return
        for v in sorted(p - adj[scan_clique_pivot(p, x, adj)]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(n)), set())
    return sorted(out)


def brute_heaviest_clique(n, adj, weights):
    """Largest total weight of a clique, 0 with no vertex, by growing every
    clique in increasing vertex order."""

    def grow(total, cand):
        return max([total] + [grow(total + weights[v], {u for u in cand & adj[v] if u > v}) for v in cand])

    return grow(0, set(range(n)))


def elimination(n, adj):
    """(vertex, later neighbors) pairs along the reversed MCS order, or None
    when that order is not a perfect elimination ordering: the first of the
    two passes that chordal.peo_cliques does in one.

    Each vertex's later neighbors must all be adjacent to the earliest of
    them (the single-representative test).
    """
    order = mcs_order(n, adj)
    order.reverse()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    remaining = set(range(n))
    out = []
    for v in order:
        remaining.discard(v)
        later = adj[v] & remaining
        if later:
            first = min(later, key=pos.__getitem__)
            if len(later - adj[first]) != 1:
                return None
        out.append((v, later))
    return tuple(out)


def elimination_maximal_cliques(elim):
    """The maximal cliques of a chordal graph from its elimination: the
    second pass, which finds each earliest later neighbor again.

    Each is a vertex plus its later neighbors. The clique of v lies inside
    another exactly when some u has v as its earliest later neighbor and
    one later neighbor more than v: later(u) minus v lies in later(v),
    because later(u) is a clique, so then later(u) is v plus later(v).
    """
    pos = [0] * len(elim)
    for i, (v, _) in enumerate(elim):
        pos[v] = i
    covered = set()
    for _, later in elim:
        if later:
            v, later_v = elim[min(map(pos.__getitem__, later))]
            if len(later) == len(later_v) + 1:
                covered.add(v)
    return [(v, *later) for v, later in elim if v not in covered]


def heaviest_clique_sum(elimination, scaled):
    """Heaviest clique of a chordal graph in integer weights, given its
    elimination ordering as (vertex, later neighbors) pairs (as from
    `elimination` above): the walk the package priced chordal graphs by
    before it read maximal cliques.

    Every maximal clique is a vertex plus its later neighbors, and a vertex
    of weight 0 can be skipped: its later neighbors lie in the clique of
    the earliest of them.
    """
    return max(
        (scaled[v] + sum([scaled[u] for u in later]) for v, later in elimination if scaled[v]),
        default=0,
    )


def brute_max_clique_size(n, adj):
    return max((len(c) for c in brute_maximal_cliques(n, adj)), default=0)


def brute_is_chordal(n, adj):
    """True iff no vertex subset induces a cycle of length >= 4."""
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) < 4:
            continue
        if any(len(adj[v] & set(members)) != 2 for v in members):
            continue
        seen = {members[0]}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for w in adj[u] & set(members):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(members):
            return False
    return True


def complement_adjacency(n, adj):
    """Neighbor sets of the complement graph."""
    return tuple(frozenset(u for u in range(n) if u != v and u not in adj[v]) for v in range(n))


def brute_is_co_chordal(n, adj):
    """True iff the complement has no induced cycle of length >= 4."""
    return brute_is_chordal(n, complement_adjacency(n, adj))


def clique_reader_reference(n, adj):
    """(kind, cliques) for the cliques ConflictGraph.clique_readers should
    read, by subset scans. kind is "chordal" or "co-chordal" when there
    are readers, and cliques is then the set of maximal cliques (as
    frozensets); otherwise cliques is None and kind says why: "neither"
    chordal nor co-chordal, "gate" when the complement has more edges than
    the graph, or "cap" when the cliques number more than n(n - 1) / w,
    w the size of the largest one."""
    if brute_is_chordal(n, adj):
        return "chordal", brute_maximal_cliques(n, adj)
    if not brute_is_co_chordal(n, adj):
        return "neither", None
    edges = sum(len(a) for a in adj) // 2
    if n * (n - 1) // 2 - edges > edges:
        return "gate", None
    cliques = brute_maximal_cliques(n, adj)
    if len(cliques) * max(len(c) for c in cliques) > n * (n - 1):
        return "cap", None
    return "co-chordal", cliques


def lambda_scan_mcs_order(n, adj):
    """Maximum cardinality search by a full scan per step (ties to the
    smallest index), the order that mcs_order's score list must match."""
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (i for i in range(n) if not visited[i]),
            key=lambda i: (weight[i], -i),
        )
        visited[v] = True
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                weight[w] += 1
    return order


def verify_peo(n, adj, order):
    """Direct definition: later neighbors of each vertex form a clique."""
    if sorted(order) != list(range(n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        if any(b not in adj[a] for a in later for b in later if a != b):
            return False
    return True


def verify_hole(n, adj, cycle):
    """Chordless cycle of length >= 4, exactly as listed."""
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m:
        return False
    for i in range(m):
        for j in range(i + 1, m):
            consecutive = j - i == 1 or (i == 0 and j == m - 1)
            if consecutive != (cycle[j] in adj[cycle[i]]):
                return False
    return True


def without_links(gc, drop):
    """Conflict graph induced by every link of gc except those in drop."""
    gone = set(drop)
    assert gone <= set(gc.links), "only links of the conflict graph can be dropped"
    keep = [i for i, link in enumerate(gc.links) if link not in gone]
    pos = {old: new for new, old in enumerate(keep)}
    adj = tuple(frozenset(pos[j] for j in gc.adj[i] if j in pos) for i in keep)
    return type(gc)(tuple(gc.links[i] for i in keep), adj, gc.k)


# ---------------------------------------------------------------------------
# Network-graph measures recomputed from the raw vertex/edge data.


def _name_adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bfs(adj, sources):
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brute_link_distance(g, e, f):
    if e == f or set(e) & set(f):
        return 0
    adj = _name_adjacency(g.vertices, g.links)
    dist = _bfs(adj, e)
    hits = [dist[x] for x in f if x in dist]
    return min(hits) if hits else float("inf")


def brute_conflict_pairs(g, k):
    """Set of frozenset link pairs whose link distance is below k."""
    out = set()
    for e, f in itertools.combinations(g.links, 2):
        if brute_link_distance(g, e, f) < k:
            out.add(frozenset((e, f)))
    return out


def brute_interfering_matching(g):
    """Max size of a link set pairwise at distance exactly one."""
    links = g.links
    m = len(links)
    dist = {}
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = brute_link_distance(g, links[i], links[j])
    best = 0
    for mask in range(1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        if all(dist[i, j] == 1 for i, j in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return best


def brute_set_cover_size(universe, sets):
    """Size of a smallest subfamily of sets covering range(universe), by
    trying every subfamily in order of size."""
    full = set(range(universe))
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(sets, size):
            if full <= set().union(*combo):
                return size
    raise ValueError("sets do not cover the universe")


def brute_cover_number(g):
    """Independent recomputation of the neighborhood cover number."""
    links = g.links
    m = len(links)
    if m == 0:
        return 0
    conflicts = brute_conflict_pairs(g, 2)
    adj = tuple(
        frozenset(
            j for j in range(m)
            if j != i and frozenset((links[i], links[j])) in conflicts
        )
        for i in range(m)
    )
    name_adj = _name_adjacency(g.vertices, g.links)
    covered_by = {}
    for v in g.vertices:
        keep = {v} | name_adj[v]
        covered_by[v] = {
            i for i in range(m) if links[i][0] in keep and links[i][1] in keep
        }
    worst = 0
    for clique in brute_maximal_cliques(m, adj):
        best = None
        for size in range(1, len(g.vertices) + 1):
            for combo in itertools.combinations(g.vertices, size):
                union = set()
                for v in combo:
                    union |= covered_by[v]
                if clique <= union:
                    best = size
                    break
            if best is not None:
                break
        worst = max(worst, best)
    return worst


# ---------------------------------------------------------------------------
# Exact LP optimum by basic-point enumeration (Gaussian elimination over
# rationals). Usable for small instances only; independent of the simplex.


def solve_square(rows, rhs):
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(rhs[i])]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        div = aug[col][col]
        aug[col] = [x / div for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def brute_lp(n_vars, constraints, objective, maximize):
    """Optimum of c.x over {x >= 0} cut by (coeffs, rhs, sense) rows.

    Enumerates every basic point, so the feasible region must be bounded
    (or the objective bounded towards the optimization direction). Returns
    None when no feasible basic point exists.
    """
    rows = [
        ([Fraction(c) for c in coeffs], Fraction(rhs), sense)
        for coeffs, rhs, sense in constraints
    ]
    for i in range(n_vars):
        unit = [Fraction(0)] * n_vars
        unit[i] = Fraction(1)
        rows.append((unit, Fraction(0), ">="))
    best = None
    for chosen in itertools.combinations(range(len(rows)), n_vars):
        x = solve_square([rows[i][0] for i in chosen], [rows[i][1] for i in chosen])
        if x is None or any(v < 0 for v in x):
            continue
        ok = True
        for coeffs, rhs, sense in rows:
            total = sum(c * v for c, v in zip(coeffs, x))
            if (sense == ">=" and total < rhs) or (sense == "<=" and total > rhs):
                ok = False
                break
        if not ok:
            continue
        value = sum(c * v for c, v in zip(objective, x))
        if best is None or (value > best if maximize else value < best):
            best = value
    return best


# ---------------------------------------------------------------------------
# Dense tableau simplex solvers. dual_tableau_covering is the full-tableau
# form of the package's revised dual simplex, pivot for pivot, in Fraction
# rows: on the covering LP it must return the same LPSolution, or raise the
# same error, as hopadmit.simplex.solve_min_ge; bland_tableau_covering is
# the same tableau under the dual Bland rule alone. tableau_min_ge is a
# two-phase primal simplex under Bland's rule (fraction-free integer rows
# over one common denominator), a second solver that reaches the same
# optimal value by another path; solve_max_le is the packing form the
# duality tests use.


def _exact_div(num, den):
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free pivot produced a non-integer entry")
    return q


def reference_pivot(block, den, col, r):
    """Fraction-free Gauss-Jordan pivot on row r of block, whose pivot
    column is col, checking every division on its own; returns the new
    common denominator. Same signature and result as
    hopadmit.simplex._pivot, which checks each row once."""
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


def pivot_trace(sets, b, pivot=None):
    """(leaving block row, pivot element) of each pivot solve_min_ge(sets,
    b) makes, and its outcome: the LPSolution or the LP error's type. With
    pivot given, the solver pivots with it instead of simplex._pivot."""
    use = pivot or simplex._pivot
    trace = []

    def recording(block, den, col, r):
        trace.append((r, col[r]))
        return use(block, den, col, r)

    with mock.patch.object(simplex, "_pivot", recording):
        try:
            return trace, simplex.solve_min_ge(sets, b)
        except LPInfeasibleError as exc:
            return trace, type(exc)


def _tableau_until_optimal(tableau, den, basis, allowed):
    while True:
        enter = next((j for j in allowed if tableau[0][j] < 0), -1)
        if enter < 0:
            return den
        leave = -1
        for i in range(1, len(tableau)):
            a = tableau[i][enter]
            if a <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            lhs = tableau[i][-1] * tableau[leave][enter]
            rhs = tableau[leave][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i - 1] < basis[leave - 1]):
                leave = i
        if leave < 0:
            raise LPUnboundedError("objective is unbounded")
        den = reference_pivot(tableau, den, [row[enter] for row in tableau], leave)
        basis[leave - 1] = enter


def _scaled_rows(c, a_matrix, b):
    cf = [Fraction(v) for v in c]
    bf = [Fraction(v) for v in b]
    rows = [[Fraction(v) for v in row] for row in a_matrix]
    if len(bf) != len(rows) or any(len(row) != len(cf) for row in rows):
        raise ValueError("inconsistent LP dimensions")
    scales = [lcm(rhs.denominator, *(v.denominator for v in row)) for row, rhs in zip(rows, bf)]
    scaled = [
        [int(v * s) for v in row] + [int(rhs * s)] for row, rhs, s in zip(rows, bf, scales)
    ]
    return cf, scaled, scales


def _primal(cf, basis, tableau, den):
    x = [Fraction(0)] * len(cf)
    for row, var in enumerate(basis, start=1):
        if var < len(cf):
            x[var] = Fraction(tableau[row][-1], den)
    return sum((a * b for a, b in zip(cf, x)), Fraction(0)), tuple(x)


def tableau_min_ge(c, a_matrix, b):
    """Minimize c.x subject to A x >= b, x >= 0, on the full tableau."""
    cf, scaled, scales = _scaled_rows(c, a_matrix, b)
    n, m = len(cf), len(scaled)
    if m == 0:
        return LPSolution(Fraction(0), tuple(Fraction(0) for _ in range(n)), ())
    # Columns: n structural, m surplus (or slack for rows negated because
    # their rhs is negative), m artificial, rhs.
    width = n + 2 * m + 1
    tableau = [[0] * width]
    basis, signs = [], []
    for i, srow in enumerate(scaled):
        sign = -1 if srow[-1] < 0 else 1
        row = [sign * v for v in srow[:-1]] + [0] * (2 * m) + [sign * srow[-1]]
        row[n + i] = -sign
        if sign > 0:
            row[n + m + i] = 1
        basis.append(n + i if sign < 0 else n + m + i)
        signs.append(sign)
        tableau.append(row)
    art_rows = [i + 1 for i in range(m) if basis[i] >= n + m]
    den = 1
    if art_rows:
        for j in range(n + m):
            tableau[0][j] = -sum(tableau[i][j] for i in art_rows)
        tableau[0][-1] = -sum(tableau[i][-1] for i in art_rows)
        den = _tableau_until_optimal(tableau, 1, basis, range(n + m))
    if any(tableau[r + 1][-1] != 0 for r in range(m) if basis[r] >= n + m):
        raise LPInfeasibleError("constraints have no nonnegative solution")
    drop = []
    for r in range(m):
        if basis[r] < n + m:
            continue
        pivot_col = next((j for j in range(n + m) if tableau[r + 1][j] != 0), -1)
        if pivot_col < 0:
            drop.append(r)
            continue
        if tableau[r + 1][pivot_col] < 0:
            tableau[r + 1] = [-v for v in tableau[r + 1]]
        den = reference_pivot(tableau, den, [row[pivot_col] for row in tableau], r + 1)
        basis[r] = pivot_col
    for r in reversed(drop):
        del tableau[r + 1]
        del basis[r]
    lc = lcm(*(v.denominator for v in cf)) if cf else 1
    cost = [int(v * lc) for v in cf] + [0] * (2 * m)
    for j in range(width - 1):
        tableau[0][j] = den * cost[j] - sum(
            cost[basis[i]] * tableau[i + 1][j] for i in range(len(basis))
        )
    tableau[0][-1] = -sum(cost[basis[i]] * tableau[i + 1][-1] for i in range(len(basis)))
    den = _tableau_until_optimal(tableau, den, basis, range(n + m))
    value, x = _primal(cf, basis, tableau, den)
    # Reduced costs of the starting unit columns carry the duals.
    y = tuple(
        Fraction(
            -tableau[0][n + m + i if signs[i] > 0 else n + i] * signs[i] * scales[i],
            den * lc,
        )
        for i in range(m)
    )
    return LPSolution(value, x, y)


def covering_matrix(sets, m):
    """Dense 0/1 rows of the covering LP over m rows: row i holds a 1 in
    column j exactly when i is in sets[j]."""
    return [[1 if i in s else 0 for s in sets] for i in range(m)]


def dual_tableau_covering(sets, b, degenerate_run=2):
    """solve_min_ge(sets, b) on a dense Fraction tableau: the dual simplex
    from the basis of all surplus variables, under the same rule. The
    leaving row has a negative rhs and the largest rhs**2 over the squared
    norm of its row of the inverse basis, ties to the smallest basic
    variable; the entering column has a negative entry there and the
    smallest ratio of reduced cost to minus that entry, ties to the largest
    |entry|, then to the smallest index, sets (0..n-1) before surplus
    columns (n..n+m-1). From degenerate_run * m consecutive pivots that
    enter a zero reduced cost until the next one that does not, the dual
    Bland rule picks instead: the smallest basic variable, and ties of the
    ratio to the smallest index."""
    n, m = len(sets), len(b)
    matrix = covering_matrix(sets, m)
    # Row i, negated: s_i - sum over sets j of a_ij x_j = -b_i.
    rows = [
        [Fraction(-v) for v in matrix[i]]
        + [Fraction(int(k == i)) for k in range(m)]
        + [-Fraction(b[i])]
        for i in range(m)
    ]
    cost = [Fraction(1)] * n + [Fraction(0)] * m
    basis = list(range(n, n + m))
    run = 0
    while True:
        infeasible = [i for i in range(m) if rows[i][-1] < 0]
        if not infeasible:
            break
        bland = run >= degenerate_run * m
        if bland:
            r = min(infeasible, key=lambda i: basis[i])
        else:
            # The surplus columns hold the inverse basis, row by row.
            r = max(
                infeasible,
                key=lambda i: (
                    rows[i][-1] ** 2 / sum(v * v for v in rows[i][n:n + m]),
                    -basis[i],
                ),
            )
        negative = [j for j in range(n + m) if rows[r][j] < 0]
        if not negative:
            raise LPInfeasibleError("constraints have no nonnegative solution")
        if bland:
            enter = min(negative, key=lambda j: (cost[j] / -rows[r][j], j))
        else:
            enter = min(negative, key=lambda j: (cost[j] / -rows[r][j], rows[r][j], j))
        run = 0 if cost[enter] else run + 1
        piv = rows[r][enter]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            f = rows[i][enter]
            if i != r and f:
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, rows[r])]
        basis[r] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    # With the rows negated, a surplus column's reduced cost is its row's
    # dual for the covering constraint.
    return LPSolution(sum(x, Fraction(0)), tuple(x), tuple(cost[n:]))


def bland_tableau_covering(sets, b):
    """dual_tableau_covering under the dual Bland rule alone: the leaving
    row has the smallest basic variable, and ratio ties go to the smallest
    index. solve_min_ge pivots this way when its degenerate-run limit is
    0."""
    return dual_tableau_covering(sets, b, degenerate_run=0)


def tableau_covering(sets, b):
    """tableau_min_ge on the covering LP that solve_min_ge(sets, b) solves:
    every set costs 1. It pivots by the primal Bland rule, so its optimum
    has the same value but may be another basis."""
    return tableau_min_ge([1] * len(sets), covering_matrix(sets, len(b)), b)


def solve_max_le(c, a_matrix, b):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0 entrywise."""
    cf, scaled, scales = _scaled_rows(c, a_matrix, b)
    n, m = len(cf), len(scaled)
    if any(srow[-1] < 0 for srow in scaled):
        raise ValueError("rhs must be nonnegative")
    if m == 0:
        if any(v > 0 for v in cf):
            raise LPUnboundedError("objective is unbounded")
        return LPSolution(Fraction(0), tuple(Fraction(0) for _ in range(n)), ())
    lc = lcm(*(v.denominator for v in cf)) if cf else 1
    tableau = [[-int(v * lc) for v in cf] + [0] * (m + 1)]
    for i, srow in enumerate(scaled):
        row = srow[:-1] + [0] * m + [srow[-1]]
        row[n + i] = 1
        tableau.append(row)
    basis = list(range(n, n + m))
    den = _tableau_until_optimal(tableau, 1, basis, range(n + m))
    value, x = _primal(cf, basis, tableau, den)
    y = tuple(Fraction(tableau[0][n + i] * scales[i], den * lc) for i in range(m))
    return LPSolution(value, x, y)


def brute_chif(n, adj, weights):
    """Weighted fractional chromatic number via the dual LP.

    Maximizes weights.y over the polytope {y >= 0, y(S) <= 1 for every
    maximal independent set S}; equals the primal covering optimum by
    strong duality. Independent sets come from the subset scan above.
    """
    support = [i for i in range(n) if weights[i]]
    if not support:
        return Fraction(0)
    sets = brute_maximal_independent_sets(n, adj)
    constraints = [
        ([1 if i in s else 0 for i in range(n)], 1, "<=") for s in sorted(sets, key=sorted)
    ]
    return brute_lp(n, constraints, [Fraction(w) for w in weights], maximize=True)


def tableau_chif(n, adj, weights):
    """Weighted fractional chromatic number as the primal covering LP over
    the subset scan's maximal independent sets, solved on the dense
    tableau (tableau_min_ge)."""
    if not any(weights):
        return Fraction(0)
    sets = sorted(brute_maximal_independent_sets(n, adj), key=sorted)
    return tableau_covering(sets, [Fraction(w) for w in weights]).value


# ---------------------------------------------------------------------------
# Exact integral multi-coloring: minimum number of unit slots, each an
# independent set, covering an integer demand per vertex.


def brute_multicolor(n, adj, demand):
    """Fewest independent-set slots covering demand (ints), exactly.

    Only maximal sets are branched on; enlarging a slot never uncovers
    anything. Memoized on the remaining demand vector.
    """
    sets = sorted(brute_maximal_independent_sets(n, adj), key=sorted)
    memo = {}

    def solve(rem):
        if not any(rem):
            return 0
        if rem in memo:
            return memo[rem]
        positive = {v for v in range(n) if rem[v]}
        for s in sets:
            if positive <= s:
                memo[rem] = max(rem)
                return memo[rem]
        target = max(positive, key=lambda v: (rem[v], -v))
        best = None
        for s in sets:
            if target not in s:
                continue
            nxt = tuple(
                rem[v] - 1 if v in s and rem[v] else rem[v] for v in range(n)
            )
            val = 1 + solve(nxt)
            if best is None or val < best:
                best = val
        memo[rem] = best
        return best

    return solve(tuple(int(d) for d in demand))


# ---------------------------------------------------------------------------
# The straightforward forms of the polytope enumeration and the hole
# search: a double description step that recomputes every tight set by
# dense dot products and tests adjacency by scanning the other rays, and a
# cycle search on nested generators. The package's forms must give the
# same outputs in the same order and hit their caps at the same point.
# priced_polytope_witness prices every vertex of the reference enumeration
# with the package's fractional_chromatic.


def reference_qstab_vertices(n, cliques):
    """qstab.qstab_vertices with dense tight sets and a scan adjacency test."""
    covered = set()
    for q in cliques:
        covered.update(q)
    if covered != set(range(n)):
        raise ValueError("cliques must cover every coordinate")

    constraints = [tuple([1] + [0] * n)]
    for i in range(n):
        row = [0] * (n + 1)
        row[i + 1] = 1
        constraints.append(tuple(row))
    for q in sorted(tuple(sorted(set(c))) for c in cliques):
        row = [1] + [0] * n
        for i in q:
            row[i + 1] = -1
        constraints.append(tuple(row))

    rays = []
    for i in range(n + 1):
        unit = [0] * (n + 1)
        unit[i] = 1
        rays.append(tuple(unit))

    def dot(a, r):
        return sum(x * y for x, y in zip(a, r))

    def tight_mask(r, upto):
        mask = 0
        for idx in range(upto):
            if dot(constraints[idx], r) == 0:
                mask |= 1 << idx
        return mask

    def reduce(vec):
        g = 0
        for v in vec:
            g = gcd(g, v)
        return vec if g in (0, 1) else tuple(v // g for v in vec)

    for step in range(n + 1, len(constraints)):
        a = constraints[step]
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            continue
        masks = [tight_mask(r, step) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        fresh = []
        for ip in plus:
            for im in minus:
                common = masks[ip] & masks[im]
                if any(
                    masks[io] & common == common
                    for io in range(len(rays))
                    if io not in (ip, im)
                ):
                    continue
                fresh.append(reduce(tuple(
                    vals[ip] * rm - vals[im] * rp
                    for rp, rm in zip(rays[ip], rays[im])
                )))
        rays = keep + fresh
        if len(rays) > qstab.DEFAULT_RAY_CAP:
            raise ResourceLimitError(
                f"double description ray count exceeded cap of {qstab.DEFAULT_RAY_CAP}"
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


def generator_induced_cycles(n, adj, length, cap=DEFAULT_SET_CAP):
    """search.iter_induced_cycles on nested generators, one per path
    vertex, scanning the path for chords at each extension."""
    if length < 3 or n < length:
        return
    budget = [cap]

    def extend(path, used):
        last = path[-1]
        if len(path) == length:
            if path[0] in adj[last] and path[1] < path[-1]:
                yield tuple(path)
            return
        closing_next = len(path) + 1 == length
        for w in sorted(adj[last]):
            if w <= path[0] or w in used:
                continue
            if any(w in adj[p] for p in path[1:-1]):
                continue
            if len(path) >= 2 and not closing_next and path[0] in adj[w]:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimitError(f"cycle search exceeded cap of {cap} extensions")
            path.append(w)
            used.add(w)
            yield from extend(path, used)
            path.pop()
            used.remove(w)

    for start in range(n):
        yield from extend([start], {start})


def priced_polytope_witness(comp):
    """invariants._enumerate_polytope pricing every nonzero vertex of the
    reference enumeration, integral ones included."""
    m = len(comp.links)
    best = Fraction(1)
    witness = {}
    for vertex in reference_qstab_vertices(m, maximal_cliques(m, comp.adj)):
        tau = {comp.links[i]: x for i, x in enumerate(vertex) if x > 0}
        if not tau:
            continue
        value = fractional_chromatic(comp, tau)
        if value > best:
            best = value
            witness = tau
    if witness:
        scale = Fraction(
            lcm(*(x.denominator for x in witness.values())),
            gcd(*(x.numerator for x in witness.values())),
        )
        witness = {link: x * scale for link, x in witness.items()}
    return best, witness


# ---------------------------------------------------------------------------
# The imperfection sweep over every 0/1 mask on graphs of at most 12 links.
# Unlike the scans above it calls the package's solvers on each candidate;
# it is the reference for the lower bound's value and witness.


def full_mask_imperfection_lower_bound(gc, enumerate_limit=12):
    """imperfection_lower_bound with every nonzero 0/1 mask as a candidate,
    after every chordless odd cycle of the shortest odd length from 5 to 13
    that has any, where the package replays only the first of them."""
    n = len(gc.links)
    trial = [{link: Fraction(1)} for link in gc.links]
    for length in range(5, min(n, 13) + 1, 2):
        holes = list(generator_induced_cycles(n, gc.adj, length))
        trial.extend({gc.links[i]: Fraction(1) for i in hole} for hole in holes)
        if holes:
            break
    if n <= enumerate_limit:
        for mask in range(1, 1 << n):
            trial.append({gc.links[i]: Fraction(1) for i in range(n) if mask >> i & 1})
    best = Fraction(0)
    witness = {}
    for tau in trial:
        clique = weighted_clique_number(gc, tau)
        if clique == 0:
            continue
        ratio = fractional_chromatic(gc, tau) / clique
        if ratio > best:
            best = ratio
            witness = tau
    return best, witness


# ---------------------------------------------------------------------------
# The largest interfering matching inside one 1-hop view. No command needs
# it; the tests compare it with the global matching. It calls the
# package's maximum-clique search on each view.


def max_local_interfering_matching(g):
    """Largest interfering matching inside any single 1-hop view, with the
    first vertex whose view attains it (None when no view has a link)."""
    best = 0
    where = None
    for v in g.vertices:
        size, _ = max_interfering_matching(one_hop_subgraph(g, v))
        if size > best:
            best = size
            where = v
    return best, where


# ---------------------------------------------------------------------------
# The two certificate routes without their pruning: every maximal clique's
# exact cover, and every pair deletion of the ring scheme built as an
# induced subgraph and tested for chordality. They call the package's
# clique search, set cover and chordality test.


def scan_cover_number(g):
    """invariants.neighborhood_cover_number running exact_set_cover on
    every maximal conflict clique."""
    gc = conflict_graph(g, 2)
    if not gc.links:
        return 0, (), ()
    best = 0
    best_links = ()
    best_vertices = ()
    for clique in maximal_cliques(len(gc.links), gc.adj):
        members = {link_idx: pos for pos, link_idx in enumerate(clique)}
        owners = []
        seen = {}
        sets = []
        for v, view in zip(g.vertices, g.view_links):
            part = frozenset(members[i] for i in view if i in members)
            if part and part not in seen:
                seen[part] = v
                sets.append(part)
                owners.append(v)
        chosen = exact_set_cover(len(clique), sets)
        if len(chosen) > best:
            best = len(chosen)
            best_links = tuple(gc.links[i] for i in clique)
            best_vertices = tuple(sorted(owners[i] for i in chosen))
    return best, best_links, best_vertices


def reference_ring_scheme_bound(gc):
    """invariants._ring_scheme_bound testing each pair deletion's induced
    subgraph for chordality (a perfect elimination ordering by MCS)."""
    m = len(gc.links)
    if m < 10 or m % 4 != 2:
        return None
    if any(len(a) != 4 for a in gc.adj):
        return None
    ring_adj = [[] for _ in range(m)]
    for i in range(m):
        for j in gc.adj[i]:
            if j > i and len(gc.adj[i] & gc.adj[j]) == 2:
                ring_adj[i].append(j)
                ring_adj[j].append(i)
    if any(len(nb) != 2 for nb in ring_adj):
        return None
    order = [0, min(ring_adj[0])]
    while len(order) < m:
        prev, cur = order[-2], order[-1]
        nxt = next((w for w in ring_adj[cur] if w != prev), None)
        if nxt is None or nxt in order:
            return None
        order.append(nxt)
    if order[-1] not in ring_adj[0]:
        return None
    pos = {v: i for i, v in enumerate(order)}
    for v in range(m):
        p = pos[v]
        expected = {order[(p + d) % m] for d in (-2, -1, 1, 2)}
        if gc.adj[v] != frozenset(expected):
            return None
    for t in range(m // 2):
        pair = (order[2 * t], order[2 * t + 1])
        sub = induced_conflict(gc, [i for i in range(m) if i not in pair])
        if sub.cliques is None:
            return None
    p = m // 2
    return Fraction(p, p - 1)


# ---------------------------------------------------------------------------
# The policy sweep in two earlier forms. Both call the package's solvers.


def _policy_sweep(g, samples, seed, policy, user_bound, price):
    """evaluate_policy's threshold, tally and summary around price(rng,
    threshold), which draws one sample and returns (local_max,
    oracle_value, admit, classification)."""
    check_sample_count(samples, "sample count")
    if not g.links:
        raise GraphError("policy evaluation needs at least one link")
    meta = {}
    if policy == "theorem3":
        threshold, meta = admission_threshold(g)
    elif policy == "user":
        if user_bound is None:
            raise GraphError("user policy needs a ratio bound")
        threshold, meta = admission_threshold(g, user_bound=user_bound)
    elif policy == "oracle-exact":
        threshold = None
    else:
        raise GraphError(f"unknown policy {policy!r}")

    rng = random.Random(seed)
    rows = []
    tally = dict.fromkeys(("true-admit", "false-admit", "true-reject", "false-reject"), 0)
    for sample_id in range(samples):
        local_max, oracle_value, admit, classification = price(rng, threshold)
        tally[classification] += 1
        rows.append(
            {
                "sample_id": sample_id,
                "seed": seed,
                "local_max": local_max,
                "oracle_chif": oracle_value,
                "decision": "admit" if admit else "reject",
                "classification": classification,
            }
        )

    feasible_total = tally["true-admit"] + tally["false-reject"]
    summary = {
        "policy": policy,
        "samples": samples,
        "seed": seed,
        "threshold": threshold,
        "false_admit": tally["false-admit"],
        "false_reject": tally["false-reject"],
        "true_admit": tally["true-admit"],
        "true_reject": tally["true-reject"],
        "false_reject_rate": (
            Fraction(tally["false-reject"], feasible_total) if feasible_total else Fraction(0)
        ),
    }
    summary.update({f"threshold_{k}": v for k, v in meta.items()})
    return {"summary": summary, "rows": rows}


def traced_evaluate_policy(g, samples, seed, policy="theorem3", user_bound=None):
    """evaluate_policy through run_admission: the full 2-round protocol
    per sample for a threshold, local_estimate plus the oracle for
    "oracle-exact"."""
    gc = conflict_graph(g, 2)

    def price(rng, threshold):
        tau = sample_demands(g, rng, target=threshold or Fraction(1))
        if threshold is None:
            oracle_value = fractional_chromatic(gc, tau)
            admit = oracle_value <= 1
            return local_estimate(g, tau), oracle_value, admit, _classify(admit, admit)
        trace = run_admission(g, tau, threshold)
        local_max = max(view.local_value for view in trace.views)
        return local_max, trace.oracle_value, trace.all_admit, trace.classification

    return _policy_sweep(g, samples, seed, policy, user_bound, price)


RESCALE_FACTORS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3))


def fraction_draw(g, rng, denom_max=4, target=None):
    """The raw demand vector as a dict of Fractions, and the largest 1-hop
    value it is to be rescaled to: the draw as it was before it returned
    integers, with the same calls on rng in the same order."""
    tau = {}
    for link in g.links:
        if rng.random() < 0.6:
            den = rng.randint(1, denom_max)
            tau[link] = Fraction(rng.randint(1, den), den)
    if not tau:
        link = g.links[rng.randrange(len(g.links))]
        tau = {link: Fraction(1, denom_max)}
    goal = None
    if target is not None and rng.random() < 0.6:
        goal = rng.choice(RESCALE_FACTORS) * Fraction(target)
    return tau, goal


def reference_evaluate_policy(g, samples, seed, policy="theorem3", user_bound=None):
    """evaluate_policy in Fractions: each sample drawn by fraction_draw,
    priced as the largest local_views value and fractional_chromatic on
    the whole conflict graph, and rescaled by multiplying both values by
    goal / local_max."""
    gc = conflict_graph(g, 2)

    def price(rng, threshold):
        tau, goal = fraction_draw(g, rng, target=threshold or Fraction(1))
        local_max = max(value for _, value in local_views(g, tau))
        oracle_value = fractional_chromatic(gc, tau)
        if goal is not None:
            oracle_value *= goal / local_max
            local_max = goal
        feasible = oracle_value <= 1
        admit = feasible if threshold is None else local_max <= threshold
        return local_max, oracle_value, admit, _classify(admit, feasible)

    return _policy_sweep(g, samples, seed, policy, user_bound, price)


def filter_one_hop_subgraph(g, v):
    """The subgraph induced by v's closed neighborhood, by filtering every
    link of g; g itself when that is every vertex."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex {v!r}")
    keep = {v, *g.neighbors(v)}
    if len(keep) == len(g.vertices):
        return g
    links = [e for e in g.links if e[0] in keep and e[1] in keep]
    return NetworkGraph(tuple(sorted(keep)), tuple(links))


def subgraph_view_values(g, tau):
    """Each vertex's 1-hop subgraph and the duration of the demands of its
    links, priced on the subgraph's own radius-2 conflict graph, in vertex
    order: every view built and priced as a graph of its own."""
    out = []
    for v in g.vertices:
        sub = one_hop_subgraph(g, v)
        sub_tau = {link: d for link, d in tau.items() if sub.has_link(link)}
        out.append((sub, fractional_chromatic(conflict_graph(sub, 2), sub_tau)))
    return out


def canonical_json(obj) -> str:
    """The whole text jsonio.write_json writes for obj, as one string: the
    writer's bytes, which must equal
    json.dumps(obj, sort_keys=True, indent=2) + "\n"."""
    parts: list[str] = []
    write_json(obj, parts.append)
    return "".join(parts)
