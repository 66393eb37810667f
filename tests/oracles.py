"""Independent brute-force reference implementations.

Everything here recomputes results from first principles (subset scans,
Gaussian elimination, memoized search) without touching the package's
solvers, so agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


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
