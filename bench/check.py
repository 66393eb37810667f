"""Correctness gate for benchmark items.

Each item's envelope must carry the exact values pinned in ``pins.json``
(see ``pinned_fields``) and pass the checks below. Witnesses and schedules
are checked by replay, never by their bytes, so a different valid optimum
passes:

* ``chif`` schedules are replayed with this file's own ring conflict test:
  every step conflict-free, every demand covered, total equal to chi_f.
  Uniform rings must also meet the closed form w*n/floor(n/3).
* ``beta`` witnesses are replayed through ``duration_ratio``; on the
  4k+2 rings the bounds must meet at (2k+1)/k.
* ``invariants`` witnesses are replayed with this file's own distances,
  and the imperfection witness through the scheduling LP.
* ``simulate`` rows must be consistent with the oracle, never a false
  admit, and with local value at most the global one.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from fractions import Fraction

EXPECTED_RC = 0


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pinned_fields(command: str, result: dict) -> dict:
    """The exact values of one envelope that must match its pin."""
    if command == "simulate":
        s = result["summary"]
        rows = [
            [r["local_max"], r["oracle_chif"], r["decision"], r["classification"]]
            for r in result["rows"]
        ]
        return {
            "threshold": s["threshold"],
            "tally": [s["true_admit"], s["false_admit"], s["true_reject"], s["false_reject"]],
            "rows": _digest(rows),
        }
    if command == "chif":
        return {"chi_f": result["chi_f"], "feasible": result["feasible"]}
    if command == "beta":
        keys = ("lower", "upper", "imp_upper", "lambda", "exact")
    elif command == "invariants":
        keys = ("nu", "lambda", "imp_lower", "imp_upper")
    elif command == "threshold":
        keys = ("threshold", "ratio_upper", "imp_upper", "cover_number")
    else:
        raise ValueError(f"no pin fields for {command!r}")
    return {k: result.get(k) for k in keys}


def _frac(text) -> Fraction | None:
    return None if text is None else Fraction(text)


# ---------------------------------------------------------------------------
# The benchmark's own graph helpers.


def _adjacency(graph: dict) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in graph["vertices"]}
    for u, v in graph["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _link_distance(adj, e, f) -> int | float:
    if set(e) & set(f):
        return 0
    dist = {x: 0 for x in e}
    queue = deque(e)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return min((dist[x] for x in f if x in dist), default=float("inf"))


def _parse_link(text: str, adj) -> tuple[str, str]:
    u, v = text.split("-", 1)
    if v not in adj.get(u, ()):
        raise ValueError(f"{text!r} is not a link")
    return (u, v)


def _ring_position(link: tuple[str, str], n: int) -> int:
    a, b = sorted(int(x[1:]) for x in link)
    return n if (a, b) == (1, n) else a


def _check_ring_schedule(item, result, chi_f: Fraction) -> list[str]:
    n = len(item.graph["vertices"])
    adj = _adjacency(item.graph)
    demands = json.loads(item.extra[item.extra.index("--demands") + 1])
    need = {_ring_position(_parse_link(k, adj), n): Fraction(v) for k, v in demands.items()}
    got = {p: Fraction(0) for p in need}
    total = Fraction(0)
    for step in result.get("schedule", []):
        duration = Fraction(step["duration"])
        if duration <= 0:
            return ["schedule step with a non-positive duration"]
        positions = [_ring_position(_parse_link(k, adj), n) for k in step["links"]]
        for i, p in enumerate(positions):
            for q in positions[i + 1:]:
                if min(abs(p - q), n - abs(p - q)) <= 2:
                    return [f"schedule step puts conflicting ring links {p} and {q} together"]
        for p in positions:
            got[p] = got.get(p, Fraction(0)) + duration
        total += duration
    problems = [f"ring link {p} gets {got[p]} < {need[p]}" for p in need if got[p] < need[p]]
    if total != chi_f:
        problems.append(f"schedule total {total} != chi_f {chi_f}")
    if len(set(demands.values())) == 1:
        w = Fraction(next(iter(demands.values())))
        if chi_f != w * n / (n // 3):
            problems.append(f"uniform ring chi_f {chi_f} != closed form {w * n / (n // 3)}")
    return problems


def _check_simulate(result) -> list[str]:
    problems = []
    rows = result["rows"]
    s = result["summary"]
    if len(rows) != s["samples"]:
        problems.append("row count differs from the sample count")
    tally = {"true-admit": 0, "false-admit": 0, "true-reject": 0, "false-reject": 0}
    for r in rows:
        local, oracle = Fraction(r["local_max"]), Fraction(r["oracle_chif"])
        feasible = oracle <= 1
        admit = r["decision"] == "admit"
        expect = ("true-admit" if feasible else "false-admit") if admit else (
            "false-reject" if feasible else "true-reject")
        if r["classification"] != expect:
            problems.append(f"sample {r['sample_id']} classified {r['classification']}, expected {expect}")
        if local > oracle:
            problems.append(f"sample {r['sample_id']} local {local} exceeds global {oracle}")
        tally[r["classification"]] = tally.get(r["classification"], 0) + 1
    if tally["false-admit"] or s["false_admit"]:
        problems.append("false admit under the certified threshold")
    for cls, count in tally.items():
        if s[cls.replace("-", "_")] != count:
            problems.append(f"summary {cls} count disagrees with the rows")
    return problems


def _check_beta(item, result, lib) -> list[str]:
    problems = []
    lower, upper = _frac(result["lower"]), _frac(result["upper"])
    imp, lam = _frac(result["imp_upper"]), result["lambda"]
    if upper is not None:
        if lower > upper:
            problems.append(f"lower {lower} > upper {upper}")
        if imp is None or upper != imp * lam:
            problems.append("upper is not imp_upper * lambda")
    if _frac(result["exact"]) != (lower if upper == lower else None):
        problems.append("exact disagrees with the bounds")
    g = lib.graph_from_obj(item.graph)
    witness = lib.demands_from_obj(result["lower_witness"], g)
    if not witness or lib.duration_ratio(g, witness) != lower:
        problems.append("lower-bound witness does not replay to the lower bound")
    if item.key.startswith("cert/beta/cycle:"):
        n = len(item.graph["vertices"])
        if n % 4 == 2 and n >= 10:
            k = (n - 2) // 4
            if not lower == upper == Fraction(2 * k + 1, k):
                problems.append(f"ring beta is not (2k+1)/k = {Fraction(2 * k + 1, k)}")
    return problems


def _check_invariants(item, result, lib) -> list[str]:
    problems = []
    adj = _adjacency(item.graph)
    nu_links = [_parse_link(k, adj) for k in result["nu_witness"]]
    if len(nu_links) != result["nu"]:
        problems.append("nu witness size differs from nu")
    for i, e in enumerate(nu_links):
        for f in nu_links[i + 1:]:
            if _link_distance(adj, e, f) != 1:
                problems.append(f"nu witness links {e} and {f} are not at distance 1")
    clique = [_parse_link(k, adj) for k in result["lambda_witness_links"]]
    for i, e in enumerate(clique):
        for f in clique[i + 1:]:
            if _link_distance(adj, e, f) >= 2:
                problems.append(f"lambda witness links {e} and {f} do not conflict")
    views = [adj[v] | {v} for v in result["lambda_witness_vertices"]]
    if len(views) != result["lambda"]:
        problems.append("lambda witness vertex count differs from lambda")
    for e in clique:
        if not any(set(e) <= view for view in views):
            problems.append(f"lambda witness views miss link {e}")
    imp_lo, imp_hi = _frac(result["imp_lower"]), _frac(result["imp_upper"])
    if imp_hi is not None and imp_lo > imp_hi:
        problems.append("imp_lower > imp_upper")
    g = lib.graph_from_obj(item.graph)
    witness = lib.demands_from_obj(result["imp_lower_witness"], g)
    if witness:
        gc = lib.conflict_graph(g, 2)
        ratio = lib.fractional_chromatic(gc, witness) / lib.weighted_clique_number(gc, witness)
        if ratio != imp_lo:
            problems.append("imperfection witness does not replay to imp_lower")
    return problems


def _check_threshold(result) -> list[str]:
    threshold, ratio = Fraction(result["threshold"]), Fraction(result["ratio_upper"])
    problems = []
    if threshold != 1 / ratio:
        problems.append("threshold is not 1 / ratio_upper")
    if ratio != Fraction(result["imp_upper"]) * result["cover_number"]:
        problems.append("ratio_upper is not imp_upper * cover_number")
    return problems


def check_item(item, rc, out: str, pins: dict, lib) -> list[str]:
    """Problems with one item's run; an empty list means it passed."""
    if rc != EXPECTED_RC:
        return [f"exit code {rc}, expected {EXPECTED_RC}"]
    try:
        envelope = json.loads(out)
        result = envelope["result"]
        if envelope.get("command") != item.command or envelope.get("tool") != "hopadmit":
            return ["envelope names the wrong command or tool"]
        problems = []
        pin = pins.get(item.key)
        if pin is None:
            problems.append("no pinned result for this item")
        elif pinned_fields(item.command, result) != pin:
            problems.append(f"pinned values differ: {pinned_fields(item.command, result)} != {pin}")
        if item.command == "chif":
            problems += _check_ring_schedule(item, result, Fraction(result["chi_f"]))
        elif item.command == "simulate":
            problems += _check_simulate(result)
        elif item.command == "beta":
            problems += _check_beta(item, result, lib)
        elif item.command == "invariants":
            problems += _check_invariants(item, result, lib)
        elif item.command == "threshold":
            problems += _check_threshold(result)
        return problems
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed envelope: {type(exc).__name__}: {exc}"]
