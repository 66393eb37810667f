"""hopadmit benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 bench/run.py --workload admission_sweep --seed 1 --seconds 30 --trace 0

Each item is one CLI command run in-process through ``hopadmit.cli.main``
with its output captured, one at a time, back to back, in a fresh worker
process (``worker.py``); nothing runs in parallel. Every output is checked
(``check.py``) after the worker has exited.

``--trace 0`` starts four set-up-only workers and one measuring worker and
reports the ``end_to_end`` metrics of ``BENCHMARK.json``: ``setup_s`` is
the median set-up of the five. Times are scaled by calibration probes
(``probe.py``) to a reference machine, because the machine's own speed
drifts by more than half over minutes; the unscaled figures are printed
on the provenance line. ``--trace 1`` runs half the time (and at least the
workload's ``min_rounds``) untraced, then the same items again in a traced
worker (``tracer.py``), and reports the ``per_layer`` metrics, per traced
item. The last line of standard output is the JSON result; the lines
before it give provenance and every metric with its unit, including
``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_WORKERS = 5
DEADLINE_S = 170.0
LAYERS = ("simplex", "search", "chordal", "qstab", "graphs", "scheduling",
          "analysis", "invariants", "simulate", "jsonio", "cli")


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], out: str, deadline: float) -> dict:
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out,
           "--inputs", os.path.join(os.path.dirname(out), "inputs"), *args,
           "--spawned", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the benchmark deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out, "warmup.json"), encoding="utf-8") as fh:
        summary["warmup"] = json.load(fh)
    summary["dir"] = out
    return summary


def _items(summary: dict) -> list[dict]:
    with open(os.path.join(summary["dir"], "items.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _load_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopadmit.analysis import duration_ratio
    from hopadmit.graphs import conflict_graph
    from hopadmit.jsonio import demands_from_obj, graph_from_obj
    from hopadmit.scheduling import fractional_chromatic, weighted_clique_number

    return argparse.Namespace(
        duration_ratio=duration_ratio, conflict_graph=conflict_graph,
        demands_from_obj=demands_from_obj, graph_from_obj=graph_from_obj,
        fractional_chromatic=fractional_chromatic,
        weighted_clique_number=weighted_clique_number,
    )


class Gate:
    """Counts checked item runs and failures, keeping a few messages."""

    def __init__(self, by_key: dict, pins: dict, lib) -> None:
        self.by_key, self.pins, self.lib = by_key, pins, lib
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, key: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{key}: {'; '.join(problems)[:500]}")

    def item(self, run: dict) -> None:
        item = self.by_key[run["key"]]
        problems = check.check_item(item, run["rc"], run["out"], self.pins, self.lib)
        self.record(run["key"], problems + ([run["err"].strip()] if run["rc"] is None else []))


def _tail(times: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _scaled_times(run: dict, items: list[dict]) -> list[float]:
    """Item seconds scaled by the machine speed around each item: the
    median of the four probes before it and the four after it (about two
    seconds of items; the machine's speed drifts over tens of seconds)."""
    probes = run["probes"]
    out = []
    k = 0
    for i, entry in enumerate(items):
        while k + 1 < len(probes) and probes[k + 1][0] <= i:
            k += 1
        near = probes[max(0, k - 3):k + 5]
        out.append(probe.scaled(entry["s"], statistics.median(p[1] for p in near)))
    return out


def end_to_end(wl, seed, seconds, deadline, work, gate) -> tuple[dict, dict]:
    base = ["--workload", wl.name, "--seed", str(seed)]
    setups = [_worker(base, os.path.join(work, f"setup{i}"), deadline) for i in range(SETUP_WORKERS - 1)]
    run = _worker(base + ["--seconds", str(seconds)], os.path.join(work, "measure"), deadline)
    setups.append(run)
    _check_warmups(setups, gate)
    items = _items(run)
    for entry in items:
        gate.item(entry)
    raw = [entry["s"] for entry in items]
    times = _scaled_times(run, items)
    pct = wl.tail_percentile()
    values = {
        "setup_s": statistics.median(probe.scaled(s["setup_s"], s["setup_probe_s"]) for s in setups),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": _tail(times, pct) * 1000,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    info = {"items": len(times), "rounds": run["rounds"], "tail_percentile": pct,
            "items_beyond_tail": len(times) - math.ceil(pct / 100 * len(times)),
            "unscaled": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                         "items_per_s": len(raw) / sum(raw),
                         "item_p50_ms": statistics.median(raw) * 1000,
                         "item_tail_ms": _tail(raw, pct) * 1000},
            "probe_ms_median": statistics.median(p[1] for p in run["probes"]) * 1000}
    return values, info


def _check_warmups(runs: list[dict], gate: Gate) -> None:
    """Each warm-up is checked; reruns in other processes must be byte-identical."""
    first = runs[0]["warmup"]
    gate.item(first)
    for r in runs[1:]:
        w = r["warmup"]
        gate.item(w)
        gate.record(w["key"] + " (rerun)", [] if w["out"] == first["out"] else
                    ["rerun in a fresh process is not byte-identical"])


def per_layer(wl, seed, seconds, deadline, work, gate) -> tuple[dict, dict]:
    base = ["--workload", wl.name, "--seed", str(seed)]
    plain = _worker(base + ["--seconds", str(seconds / 2)], os.path.join(work, "untraced"), deadline)
    traced = _worker(base + ["--items", str(plain["items"]), "--trace"], os.path.join(work, "traced"), deadline)
    _check_warmups([plain, traced], gate)
    plain_items, traced_items = _items(plain), _items(traced)
    for a, b in zip(plain_items, traced_items):
        gate.item(a)
        gate.item(b)
        gate.record(b["key"] + " (traced rerun)", [] if a["out"] == b["out"] else
                    ["traced output differs from the untraced run"])
    if len(plain_items) != len(traced_items):
        gate.record("traced run", ["traced run did not finish the untraced items"])

    tr = traced["trace"]
    n = max(1, len(traced_items))
    wall = sum(e["s"] for e in traced_items)
    traced_scaled = sum(_scaled_times(traced, traced_items))
    plain_scaled = sum(_scaled_times(plain, plain_items))
    module_sum = sum(tr["module_self_s"].values())
    balanced = abs(module_sum - tr["root_s"]) <= 1e-6 * wall + 1e-6 and tr["root_s"] <= wall
    gate.record("trace balance", [] if balanced else
                [f"self times {module_sum} + outside do not add up to wall {wall}"])
    values = _layer_values(tr, n, wall, _ratio(traced_scaled, plain_scaled), _ratio(traced_scaled, wall))
    info = {"items": len(traced_items), "rounds": traced["rounds"], "trace_wall_s": wall,
            "self_plus_outside_s": module_sum + (wall - tr["root_s"]), "absent": tr["absent"]}
    return values, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(tr: dict, n: int, wall: float, overhead: float, scale: float) -> dict:
    """Per traced item; self times are scaled like the item times."""
    calls, counts, self_s, mod = tr["calls"], tr["counts"], tr["self_s"], tr["module_self_s"]
    solves = calls.get("simplex.solve_min_ge", 0) + calls.get("simplex.solve_max_le", 0)
    chif_calls = calls.get("scheduling.chif", 0)
    values = {
        "simplex.solves": solves / n,
        "simplex.used_column_ratio": _ratio(counts.get("simplex.used_columns", 0), counts.get("simplex.columns", 0)),
        "chordal.chordal_frac": _ratio(counts.get("chordal.certificate.chordal", 0), calls.get("chordal.certificate", 0)),
        "scheduling.lp_per_chif": _ratio(solves, chif_calls + calls.get("scheduling.min_schedule", 0)),
        "scheduling.mis_reuse_ratio": 1 - _ratio(calls.get("search.mis", 0), solves) if solves else 0.0,
        "scheduling.chif.repeat_ratio": _ratio(counts.get("scheduling.chif.repeats", 0), chif_calls),
        "trace.overhead": overhead,
        "trace.items": n,
        "trace.wall_s": wall,
        "trace.outside_share": _ratio(wall - tr["root_s"], wall),
    }
    for key in tracer.METRIC_FUNCTIONS:
        values[f"{key}.calls"] = calls.get(key, 0) / n
        values[f"{key}.self_s"] = self_s.get(key, 0.0) * scale / n
    for name, count in counts.items():
        values.setdefault(name, count / n)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = mod.get(layer, 0.0) * scale / n
        values[f"{layer}.share"] = _ratio(mod.get(layer, 0.0), wall)
    return values


DERIVED_DEPS = {
    "simplex.solves": ("simplex.solve_min_ge",),
    "simplex.used_column_ratio": ("simplex.solve_min_ge",),
    "chordal.chordal_frac": ("chordal.certificate",),
    "scheduling.lp_per_chif": ("simplex.solve_min_ge", "scheduling.chif"),
    "scheduling.mis_reuse_ratio": ("simplex.solve_min_ge", "search.mis"),
    "scheduling.chif.repeat_ratio": ("scheduling.chif",),
}


def _is_absent(name: str, absent: list[str]) -> bool:
    deps = DERIVED_DEPS.get(name)
    if deps is None:
        deps = [key for key in tracer.METRIC_FUNCTIONS if name.startswith(key + ".")]
    return any(d in absent for d in deps)


def _provenance(name: str, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hopadmit")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": name, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pins = json.load(fh)
    except OSError as exc:
        print(f"benchmark files missing: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "hopadmit", "cli.py")):
        print("no hopadmit source under src/ in this checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    gate = Gate({item.key: item for item in wl.all_items()}, pins, _load_library())
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    deadline = started + DEADLINE_S
    try:
        measure = per_layer if args.trace else end_to_end
        values, info = measure(wl, args.seed, args.seconds, deadline, work, gate)
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    absent = info.pop("absent", [])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if _is_absent(m["name"], absent):
            metrics[m["name"]] = {"value": None, "unit": m["unit"], "absent": True}
        else:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("provenance " + json.dumps({**_provenance(wl.name, args.seed), **info}, sort_keys=True))
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']!s:>24} {entry['unit']}")
    print(f"{'failed_frac':34s} {gate.failed / max(1, gate.attempted):>24} ratio")
    for message in gate.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
