"""One fresh benchmark process: set up, then run items back to back.

Set-up, timed from the moment run.py starts the process, is the
interpreter start, the hopadmit import, writing every graph input as JSON and one
warm-up item. With ``--seconds`` the process then runs whole rounds, one
item at a time through ``hopadmit.cli.main``, until the time is up and at
least the workload's ``min_rounds`` are done; with
``--items`` it runs exactly that many items (the traced rerun of an
untraced run). Every item's exit code, time and captured output go to
``items.jsonl`` and a summary to ``summary.json``, both in ``--out``.
Calibration probes (``probe.py``) run after set-up and between items,
outside every item's timer. Graph paths appear in the envelopes, so all workers of one run share
``--inputs`` and their outputs can be compared byte for byte.
Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import probe  # noqa: E402

PROBE_EVERY_S = 0.25
MAX_LOOP_S = 120.0


def _safe_name(key: str) -> str:
    return key.replace("/", "_").replace(":", "_").replace(",", "_")


def run_item(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """(exit code or None if it raised, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - recorded as a failed item
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--inputs", required=True, help="graph directory, the same for every worker of a run")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--items", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned", type=float, required=True, help="time.time() at process start")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hopadmit.cli as cli_module

    if not os.path.abspath(cli_module.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"hopadmit imported from {cli_module.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # Input generation: every graph the run can reach, once each.
    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.inputs, exist_ok=True)
    rounds_total = wl.rounds_before_repeat()
    plan = [wl.round_items(args.seed, r) for r in range(rounds_total)]
    paths: dict[str, str] = {}
    graphs: dict[str, str] = {}
    for item in [wl.warmup] + [item for rnd in plan for item in rnd]:
        if item.key in paths:
            continue
        text = json.dumps(item.graph, sort_keys=True)
        path = graphs.get(text)
        if path is None:
            path = os.path.join(args.inputs, _safe_name(item.key) + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            graphs[text] = path
        paths[item.key] = path

    code, _, out, err = run_item(cli_module, wl.warmup.argv(paths[wl.warmup.key]))
    setup_s = time.time() - args.spawned
    setup_probe_s = sorted(probe() for _ in range(3))[1]
    if tracer is not None:
        tracer.reset()
    with open(os.path.join(args.out, "warmup.json"), "w", encoding="utf-8") as fh:
        json.dump({"key": wl.warmup.key, "rc": code, "out": out, "err": err}, fh)

    measured = 0
    rounds = 0
    # [items run before the probe, probe seconds]: a probe before the first
    # item, then after any item that ends PROBE_EVERY_S of item time, and
    # one after the last item.
    probes: list[list] = []
    since_probe = PROBE_EVERY_S
    loop_start = time.perf_counter()
    with open(os.path.join(args.out, "items.jsonl"), "w", encoding="utf-8") as log:

        def want_more() -> bool:
            elapsed_loop = time.perf_counter() - loop_start
            if elapsed_loop >= MAX_LOOP_S:
                return False
            if args.items:
                return measured < args.items
            return rounds < wl.min_rounds or elapsed_loop < args.seconds

        while (args.seconds or args.items) and want_more():
            for item in plan[rounds % rounds_total]:
                if args.items and measured >= args.items:
                    break
                if since_probe >= PROBE_EVERY_S:
                    probes.append([measured, probe()])
                    since_probe = 0.0
                if tracer is not None:
                    tracer.begin_item()
                code, elapsed, out, err = run_item(cli_module, item.argv(paths[item.key]))
                since_probe += elapsed
                measured += 1
                log.write(json.dumps({"key": item.key, "rc": code, "s": elapsed, "out": out, "err": err}) + "\n")
                if time.perf_counter() - loop_start >= MAX_LOOP_S:
                    break
            rounds += 1
    probes.append([measured, probe()])

    summary = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "probes": probes,
        "items": measured,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary["trace"] = tracer.snapshot()
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
