"""Record one trajectory point of the benchmark for the current commit.

    python3 bench/record.py --out bench/results/<name>.json

For every workload this makes two independent sets of ten untraced runs,
each run on its own seed (set A: seeds 1.., set B: seeds 101..), and
two traced runs: one on seed 1 and one on the held-out seed 1001, which no
tuning used. It stores every run's metrics and, per metric, each set's
median and quartiles, its spread (interquartile range over median) and the
shift of set B's median against set A's, next to the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 1001
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0].split(" ", 1)[1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if v["value"] is not None
                     and trace == 0), flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        sets = {"A": list(range(1, RUNS + 1)), "B": list(range(101, 101 + RUNS))}
        runs = {label: [bench(name, s, seconds, 0) for s in seeds] for label, seeds in sets.items()}
        metrics = {}
        for m in spec["end_to_end"]:
            stats = {label: summarize([r["metrics"][m["name"]]["value"] for r in rs]) for label, rs in runs.items()}
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **stats, "b_worse_than_a": worse}
        traced = {str(s): bench(name, s, seconds, 1) for s in (1, HELD_OUT_SEED)}
        point["workloads"][name] = {
            "seeds": sets,
            "items_per_run": {label: [r["provenance"]["items"] for r in rs] for label, rs in runs.items()},
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs)
            and all(r["correct"] for r in traced.values()),
            "end_to_end": metrics,
            "runs": {label: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                     for label, rs in runs.items()},
            "traced": {seed: {"provenance": r["provenance"],
                              "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                       for seed, r in traced.items()},
        }
        point["provenance"] = {k: v for k, v in runs["A"][0]["provenance"].items()
                               if k in ("commit", "src_sha256", "python", "nproc")}
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
