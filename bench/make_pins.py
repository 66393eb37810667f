"""Regenerate pins.json: the exact expected results of every benchmark item.

Run from the repository root, at a commit whose results are trusted:

    python3 bench/make_pins.py [workload ...]

Each item of the named workloads (default: all) runs once through the CLI;
its pinned fields (``check.pinned_fields``) are stored under its key after
the item has passed every replay check in ``check.py``. Entries of other
workloads are kept; entries of items that no workload has any more are
dropped.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_item  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def main(names: list[str]) -> int:
    lib = run._load_library()
    import hopadmit.cli as cli

    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    tmp = os.path.join(run.ROOT, ".bench_work", "pins")
    os.makedirs(tmp, exist_ok=True)
    path = os.path.join(tmp, "graph.json")
    bad = 0
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]()
        for item in wl.all_items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(item.graph, fh)
            code, seconds, out, err = run_item(cli, item.argv(path))
            if code != 0:
                print(f"{item.key}: exit {code}: {err.strip()}", file=sys.stderr)
                bad += 1
                continue
            pins[item.key] = check.pinned_fields(item.command, json.loads(out)["result"])
            problems = check.check_item(item, code, out, pins, lib)
            if problems:
                print(f"{item.key}: {problems}", file=sys.stderr)
                del pins[item.key]
                bad += 1
            print(f"{item.key} {seconds:.3f}s", flush=True)
    shutil.rmtree(tmp, ignore_errors=True)
    known = {item.key for make in workloads.WORKLOADS.values() for item in make().all_items()}
    pins = {k: v for k, v in pins.items() if k in known}
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())
        ) + "\n}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
