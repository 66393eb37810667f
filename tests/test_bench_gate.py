"""Every benchmark item passes the benchmark's correctness gate.

Each distinct item of the three workloads (`bench/workloads.py`) runs once
through `hopadmit.cli.main`, its graph written as JSON the way the
benchmark worker writes it, and its output goes through
`bench/check.check_item` against `bench/pins.json`, with the library that
`bench/run.py` hands the gate. A change that moves a pinned value or breaks
a replayed witness or schedule fails here, without a benchmark run.
"""

from __future__ import annotations

import json
import os

from test_bench_library import ROOT, _load_run

from hopadmit.cli import main


def test_every_benchmark_item_passes_the_gate(capsys, monkeypatch, tmp_path):
    run = _load_run(monkeypatch)
    lib = run._load_library()
    with open(os.path.join(ROOT, "bench", "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    items = {}
    for build in run.workloads.WORKLOADS.values():
        items.update((item.key, item) for item in build().all_items())
    assert len(items) == len(pins) == 966
    problems = {}
    for i, item in enumerate(items.values()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(item.graph, sort_keys=True), encoding="utf-8")
        code = main(item.argv(str(path)))
        found = run.check.check_item(item, code, capsys.readouterr().out, pins, lib)
        if found:
            problems[item.key] = found
    assert problems == {}
