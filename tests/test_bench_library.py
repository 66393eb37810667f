"""The benchmark harness reads the package by name.

`bench/run.py` hands `check.py` the functions it replays witnesses and
schedules with, from `_load_library`. Each must be the package's own
function, bound under the same name, so a rename or a stray wrapper in
the package fails here rather than in a benchmark run. Likewise every
per-layer metric of `BENCHMARK.json` must read a function the package
still has, or a traced run reports it as absent, with a null value.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import sys

import hopadmit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_MODULES = ("check", "probe", "tracer", "workloads")


def _load_run(monkeypatch):
    """bench/run.py as a module; sys.path is restored after the test and
    the bench modules it imports are dropped from sys.modules."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    absent = [name for name in BENCH_MODULES if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in absent:
            sys.modules.pop(name, None)
    return module


def test_gate_library_is_the_package(monkeypatch):
    lib = vars(_load_run(monkeypatch)._load_library())
    assert {"duration_ratio", "fractional_chromatic", "weighted_clique_number"} <= set(lib)
    for name, fn in lib.items():
        assert inspect.isfunction(fn), name
        module = sys.modules[fn.__module__]
        assert module.__name__.startswith("hopadmit."), name
        assert module.__file__.startswith(os.path.dirname(hopadmit.__file__)), name
        assert getattr(module, name) is fn, name
        if name in hopadmit.__all__:
            assert getattr(hopadmit, name) is fn, name


def test_no_per_layer_metric_is_absent(monkeypatch):
    """The absent list is built as tracer.install builds it, without
    installing the tracer: each METRIC_FUNCTIONS key whose function is not
    a callable attribute of its hopadmit module."""
    run = _load_run(monkeypatch)
    absent = [
        key
        for key, (layer, name) in run.tracer.METRIC_FUNCTIONS.items()
        if not callable(getattr(importlib.import_module(f"hopadmit.{layer}"), name, None))
    ]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    assert per_layer
    for metric in per_layer:
        assert not run._is_absent(metric["name"], absent), metric["name"]
