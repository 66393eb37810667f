"""The package's API as a whole: which functions take the set cap, and
the Python examples of README.md."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hopadmit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_only_the_clique_listing_takes_a_cap():
    """The set cap is held in `search`: every function of the package,
    public or private, reads it through the searches it calls, and only
    `maximal_cliques` also takes it as an argument, for the co-chordal
    clique listing's bound of its own."""
    takers = set()
    for info in pkgutil.iter_modules(hopadmit.__path__):
        module = importlib.import_module(f"hopadmit.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if "cap" in inspect.signature(fn).parameters:
                takers.add(f"{info.name}.{name}")
    assert takers == {"search.maximal_cliques"}


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
