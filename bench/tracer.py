"""Span tracing of hopadmit's layers, installed from outside the package.

``install`` wraps every public module-level function of every hopadmit
module (a layer is a module). The wrapper goes onto every module binding
that ``is`` the original function, so aliases such as
``scheduling._mis_idx`` are traced too. A cached function is re-created as
a fresh ``lru_cache`` of the same size around the wrapper, so only cache
misses open spans; install before the first hopadmit call so that no
cache contents are lost.

Spans nest on a stack. A span's self time is its duration minus its
children's. Self time is booked to the span's function when that function
is named by a metric (``METRIC_FUNCTIONS``); a helper called from the same
module is booked to its caller, and anything else to its own name. Counts
are read from arguments and return values. Everything stays in memory
until ``snapshot``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# Metric prefix -> (module, function).
METRIC_FUNCTIONS = {
    "simplex.solve_min_ge": ("simplex", "solve_min_ge"),
    "simplex.solve_max_le": ("simplex", "solve_max_le"),
    "search.mis": ("search", "maximal_independent_sets"),
    "search.cliques": ("search", "maximal_cliques"),
    "search.max_clique": ("search", "max_clique"),
    "search.set_cover": ("search", "exact_set_cover"),
    "search.induced_cycles": ("search", "iter_induced_cycles"),
    "chordal.certificate": ("chordal", "chordality_certificate"),
    "qstab.vertices": ("qstab", "qstab_vertices"),
    "graphs.conflict_graph": ("graphs", "conflict_graph"),
    "graphs.induced_conflict": ("graphs", "induced_conflict"),
    "graphs.one_hop_subgraph": ("graphs", "one_hop_subgraph"),
    "scheduling.chif": ("scheduling", "fractional_chromatic"),
    "scheduling.min_schedule": ("scheduling", "min_schedule"),
    "scheduling.clique_number": ("scheduling", "weighted_clique_number"),
    "analysis.local_estimate": ("analysis", "local_estimate"),
    "analysis.ratio_bounds": ("analysis", "ratio_bounds"),
    "analysis.threshold": ("analysis", "admission_threshold"),
    "invariants.imp_lower": ("invariants", "imperfection_lower_bound"),
    "invariants.imp_upper": ("invariants", "imperfection_upper_bound"),
    "invariants.cover_number": ("invariants", "neighborhood_cover_number"),
    "invariants.matching": ("invariants", "max_interfering_matching"),
    "simulate.run_admission": ("simulate", "run_admission"),
    "simulate.sample_demands": ("simulate", "sample_demands"),
    "jsonio.canonical_json": ("jsonio", "canonical_json"),
}

# Maximal independent sets are enumerated as cliques of the complement, so
# that clique call is part of the MIS work: no span and no clique counts.
FOLD_UNDER = {"search.cliques": "search.mis"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_lp(tracer, args, kwargs, result):
    tracer.add("simplex.rows", len(_arg(args, kwargs, 1, "a_matrix")))
    tracer.add("simplex.columns", len(_arg(args, kwargs, 0, "c")))
    tracer.add("simplex.used_columns", sum(1 for v in result.x if v > 0))


def _count_chif(tracer, args, kwargs, result):
    gc = _arg(args, kwargs, 0, "gc")
    tau = _arg(args, kwargs, 1, "tau")
    key = (gc, frozenset((link, v) for link, v in tau.items() if v))
    if key in tracer.item_chif_keys:
        tracer.add("scheduling.chif.repeats", 1)
    else:
        tracer.item_chif_keys.add(key)


def _count_admission(tracer, args, kwargs, result):
    tracer.add("simulate.views", len(result.views))
    tracer.add("simulate.messages", len(result.messages))


COUNTS = (
    "simplex.rows", "simplex.columns", "simplex.used_columns", "search.mis.sets",
    "search.cliques.count", "search.induced_cycles.yielded", "search.cap_exceeded",
    "chordal.certificate.chordal", "qstab.vertices.count", "scheduling.chif.repeats",
    "simulate.views", "simulate.messages", "jsonio.bytes_out",
)

HOOKS = {
    "simplex.solve_min_ge": _count_lp,
    "simplex.solve_max_le": _count_lp,
    "search.mis": lambda t, a, k, r: t.add("search.mis.sets", len(r)),
    "search.cliques": lambda t, a, k, r: t.add("search.cliques.count", len(r)),
    "chordal.certificate": lambda t, a, k, r: t.add("chordal.certificate.chordal", int(bool(r[0]))),
    "qstab.vertices": lambda t, a, k, r: t.add("qstab.vertices.count", len(r)),
    "scheduling.chif": _count_chif,
    "simulate.run_admission": _count_admission,
    "jsonio.canonical_json": lambda t, a, k, r: t.add("jsonio.bytes_out", len(r.encode("utf-8"))),
}


class Tracer:
    """Span stack plus per-function self time, call counts and counters."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [booked key, module, fkey, start, child time]
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (used after the warm-up item)."""
        self.self_s: dict[str, float] = {}
        self.module_self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.root_s = 0.0
        self.item_chif_keys: set = set()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_item(self) -> None:
        self.item_chif_keys = set()

    def _push(self, fkey: str, module: str, named: bool) -> list:
        stack = self.stack
        if named or not stack or stack[-1][1] != module:
            booked = fkey
        else:
            booked = stack[-1][0]
        frame = [booked, module, fkey, 0.0, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        duration = time.perf_counter() - frame[3]
        self.stack.pop()
        own = duration - frame[4]
        self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + own
        self.module_self_s[frame[1]] = self.module_self_s.get(frame[1], 0.0) + own
        if self.stack:
            self.stack[-1][4] += duration
        else:
            self.root_s += duration

    def _raised(self, module: str, exc: BaseException) -> None:
        if (
            module == "search"
            and type(exc).__name__ == "ResourceLimitError"
            and not getattr(exc, "_bench_counted", False)
        ):
            exc._bench_counted = True
            self.add("search.cap_exceeded", 1)

    def wrap(self, fn, fkey: str, module: str):
        named = fkey in _NAMED_KEYS
        hook = HOOKS.get(fkey)
        fold = FOLD_UNDER.get(fkey)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[fkey] = tracer.calls.get(fkey, 0) + 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._push(fkey, module, named)
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            tracer._raised(module, exc)
                            raise
                        finally:
                            tracer._pop(frame)
                        tracer.add(fkey + ".yielded", 1)
                        yield value
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold is not None and tracer.stack and tracer.stack[-1][2] == fold:
                return fn(*args, **kwargs)
            frame = tracer._push(fkey, module, named)
            try:
                result = fn(*args, **kwargs)
                tracer.calls[fkey] = tracer.calls.get(fkey, 0) + 1
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            except BaseException as exc:
                tracer._raised(module, exc)
                raise
            finally:
                tracer._pop(frame)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_s": self.self_s,
            "module_self_s": self.module_self_s,
            "calls": self.calls,
            "counts": self.counts,
            "root_s": self.root_s,
            "absent": self.absent,
        }


_NAMED_KEYS = set(METRIC_FUNCTIONS)
_KEY_OF = {target: key for key, target in METRIC_FUNCTIONS.items()}


def _is_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def install(tracer: Tracer) -> None:
    """Wrap hopadmit's public functions on every module binding."""
    package = importlib.import_module("hopadmit")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"hopadmit.{info.name}")
    modules = [m for name, m in sys.modules.items() if name == "hopadmit" or name.startswith("hopadmit.")]

    targets = []  # (original binding, function, its wrapper, what replaces the binding)
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            base = obj.__wrapped__ if _is_cache(obj) else obj
            if not inspect.isfunction(base) or base.__module__ != mod.__name__:
                continue
            fkey = _KEY_OF.get((layer, name), f"{layer}.{name}")
            wrapped = tracer.wrap(base, fkey, layer)
            replacement = functools.lru_cache(**obj.cache_parameters())(wrapped) if _is_cache(obj) else wrapped
            targets.append((obj, base, wrapped, replacement))

    for mod in modules:
        for name, value in list(vars(mod).items()):
            for obj, base, wrapped, replacement in targets:
                if value is obj:
                    setattr(mod, name, replacement)
                elif _is_cache(value) and value.__wrapped__ is base:
                    setattr(mod, name, functools.lru_cache(**value.cache_parameters())(wrapped))

    for key, (layer, name) in METRIC_FUNCTIONS.items():
        mod = sys.modules.get(f"hopadmit.{layer}")
        if mod is None or not callable(getattr(mod, name, None)):
            tracer.absent.append(key)
