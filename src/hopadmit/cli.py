"""Command line interface.

Every command prints a JSON envelope (sorted keys, stable across reruns)
carrying the tool version, the input digest, and the command's result.
Exit codes: 0 success, 1 stdout closed by its reader, 2 bad input, 3
resource-guard abort or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from . import __version__
from .analysis import admission_threshold, ratio_bounds
from .errors import BoundUnavailableError, GraphError, ResourceLimitError
from .graphs import GENERATOR_FAMILIES, NetworkGraph, conflict_graph, generate
from .invariants import invariant_report
from .jsonio import (
    conflict_to_obj,
    demands_from_obj,
    demands_to_obj,
    format_fraction,
    graph_to_obj,
    input_digest,
    invariant_report_to_obj,
    load_graph,
    metrics_row_to_obj,
    metrics_to_csv,
    parse_fraction,
    ratio_bounds_to_obj,
    read_json_file,
    schedule_to_obj,
    trace_to_obj,
    write_json,
)
from .scheduling import fractional_chromatic, min_schedule
from .search import DEFAULT_SET_CAP, set_cap
from .simulate import evaluate_policy, run_admission


def _looks_like_shorthand(text: str) -> bool:
    return ":" in text and text.split(":", 1)[0] in GENERATOR_FAMILIES


def _resolve_graph(arg: str) -> NetworkGraph:
    if _looks_like_shorthand(arg):
        if os.path.exists(arg):
            raise GraphError(
                f"{arg!r} is both an existing file and a generator shorthand; rename one"
            )
        return generate(arg)
    return load_graph(arg)


def _resolve_demands(arg: str, g: NetworkGraph):
    text = arg.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise GraphError(f"inline demands are not valid JSON: {exc}") from exc
    else:
        payload = read_json_file(arg, "demand")
    return demands_from_obj(payload, g)


def _emit(report: dict | str, out: str | None) -> None:
    """Write a CSV text as it is, or an envelope as canonical JSON streamed
    in chunks, to stdout or to the file out."""

    def send(write) -> None:
        if isinstance(report, str):
            write(report)
        else:
            write_json(report, write)

    if out is None:
        send(sys.stdout.write)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            send(fh.write)
    except OSError as exc:
        raise GraphError(f"cannot write {out!r}: {exc}") from exc


def _envelope(args, command: str, input_obj: dict, result, seed=None) -> dict:
    return {
        "tool": "hopadmit",
        "version": __version__,
        "command": command,
        "input": input_obj,
        "seed": seed,
        "caps": {"sets": args.cap_sets},
        "result": result,
    }


def _graph_input(args, g: NetworkGraph, extra=None) -> dict:
    obj = {"graph": args.graph, "digest": input_digest(graph_to_obj(g))}
    if extra:
        obj.update(extra)
    return obj


def _cmd_conflict(args) -> dict:
    g = _resolve_graph(args.graph)
    gc = conflict_graph(g, args.k)
    return _envelope(args, "conflict", _graph_input(args, g), conflict_to_obj(gc))


def _cmd_chif(args) -> dict:
    g = _resolve_graph(args.graph)
    gc = conflict_graph(g, args.k)
    tau = _resolve_demands(args.demands, g)
    if args.schedule:
        schedule = min_schedule(gc, tau)
        value = schedule.duration
    else:
        value = fractional_chromatic(gc, tau)
    result = {
        "chi_f": format_fraction(value),
        "feasible": value <= 1,
        "k": args.k,
    }
    if args.schedule:
        result["schedule"] = schedule_to_obj(schedule)
    extra = {"demands": demands_to_obj(tau)}
    return _envelope(args, "chif", _graph_input(args, g, extra), result)


def _cmd_admit(args) -> dict:
    g = _resolve_graph(args.graph)
    tau = _resolve_demands(args.demands, g)
    extra = {"demands": demands_to_obj(tau), "mode": args.mode}
    if args.mode == "central":
        if args.threshold is not None:
            raise GraphError("--threshold applies to --mode distributed only")
        gc = conflict_graph(g, args.k)
        value = fractional_chromatic(gc, tau)
        result = {
            "admit": value <= 1,
            "chi_f": format_fraction(value),
            "k": args.k,
        }
        return _envelope(args, "admit", _graph_input(args, g, extra), result)
    if args.k != 2:
        raise GraphError(
            f"distributed admission runs at interference radius 2 only, got --k {args.k}"
        )
    if args.threshold in (None, "auto"):
        threshold, _ = admission_threshold(g)
    else:
        threshold = parse_fraction(args.threshold)
    trace = run_admission(g, tau, threshold)
    return _envelope(args, "admit", _graph_input(args, g, extra), trace_to_obj(trace))


def _cmd_invariants(args) -> dict:
    g = _resolve_graph(args.graph)
    report = invariant_report(g)
    return _envelope(
        args, "invariants", _graph_input(args, g), invariant_report_to_obj(report)
    )


def _cmd_beta(args) -> dict:
    g = _resolve_graph(args.graph)
    bounds = ratio_bounds(g, empirical_samples=args.empirical, seed=args.seed)
    return _envelope(
        args,
        "beta",
        _graph_input(args, g),
        ratio_bounds_to_obj(bounds),
        seed=args.seed,
    )


def _cmd_threshold(args) -> dict:
    g = _resolve_graph(args.graph)
    user = None if args.user_b is None else parse_fraction(args.user_b)
    threshold, meta = admission_threshold(g, user_bound=user)
    result = {"threshold": format_fraction(threshold)}
    for key, value in meta.items():
        result[key] = format_fraction(value) if isinstance(value, Fraction) else value
    return _envelope(args, "threshold", _graph_input(args, g), result)


def _cmd_simulate(args):
    if args.user_b is not None and args.policy != "user":
        raise GraphError("--user-b applies to --policy user only")
    g = _resolve_graph(args.graph)
    user = None if args.user_b is None else parse_fraction(args.user_b)
    outcome = evaluate_policy(
        g, samples=args.samples, seed=args.seed, policy=args.policy, user_bound=user
    )
    if args.format == "csv":
        return metrics_to_csv(outcome["rows"])
    summary = dict(outcome["summary"])
    for key, value in summary.items():
        if isinstance(value, Fraction):
            summary[key] = format_fraction(value)
    result = {
        "summary": summary,
        "rows": [metrics_row_to_obj(r) for r in outcome["rows"]],
    }
    return _envelope(
        args, "simulate", _graph_input(args, g), result, seed=args.seed
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopadmit",
        description="Exact scheduling and admission analysis for wireless links "
        "under 2-hop interference.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_flag=False):
        p.add_argument("graph", help="graph JSON file or shorthand like cycle:10")
        p.add_argument(
            "--cap-sets",
            type=int,
            default=DEFAULT_SET_CAP,
            help="abort enumerations beyond this many sets (exit 3)",
        )
        p.add_argument("--out", help="write the report here instead of stdout")
        if k_flag:
            p.add_argument(
                "--k", type=int, default=2, help="interference radius (default 2)"
            )

    p = sub.add_parser("conflict", help="emit the conflict graph")
    common(p, k_flag=True)
    p.set_defaults(run=_cmd_conflict)

    p = sub.add_parser("chif", help="exact minimum schedule duration")
    common(p, k_flag=True)
    p.add_argument("--demands", required=True, help="JSON file or inline JSON")
    p.add_argument(
        "--schedule", action="store_true", help="include an optimal schedule"
    )
    p.set_defaults(run=_cmd_chif)

    p = sub.add_parser("admit", help="admission decision for a demand vector")
    common(p, k_flag=True)
    p.add_argument("--demands", required=True, help="JSON file or inline JSON")
    p.add_argument("--mode", choices=("central", "distributed"), default="central")
    p.add_argument(
        "--threshold",
        help="distributed threshold: 'auto' (default) or a rational like 2/5",
    )
    p.set_defaults(run=_cmd_admit)

    p = sub.add_parser("invariants", help="conflict-graph invariant report")
    common(p)
    p.set_defaults(run=_cmd_invariants)

    p = sub.add_parser("beta", help="certified bounds on the local-global ratio")
    common(p)
    p.add_argument(
        "--empirical",
        type=int,
        default=0,
        help="extra random witness demands to try",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_beta)

    p = sub.add_parser("threshold", help="safe admission threshold")
    common(p)
    p.add_argument("--user-b", help="use 1/B for this ratio bound B instead")
    p.set_defaults(run=_cmd_threshold)

    p = sub.add_parser("simulate", help="random admission rounds vs the oracle")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--policy",
        choices=("theorem3", "user", "oracle-exact"),
        default="theorem3",
    )
    p.add_argument("--user-b", help="ratio bound B for the user policy")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_simulate)
    return parser


# Built by the first main call and reused by every later one.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # Library warnings reach stderr as one line each, without the source
    # location and line that the default formatter adds.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.cap_sets < 1:
                raise GraphError(f"--cap-sets must be at least 1, got {args.cap_sets}")
            with set_cap(args.cap_sets):
                report = args.run(args)
            _emit(report, args.out)
        except BrokenPipeError:
            # The reader closed stdout: send what is left, and the flush at
            # exit, to devnull, as the Python signal docs advise.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (GraphError, BoundUnavailableError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ResourceLimitError as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return 3
        except MemoryError:
            print("resource limit: out of memory", file=sys.stderr)
            return 3
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
