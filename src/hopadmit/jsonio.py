"""JSON and CSV wire formats.

Rationals travel as strings in lowest terms ("3/4", integers as "3"),
never as floats. Links travel as "u-v" ids, which is why vertex ids may
not contain "-". All JSON emitted here uses sorted keys so byte-identical
reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from typing import Mapping

from .analysis import RatioBounds
from .errors import GraphError, ResourceLimitError
from .graphs import (
    GENERATOR_LIMIT,
    GRAPH_FILE_LIMIT,
    ConflictGraph,
    Link,
    NetworkGraph,
    build_graph,
)
from .invariants import InvariantReport
from .scheduling import Schedule
from .simulate import SimTrace


# Python's default limit on the digits of an int converted from or to a
# string, used as the bound on a parsed decimal exponent.
DIGIT_LIMIT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise ResourceLimitError("a rational result has too many digits to print") from exc


def parse_fraction(text) -> Fraction:
    """The rational a string spells, or GraphError.

    A decimal exponent beyond DIGIT_LIMIT in magnitude is refused before
    Fraction would expand it.
    """
    value = str(text).strip()
    exponent = _EXPONENT.search(value)
    try:
        if exponent is None or abs(int(exponent.group(1))) <= DIGIT_LIMIT:
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"not a rational: {text!r}") from exc
    raise GraphError(f"exponent of {text!r} exceeds {DIGIT_LIMIT} in magnitude")


def link_id(link: Link) -> str:
    return f"{link[0]}-{link[1]}"


def graph_to_obj(g: NetworkGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.links],
    }


def graph_from_obj(obj) -> NetworkGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except KeyError as exc:
        raise GraphError(f"graph JSON is missing {exc.args[0]!r}") from exc
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphError("graph JSON 'vertices' and 'edges' must be lists")
    if max(len(vertices), len(edges)) > GENERATOR_LIMIT:
        raise ResourceLimitError(
            f"graph JSON lists {len(vertices)} vertices and {len(edges)} edges; "
            f"graphs allow at most {GENERATOR_LIMIT} of each"
        )
    for edge in edges:
        if not (
            isinstance(edge, list)
            and len(edge) == 2
            and all(isinstance(v, str) for v in edge)
        ):
            raise GraphError(f"edge {edge!r} must be a list of two vertex ids")
    for v in vertices:
        if isinstance(v, str) and "-" in v:
            raise GraphError(
                f"vertex id {v!r} contains '-', which link ids reserve"
            )
    return build_graph(vertices, edges)


def read_json_file(path: str, kind: str):
    """Parse the JSON in a file of at most GRAPH_FILE_LIMIT bytes.

    A longer file raises ResourceLimitError before it is decoded; a file
    that cannot be read, is not UTF-8 or is not JSON raises GraphError.
    kind names the file in messages ("graph", "demand").
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(GRAPH_FILE_LIMIT + 1)
    except OSError as exc:
        raise GraphError(f"cannot read {kind} file {path!r}: {exc}") from exc
    if len(data) > GRAPH_FILE_LIMIT:
        raise ResourceLimitError(
            f"{kind} file {path!r} is larger than {GRAPH_FILE_LIMIT} bytes"
        )
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GraphError(f"{kind} file {path!r} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise GraphError(f"{kind} file {path!r} is not valid JSON: {exc}") from exc


def load_graph(path: str) -> NetworkGraph:
    """Read a graph file of at most GRAPH_FILE_LIMIT bytes."""
    return graph_from_obj(read_json_file(path, "graph"))


def demands_to_obj(tau: Mapping[Link, Fraction]) -> dict:
    return {link_id(link): format_fraction(v) for link, v in sorted(tau.items())}


def demands_from_obj(obj, g: NetworkGraph) -> dict[Link, Fraction]:
    if not isinstance(obj, dict):
        raise GraphError("demands JSON must be an object of link id to rational")
    by_id = {link_id(link): link for link in g.links}
    out: dict[Link, Fraction] = {}
    for key, raw in obj.items():
        swapped = "-".join(reversed(key.split("-", 1))) if "-" in key else key
        link = by_id.get(key) or by_id.get(swapped)
        if link is None:
            raise GraphError(f"demand key {key!r} names no link of the graph")
        value = parse_fraction(raw)
        if value < 0:
            raise GraphError(f"demand for {key!r} is negative")
        out[link] = value
    return out


def schedule_to_obj(schedule: Schedule) -> list:
    return [
        {
            "links": sorted(link_id(l) for l in links),
            "duration": format_fraction(duration),
        }
        for links, duration in schedule.entries
    ]


def conflict_to_obj(gc: ConflictGraph) -> dict:
    pairs = []
    for i, nbrs in enumerate(gc.adj):
        for j in nbrs:
            if j > i:
                pairs.append([link_id(gc.links[i]), link_id(gc.links[j])])
    return {
        "k": gc.k,
        "links": [link_id(l) for l in gc.links],
        "conflicts": sorted(pairs),
    }


def ratio_bounds_to_obj(bounds: RatioBounds) -> dict:
    return {
        "lower": format_fraction(bounds.lower),
        "lower_source": bounds.lower_source,
        "lower_witness": demands_to_obj(bounds.lower_witness),
        "upper": None if bounds.upper is None else format_fraction(bounds.upper),
        "imp_upper": (
            None if bounds.imp_upper is None else format_fraction(bounds.imp_upper)
        ),
        "imp_certificate": bounds.imp_certificate,
        "lambda": bounds.cover_number,
        "exact": None if bounds.exact is None else format_fraction(bounds.exact),
    }


def invariant_report_to_obj(report: InvariantReport) -> dict:
    return {
        "nu": report.nu,
        "nu_witness": sorted(link_id(l) for l in report.nu_witness),
        "lambda": report.lam,
        "lambda_witness_links": sorted(link_id(l) for l in report.lam_witness_links),
        "lambda_witness_vertices": list(report.lam_witness_vertices),
        "imp_lower": format_fraction(report.imp_lower),
        "imp_lower_witness": demands_to_obj(report.imp_lower_witness),
        "imp_upper": (
            None if report.imp_upper is None else format_fraction(report.imp_upper)
        ),
        "imp_upper_certificate": report.imp_upper_certificate,
    }


def trace_to_obj(trace: SimTrace) -> dict:
    return {
        "threshold": format_fraction(trace.threshold),
        "messages": [
            {
                "round": m.round,
                "from": m.sender,
                "to": m.receiver,
                "links": m.link_count,
            }
            for m in trace.messages
        ],
        "views": [
            {
                "center": view.center,
                "subgraph": graph_to_obj(view.subgraph),
                "demands": demands_to_obj(dict(view.demands)),
                "local_value": format_fraction(view.local_value),
                "decision": "admit" if view.admit else "reject",
            }
            for view in trace.views
        ],
        "admit": trace.all_admit,
        "oracle_chif": format_fraction(trace.oracle_value),
        "oracle_feasible": trace.oracle_feasible,
        "classification": trace.classification,
    }


METRIC_COLUMNS = (
    "sample_id",
    "seed",
    "local_max",
    "oracle_chif",
    "decision",
    "classification",
)


def metrics_row_to_obj(row: Mapping) -> dict:
    return {
        "sample_id": row["sample_id"],
        "seed": row["seed"],
        "local_max": format_fraction(row["local_max"]),
        "oracle_chif": format_fraction(row["oracle_chif"]),
        "decision": row["decision"],
        "classification": row["classification"],
    }


def metrics_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=METRIC_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(metrics_row_to_obj(row))
    return buf.getvalue()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def input_digest(obj) -> str:
    packed = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(packed.encode("utf-8")).hexdigest()
