"""JSON and CSV wire formats.

Rationals travel as strings in lowest terms ("3/4", integers as "3"),
never as floats. Links travel as "u-v" ids, which is why vertex ids may
not contain "-". All JSON emitted here uses sorted keys so byte-identical
reruns stay byte-identical.

`write_json` is the one JSON writer: a recursive encoder whose text is
exactly json.dumps(obj, sort_keys=True, indent=2) plus a newline, handed
to a write function in chunks at element boundaries, so a large result is
never held as one string. A list whose first element is a flat dict of
scalars, such as the rows of `simulate`, is written FLUSH_PIECES elements
at a time, column by column (`_row_writer`): a chunk of dicts with the
first one's keys and one exact scalar type per key goes out through one
%-template map and one write; any other chunk goes element by element.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
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
    """value in lowest terms as "p/q", or "p" when q is 1: str of a
    Fraction spells exactly that."""
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return str(value)
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
    keys: dict[Link, str] = {}
    for key, raw in obj.items():
        swapped = "-".join(reversed(key.split("-", 1))) if "-" in key else key
        link = by_id.get(key) or by_id.get(swapped)
        if link is None:
            raise GraphError(f"demand key {key!r} names no link of the graph")
        if link in keys:
            raise GraphError(f"demand keys {keys[link]!r} and {key!r} name the same link")
        keys[link] = key
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
    # Every pair shares the one id string of each link.
    names = [link_id(l) for l in gc.links]
    pairs = [[names[i], names[j]] for i, nbrs in enumerate(gc.adj) for j in nbrs if j > i]
    pairs.sort()
    return {"k": gc.k, "links": names, "conflicts": pairs}


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


# The JSON text of a scalar, by its exact type.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _row_writer(first, newline: str):
    """A writer for the chunks of a list shaped like its first element, or
    None unless first is a non-empty dict with str keys and scalar values.

    The writer takes a chunk of the list's elements and the separator
    before it, and returns that separator and the elements' texts, each
    starting on a line with indent newline and joined by "," and newline,
    or None unless every element is a dict with first's keys and each
    key's values are of one exact scalar type. It reads each column with
    one itemgetter map, converts it with one map of its type's text, and
    fills one %-template of the sorted keys per row.
    """
    if type(first) is not dict or not first:
        return None
    if not all(type(key) is str for key in first):
        return None
    if not all(type(value) in _SCALARS for value in first.values()):
        return None
    keys = sorted(first)
    width = len(keys)
    getters = [itemgetter(key) for key in keys]
    inner = newline + "  "
    joiner = "," + newline
    template = (
        "{"
        + inner
        + ("," + inner).join([_quote(key).replace("%", "%%") + ": %s" for key in keys])
        + newline
        + "}"
    )

    def write(chunk, sep: str) -> str | None:
        if set(map(type, chunk)) != {dict} or set(map(len, chunk)) != {width}:
            return None
        try:
            columns = [list(map(get, chunk)) for get in getters]
        except KeyError:
            return None
        texts = []
        for column in columns:
            types = set(map(type, column))
            if len(types) != 1:
                return None
            scalar = _SCALARS.get(types.pop())
            if scalar is None:
                return None
            texts.append(map(scalar, column))
        rows = list(map(template.__mod__, zip(*texts)))
        rows[0] = sep + rows[0]
        return joiner.join(rows)

    return write


def _encode(obj, parts: list[str], newline: str, flush) -> None:
    """Append the pieces of obj's canonical JSON to parts.

    newline is a line break plus the indent of the line obj starts on.
    flush is called after an element of a list or dict once parts holds
    FLUSH_PIECES pieces, and after each chunk of a list the row writer
    wrote, and is to empty parts. A scalar element goes out in one piece
    with the separator before it.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        parts.append(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                parts.append(sep + _quote(key) + ": ")
                _encode(value, parts, inner, flush)
            else:
                parts.append(sep + _quote(key) + ": " + scalar(value))
            if len(parts) >= FLUSH_PIECES:
                flush()
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        write_rows = _row_writer(obj[0], inner)
        if write_rows is None:
            _encode_items(obj, parts, "[" + inner, inner, flush)
        else:
            sep = "[" + inner
            for start in range(0, len(obj), FLUSH_PIECES):
                chunk = obj[start : start + FLUSH_PIECES]
                text = write_rows(chunk, sep)
                if text is None:
                    _encode_items(chunk, parts, sep, inner, flush)
                else:
                    parts.append(text)
                    flush()
                sep = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_items(values, parts: list[str], sep: str, inner: str, flush) -> None:
    """Append the pieces of the list elements values to parts, one by one,
    the first after sep and each later one after "," and inner, flushing
    as _encode does."""
    for value in values:
        scalar = _SCALARS.get(type(value))
        if scalar is None:
            parts.append(sep)
            _encode(value, parts, inner, flush)
        else:
            parts.append(sep + scalar(value))
        if len(parts) >= FLUSH_PIECES:
            flush()
        sep = "," + inner


# Pieces _encode collects before write_json passes them on as one string,
# and list elements the row writer takes as one chunk.
FLUSH_PIECES = 4096


def write_json(obj, write) -> None:
    """Write obj as JSON with sorted keys and an indent of 2, plus a
    newline, through write(text), a chunk at a time.

    obj may nest dicts with str keys, lists, tuples, str, int, bool and
    None; for those the text is exactly
    json.dumps(obj, sort_keys=True, indent=2) + "\n". Anything else,
    floats and subclasses of str or int other than bool included, and
    keys other than str raise TypeError.

    The pieces are joined and written whenever FLUSH_PIECES of them have
    gathered at the end of a list or dict element, and after each chunk of
    at most FLUSH_PIECES flat rows, so the whole text is never held at
    once.
    """
    parts: list[str] = []

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    _encode(obj, parts, "\n", flush)
    parts.append("\n")
    flush()


def input_digest(obj) -> str:
    packed = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(packed.encode("utf-8")).hexdigest()
