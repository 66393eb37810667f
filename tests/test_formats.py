"""Wire formats: rational strings, graph and demand JSON, CSV metrics."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from hopadmit import GraphError, build_graph, conflict_graph, cycle_graph, make_link
from hopadmit.cli import main
from hopadmit.jsonio import (
    METRIC_COLUMNS,
    canonical_json,
    conflict_to_obj,
    demands_from_obj,
    demands_to_obj,
    format_fraction,
    graph_from_obj,
    graph_to_obj,
    input_digest,
    link_id,
    metrics_to_csv,
    parse_fraction,
    schedule_to_obj,
    trace_to_obj,
    write_json,
)
from hopadmit.scheduling import min_schedule
from hopadmit.simulate import run_admission


def test_fraction_strings():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(10, 4)) == "5/2"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
    assert parse_fraction("5/2") == Fraction(5, 2)
    assert parse_fraction(" 7 ") == 7
    assert parse_fraction("10/4") == Fraction(5, 2)


def test_fraction_rejects_garbage():
    for bad in ("abc", "1/0", "2.5.1", ""):
        with pytest.raises(GraphError):
            parse_fraction(bad)


def test_fraction_round_trip():
    for num in range(-6, 7):
        for den in range(1, 7):
            value = Fraction(num, den)
            assert parse_fraction(format_fraction(value)) == value


def test_graph_round_trip():
    g = cycle_graph(7)
    assert graph_from_obj(graph_to_obj(g)) == g
    g2 = build_graph("abc", [("a", "b")])
    assert graph_from_obj(graph_to_obj(g2)) == g2


def test_graph_obj_validation():
    bad_objects = [
        ["not", "a", "dict"],
        {"vertices": ["a"]},
        {"vertices": ["a-b", "c"], "edges": [["a-b", "c"]]},
        {"vertices": ["a", "b"], "edges": [1]},
        {"vertices": None, "edges": []},
        {"vertices": ["a", "b"], "edges": [[["a"], "b"]]},
        {"vertices": ["a", "b"], "edges": ["ab"]},
    ]
    for bad in bad_objects:
        with pytest.raises(GraphError):
            graph_from_obj(bad)


def test_demands_round_trip():
    g = cycle_graph(5)
    tau = {g.links[0]: Fraction(1, 3), g.links[2]: Fraction(2)}
    obj = demands_to_obj(tau)
    assert obj == {link_id(g.links[0]): "1/3", link_id(g.links[2]): "2"}
    assert demands_from_obj(obj, g) == tau


def test_demands_accept_reversed_ids():
    g = cycle_graph(4)
    tau = demands_from_obj({"v2-v1": "1/2"}, g)
    assert tau == {make_link("v1", "v2"): Fraction(1, 2)}


def test_demands_obj_validation():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        demands_from_obj(["v1-v2"], g)
    with pytest.raises(GraphError):
        demands_from_obj({"v1-v3": "1"}, g)
    with pytest.raises(GraphError):
        demands_from_obj({"v1-v2": "-1/2"}, g)
    with pytest.raises(GraphError):
        demands_from_obj({"v1-v2": "fast"}, g)


def test_schedule_obj_shape():
    gc = conflict_graph(cycle_graph(5), 1)
    schedule = min_schedule(gc, {l: Fraction(1) for l in gc.links})
    obj = schedule_to_obj(schedule)
    total = sum(Fraction(entry["duration"]) for entry in obj)
    assert total == Fraction(5, 2)
    for entry in obj:
        assert entry["links"] == sorted(entry["links"])


def test_conflict_obj_shape():
    gc = conflict_graph(cycle_graph(5), 1)
    obj = conflict_to_obj(gc)
    assert obj["k"] == 1
    assert len(obj["links"]) == 5
    assert len(obj["conflicts"]) == 5
    assert obj["conflicts"] == sorted(obj["conflicts"])
    names = set(obj["links"])
    assert all(a in names and b in names for a, b in obj["conflicts"])


def test_trace_obj_shape():
    g = cycle_graph(6)
    tau = {make_link("v1", "v2"): Fraction(1, 4)}
    trace = run_admission(g, tau, Fraction(1, 3))
    obj = trace_to_obj(trace)
    assert obj["admit"] is True
    assert obj["classification"] == "true-admit"
    assert obj["threshold"] == "1/3"
    assert len(obj["messages"]) == 12
    assert {m["round"] for m in obj["messages"]} == {1}
    assert len(obj["views"]) == 6
    for view in obj["views"]:
        assert view["decision"] in ("admit", "reject")
        assert set(view["demands"]) == {
            link_id(make_link(u, v)) for u, v in
            graph_from_obj(view["subgraph"]).links
        }


def test_metrics_csv_round_trip():
    rows = [
        {
            "sample_id": 0,
            "seed": 9,
            "local_max": Fraction(1, 3),
            "oracle_chif": Fraction(5, 6),
            "decision": "admit",
            "classification": "true-admit",
        },
        {
            "sample_id": 1,
            "seed": 9,
            "local_max": Fraction(2),
            "oracle_chif": Fraction(3),
            "decision": "reject",
            "classification": "true-reject",
        },
    ]
    text = metrics_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == ",".join(METRIC_COLUMNS)
    assert len(parsed) == 2
    assert parsed[0]["local_max"] == "1/3"
    assert parsed[1]["oracle_chif"] == "3"
    assert parsed[1]["decision"] == "reject"


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    b = canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, {"c": 4, "d": 3}], "b": 1}
    assert a.splitlines()[1].startswith('  "')


def test_digest_depends_on_content_not_order():
    assert input_digest({"x": 1, "y": 2}) == input_digest({"y": 2, "x": 1})
    assert input_digest({"x": 1}) != input_digest({"x": 2})
    digest = input_digest(graph_to_obj(cycle_graph(6)))
    assert len(digest) == 64
    assert set(digest) <= set("0123456789abcdef")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_default_streaming_writes_large_output_in_chunks():
    obj = {"pairs": [[f"v{i}", f"v{i + 1}"] for i in range(20000)]}
    chunks = []
    write_json(obj, chunks.append)
    assert "".join(chunks) == _dumps(obj)
    assert len(chunks) > 1
    assert max(map(len, chunks)) < len(_dumps(obj)) // 4


@pytest.mark.parametrize(
    "obj",
    [
        Fraction(1, 2),
        {"a": [1, Fraction(1, 3)]},
        {("a", "b"): 1},
        [{"ok": 1}, {(1,): 2}],
    ],
)
def test_writer_raises_type_error_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        canonical_json(obj)
    with pytest.raises(TypeError):
        write_json(obj, lambda text: None)


class _Name(str):
    pass


@pytest.mark.parametrize(
    "obj", [{1: "a"}, {None: "a"}, {"a": 0.5}, [float("nan")], [_Name("a")]]
)
def test_writer_refuses_int_keys_and_floats(obj):
    """Stricter than json.dumps: keys are str only, no float is ever
    written, since rationals travel as strings, and scalars are of the
    exact types str, int, bool and None."""
    with pytest.raises(TypeError):
        canonical_json(obj)


CLI_COMMANDS = [
    ["conflict", "cycle:7"],
    ["conflict", "star:4", "--k", "1"],
    ["chif", "cycle:9", "--schedule", "--demands", '{"v1-v2": "1/2", "v2-v3": "1/3", "v5-v6": "2/3"}'],
    ["admit", "cycle:10", "--demands", '{"v1-v2": "1/3", "v3-v4": "1/2"}'],
    ["admit", "cycle:10", "--mode", "distributed", "--demands", '{"v1-v2": "1/3", "v3-v4": "1/2"}'],
    ["admit", "clique_pendant:3", "--mode", "distributed", "--threshold", "1/3", "--demands", '{"x1-y1": "1/4"}'],
    ["invariants", "clique_pendant:3"],
    ["beta", "cycle:10", "--empirical", "5"],
    ["threshold", "star:5"],
    ["simulate", "cycle:8", "--seed", "3", "--samples", "12"],
    ["simulate", "complete:4", "--seed", "1", "--samples", "5", "--policy", "oracle-exact"],
]


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_cli_output_is_a_json_dumps_fixed_point(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == _dumps(json.loads(out))
