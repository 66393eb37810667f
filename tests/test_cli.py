"""End-to-end command line behavior: envelopes, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hopadmit
from hopadmit import __version__, cycle_graph
from hopadmit.cli import main
from hopadmit.jsonio import METRIC_COLUMNS, graph_to_obj, input_digest


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _src_env():
    src = str(Path(hopadmit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def test_beta_envelope(capsys):
    code, out, err = _run(capsys, "beta", "cycle:10")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["tool"] == "hopadmit"
    assert envelope["version"] == __version__
    assert envelope["command"] == "beta"
    assert envelope["seed"] == 0
    assert envelope["caps"]["sets"] > 0
    assert envelope["input"]["graph"] == "cycle:10"
    assert envelope["input"]["digest"] == input_digest(graph_to_obj(cycle_graph(10)))
    result = envelope["result"]
    assert result["exact"] == "5/2"
    assert result["lower"] == "5/2"
    assert result["upper"] == "5/2"
    assert result["lambda"] == 2
    assert result["imp_upper"] == "5/4"
    assert result["imp_certificate"] == "ring-formula"
    assert result["lower_source"] == "odd-cycle"
    assert len(result["lower_witness"]) == 5


def test_output_is_byte_stable(capsys):
    first = _run(capsys, "beta", "cycle:10")
    second = _run(capsys, "beta", "cycle:10")
    assert first == second


def test_chif_alternating_ring(capsys):
    envelope = _run_json(
        capsys,
        "chif",
        "cycle:6",
        "--demands",
        '{"v1-v2":"1","v3-v4":"1","v5-v6":"1"}',
    )
    result = envelope["result"]
    assert result["chi_f"] == "3"
    assert result["feasible"] is False
    assert result["k"] == 2
    assert envelope["input"]["demands"]["v1-v2"] == "1"


def test_chif_schedule_option(capsys):
    demands = json.dumps({f"v{i}-v{i % 5 + 1}": "1" for i in range(1, 6)})
    envelope = _run_json(
        capsys, "chif", "cycle:5", "--k", "1", "--demands", demands, "--schedule"
    )
    result = envelope["result"]
    assert result["chi_f"] == "5/2"
    assert result["k"] == 1
    total = sum(Fraction(entry["duration"]) for entry in result["schedule"])
    assert total == Fraction(5, 2)


def test_conflict_line_graph(capsys):
    envelope = _run_json(capsys, "conflict", "cycle:5", "--k", "1")
    result = envelope["result"]
    assert result["k"] == 1
    assert len(result["links"]) == 5
    assert len(result["conflicts"]) == 5


def test_admit_central(capsys):
    demands = json.dumps({f"v{i}-v{i % 10 + 1}": "1/5" for i in range(1, 11)})
    envelope = _run_json(capsys, "admit", "cycle:10", "--demands", demands)
    result = envelope["result"]
    assert result == {"admit": True, "chi_f": "2/3", "k": 2}
    assert envelope["input"]["mode"] == "central"


def test_admit_distributed(capsys, tmp_path):
    demand_file = tmp_path / "demands.json"
    demand_file.write_text(
        json.dumps({f"v{i}-v{i % 10 + 1}": "1/5" for i in range(1, 11)})
    )
    envelope = _run_json(
        capsys,
        "admit",
        "cycle:10",
        "--demands",
        str(demand_file),
        "--mode",
        "distributed",
        "--threshold",
        "auto",
    )
    result = envelope["result"]
    assert result["admit"] is True
    assert result["classification"] == "true-admit"
    assert result["threshold"] == "2/5"
    assert len(result["messages"]) == 20
    assert len(result["views"]) == 10
    assert envelope["input"]["mode"] == "distributed"


def test_admit_distributed_fixed_threshold(capsys):
    demands = json.dumps({f"v{i}-v{i % 10 + 1}": "1/5" for i in range(1, 11)})
    envelope = _run_json(
        capsys,
        "admit",
        "cycle:10",
        "--demands",
        demands,
        "--mode",
        "distributed",
        "--threshold",
        "1/5",
    )
    result = envelope["result"]
    assert result["admit"] is False
    assert result["classification"] == "false-reject"


def test_threshold_auto(capsys):
    envelope = _run_json(capsys, "threshold", "cycle:10")
    result = envelope["result"]
    assert result["threshold"] == "2/5"
    assert result["source"] == "auto"
    assert result["certificate"] == "ring-formula"
    assert result["cover_number"] == 2


def test_threshold_user_bound(capsys):
    envelope = _run_json(capsys, "threshold", "cycle:13", "--user-b", "3")
    assert envelope["result"] == {
        "threshold": "1/3",
        "source": "user",
        "ratio_bound": "3",
    }


def test_threshold_unavailable_exits_2(capsys):
    code, out, err = _run(capsys, "threshold", "cycle:13")
    assert code == 2
    assert "error:" in err


def test_invariants_command(capsys):
    envelope = _run_json(capsys, "invariants", "cycle:10")
    result = envelope["result"]
    assert result["nu"] == 2
    assert result["lambda"] == 2
    assert result["imp_upper"] == "5/4"
    assert len(result["lambda_witness_vertices"]) == 2


def test_simulate_csv(capsys):
    code, out, err = _run(
        capsys, "simulate", "cycle:6", "--samples", "8", "--seed", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == 9


def test_simulate_json(capsys):
    envelope = _run_json(
        capsys, "simulate", "cycle:6", "--samples", "8", "--seed", "3"
    )
    assert envelope["seed"] == 3
    summary = envelope["result"]["summary"]
    assert summary["samples"] == 8
    assert summary["false_admit"] == 0
    assert summary["threshold"] == "1/3"
    assert len(envelope["result"]["rows"]) == 8
    assert set(envelope["result"]["rows"][0]) == set(METRIC_COLUMNS)


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "cycle:6"])
    assert exc.value.code == 2


def test_out_file_matches_stdout(capsys, tmp_path):
    code, stdout_text, _ = _run(capsys, "beta", "cycle:6")
    assert code == 0
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "beta", "cycle:6", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == stdout_text


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(
        capsys, "chif", "cycle:5", "--demands", '{"v1-v2":"1"}', "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert not target.exists()


def test_negative_empirical_count_exits_2(capsys):
    code, out, err = _run(capsys, "beta", "cycle:6", "--empirical", "-3")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_sample_counts_above_limit_exit_3(capsys, monkeypatch):
    from hopadmit import analysis, simulate
    from hopadmit.analysis import SAMPLE_LIMIT

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(analysis, "_empirical_demands", no_draw)
    monkeypatch.setattr(simulate, "_draw_samples", no_draw)
    over = str(SAMPLE_LIMIT + 1)
    assert over == "100001"
    for argv in (
        ("beta", "cycle:6", "--empirical", over),
        ("simulate", "cycle:6", "--seed", "1", "--samples", over),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "resource limit" in err
    code, out, err = _run(capsys, "simulate", "cycle:6", "--seed", "1", "--samples", "-1")
    assert code == 2
    assert "error:" in err


def test_user_bound_outside_user_policy_exits_2(capsys):
    for policy in ("theorem3", "oracle-exact"):
        code, out, err = _run(
            capsys, "simulate", "cycle:6", "--seed", "1", "--samples", "2",
            "--policy", policy, "--user-b", "3",
        )
        assert code == 2, policy
        assert out == ""
        assert "error:" in err


def test_threshold_in_central_mode_exits_2(capsys):
    demands = json.dumps({"v1-v2": "1/5"})
    for threshold in ("0", "auto", "1/5"):
        code, out, err = _run(
            capsys, "admit", "cycle:6", "--demands", demands, "--mode", "central",
            "--threshold", threshold,
        )
        assert code == 2, threshold
        assert out == ""
        assert "error:" in err
    # Without the flag, distributed mode still defaults to 'auto'.
    auto = _run_json(capsys, "admit", "cycle:6", "--demands", demands, "--mode", "distributed")
    explicit = _run_json(
        capsys, "admit", "cycle:6", "--demands", demands, "--mode", "distributed",
        "--threshold", "auto",
    )
    assert auto == explicit


def test_missing_graph_file_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, "beta", str(tmp_path / "nosuch.json"))
    assert code == 2
    assert "error:" in err


def test_bad_generator_exits_2(capsys):
    code, _, err = _run(capsys, "beta", "cycle:abc")
    assert code == 2
    assert "error:" in err


def test_malformed_inline_demands_exit_2(capsys):
    code, _, err = _run(capsys, "chif", "cycle:6", "--demands", "{not json")
    assert code == 2
    assert "error:" in err


def test_unknown_demand_link_exits_2(capsys):
    code, _, err = _run(capsys, "chif", "cycle:6", "--demands", '{"v1-v4":"1"}')
    assert code == 2
    assert "error:" in err


def test_demand_naming_one_link_twice_exits_2(capsys):
    code, out, err = _run(
        capsys, "chif", "cycle:5", "--demands", '{"v1-v2":"1/2","v2-v1":"9"}'
    )
    assert code == 2
    assert out == ""
    assert "'v1-v2' and 'v2-v1'" in err


def test_commands_build_one_conflict_graph_and_no_view(capsys, monkeypatch, tmp_path):
    """beta, invariants, threshold, simulate and admit --mode distributed
    read each 1-hop view as link indices of the graph's radius-2 conflict
    graph: each command builds that conflict graph once and no view as a
    graph."""
    import hopadmit.graphs as graphs
    from corpus import NON_CHORDAL_VIEW
    from hopadmit.jsonio import link_id

    path = tmp_path / "non_chordal_view.json"
    path.write_text(json.dumps(graph_to_obj(NON_CHORDAL_VIEW)))
    builds, views = [], []
    build, one_hop = graphs._build_conflict_graph, graphs.one_hop_subgraph

    def counting_build(g, k):
        builds.append(k)
        return build(g, k)

    def counting_view(g, v):
        views.append(v)
        return one_hop(g, v)

    monkeypatch.setattr(graphs, "_build_conflict_graph", counting_build)
    monkeypatch.setattr(graphs, "one_hop_subgraph", counting_view)
    for spec in ("cycle:10", "star:12", "circulant:9:1,3", str(path)):
        g = NON_CHORDAL_VIEW if spec == str(path) else hopadmit.generate(spec)
        demands = json.dumps({link_id(link): "1/5" for link in g.links})
        for argv in (
            ["beta", spec],
            ["invariants", spec],
            ["threshold", spec],
            ["simulate", spec, "--samples", "20", "--seed", "1"],
            ["admit", spec, "--mode", "distributed", "--demands", demands],
        ):
            builds.clear()
            views.clear()
            code, _, err = _run(capsys, *argv)
            assert code in (0, 2), err
            assert (builds, views) == ([2], []), argv


def test_ray_cap_exits_3(capsys, monkeypatch):
    # cycle:7's conflict graph is one 7-cycle of links, so the invariants'
    # upper bound enumerates the vertices of its clique polytope.
    from hopadmit import qstab

    monkeypatch.setattr(qstab, "DEFAULT_RAY_CAP", 3)
    code, out, err = _run(capsys, "invariants", "cycle:7")
    assert code == 3
    assert out == ""
    assert "resource limit:" in err


def test_memory_error_exits_3(capsys, monkeypatch):
    """Running out of memory is a resource limit: exit 3 and one stderr
    line, never a traceback. The command raises MemoryError itself, so no
    memory is exhausted."""
    from hopadmit import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "ratio_bounds", out_of_memory)
    code, out, err = _run(capsys, "beta", "cycle:6")
    assert (code, out, err) == (3, "", "resource limit: out of memory\n")


def test_tiny_cap_exits_3(capsys):
    demands = json.dumps({f"v{i}-v{i % 10 + 1}": "1" for i in range(1, 11)})
    code, _, err = _run(
        capsys, "chif", "cycle:10", "--cap-sets", "1", "--demands", demands
    )
    assert code == 3
    assert "resource limit" in err


def test_cap_sets_spares_chordal_components(capsys):
    # The conflict graph of complete:5 is a clique on 10 links: settled by
    # its heaviest clique, with no set enumeration for the cap to stop.
    demands = json.dumps({"v1-v2": "1/4", "v3-v4": "1/3", "v2-v5": "1/6"})
    envelope = _run_json(
        capsys, "chif", "complete:5", "--cap-sets", "1", "--demands", demands
    )
    assert envelope["result"]["chi_f"] == "3/4"


def test_cap_sets_spares_co_chordal_graphs(capsys):
    # The conflict graph of cycle:6 is the octahedron: not chordal, but its
    # complement (three disjoint edges) is, so it is settled by its
    # heaviest clique with no set enumeration for the cap to stop. That of
    # cycle:10 is neither, and the cap still stops it (test_tiny_cap_exits_3).
    demands = json.dumps({f"v{i}-v{i % 6 + 1}": f"1/{i + 1}" for i in range(1, 7)})
    envelope = _run_json(
        capsys, "chif", "cycle:6", "--cap-sets", "1", "--demands", demands
    )
    # One link of each opposite pair: 1/2 + 1/3 + 1/4.
    assert envelope["result"]["chi_f"] == "13/12"


def test_oversized_generator_exits_3(capsys):
    for spec in (
        "cycle:99999999999999999999",
        "complete:100000",
        "clique_pendant:100000",
        "star:99999999999",
        "circulant:10000000:1,2",
    ):
        code, out, err = _run(capsys, "conflict", spec)
        assert code == 3
        assert out == ""
        assert "resource limit" in err


def test_matching_search_has_no_link_limit(capsys):
    envelope = _run_json(capsys, "beta", "complete:12")
    assert envelope["result"]["exact"] == "1"
    assert len(envelope["result"]["lower_witness"]) == 6


def test_malformed_graph_json_exits_2(capsys, tmp_path):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text('{"vertices": ["a", "b"], "edges": ["ab"]}')
    code, out, err = _run(capsys, "beta", str(graph_file))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_distributed_admit_rejects_other_radius(capsys):
    demands = json.dumps({"v1-v2": "1/2", "v3-v4": "1/2", "v5-v6": "1/2"})
    code, out, err = _run(
        capsys, "admit", "cycle:8", "--demands", demands,
        "--mode", "distributed", "--k", "1",
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "radius 2" in err


def test_cap_sets_below_one_exits_2(capsys):
    for cap in ("0", "-1"):
        code, out, err = _run(capsys, "beta", "cycle:6", "--cap-sets", cap)
        assert code == 2
        assert out == ""
        assert "error:" in err


def test_file_shorthand_ambiguity(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle:6").write_text("{}")
    code, _, err = _run(capsys, "conflict", "cycle:6")
    assert code == 2
    assert "both" in err


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hopadmit.cli", "beta", "cycle:6"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    assert envelope["tool"] == "hopadmit"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_oversized_graph_json_exits_3(capsys, tmp_path):
    from hopadmit.graphs import GENERATOR_LIMIT

    many = GENERATOR_LIMIT + 1
    wide = {"vertices": [f"v{i}" for i in range(many)], "edges": []}
    long = {"vertices": ["a", "b"], "edges": [["a", "b"]] * many}
    for name, obj in (("wide", wide), ("long", long)):
        graph_file = tmp_path / f"{name}.json"
        graph_file.write_text(json.dumps(obj))
        code, out, err = _run(capsys, "conflict", str(graph_file))
        assert code == 3, name
        assert out == ""
        assert "resource limit" in err
    at_limit = {"vertices": [f"v{i}" for i in range(GENERATOR_LIMIT)], "edges": []}
    graph_file = tmp_path / "at_limit.json"
    graph_file.write_text(json.dumps(at_limit))
    code, _, err = _run(capsys, "conflict", str(graph_file))
    assert code == 0, err


def test_oversized_graph_file_exits_3_before_parsing(capsys, tmp_path):
    from hopadmit.graphs import GRAPH_FILE_LIMIT

    small = json.dumps(graph_to_obj(cycle_graph(6)))
    at_limit = tmp_path / "at_limit.json"
    at_limit.write_text(small.ljust(GRAPH_FILE_LIMIT))
    code, _, err = _run(capsys, "conflict", str(at_limit))
    assert code == 0, err
    padded = tmp_path / "padded.json"
    padded.write_text(small.ljust(GRAPH_FILE_LIMIT + 1))
    code, out, err = _run(capsys, "conflict", str(padded))
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_oversized_graph_file_keeps_memory_small(tmp_path):
    pytest.importorskip("resource")
    padded = tmp_path / "padded.json"
    padded.write_text(json.dumps(graph_to_obj(cycle_graph(6))).ljust(32 << 20))
    probe = (
        "import resource, sys\n"
        "from hopadmit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    )

    def peak_kb(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=_src_env()
        )
        code, peak = proc.stderr.split()[-2:]
        return int(code), int(peak)

    small_code, small_peak = peak_kb("conflict", "cycle:5")
    padded_code, padded_peak = peak_kb("conflict", str(padded))
    assert (small_code, padded_code) == (0, 3)
    # Peaks are in KiB (Linux). Parsing the 32 MiB file would take well
    # over 32 MB.
    assert padded_peak - small_peak < 8 * 1024


def test_non_utf8_graph_file_exits_2(capsys, tmp_path):
    graph_file = tmp_path / "latin1.json"
    graph_file.write_bytes('{"vertices": ["\xe9"], "edges": []}'.encode("latin-1"))
    code, out, err = _run(capsys, "conflict", str(graph_file))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_oversized_demand_file_exits_3_before_parsing(capsys, tmp_path):
    from hopadmit.graphs import GRAPH_FILE_LIMIT

    small = json.dumps({"v1-v2": "1", "v3-v4": "1/2"})
    at_limit = tmp_path / "at_limit.json"
    at_limit.write_text(small.ljust(GRAPH_FILE_LIMIT))
    code, _, err = _run(capsys, "chif", "cycle:6", "--demands", str(at_limit))
    assert code == 0, err
    padded = tmp_path / "padded.json"
    padded.write_text(small.ljust(GRAPH_FILE_LIMIT + 1))
    code, out, err = _run(capsys, "chif", "cycle:6", "--demands", str(padded))
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_non_utf8_demand_file_exits_2(capsys, tmp_path):
    demand_file = tmp_path / "latin1.json"
    demand_file.write_bytes('{"v1-v2": "1", "\xe9": "1"}'.encode("latin-1"))
    code, out, err = _run(capsys, "chif", "cycle:6", "--demands", str(demand_file))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "UTF-8" in err


# First cap of INVARIANT_CAPS at which `invariants` exits 0 (below it, it
# exits 3); None if it exits 3 at every cap. The cap bounds the searches a
# run makes, and `invariants` certifies the upper bound first and stops the
# lower-bound replay once it is reached, so the searches behind the skipped
# candidates never count against it.
INVARIANT_CAPS = (1, 2, 3, 5, 8, 13, 21, 55, 1000)
INVARIANT_CAP_THRESHOLDS = {
    "cycle:5": 2,
    "cycle:7": 55,
    "cycle:9": 13,
    "complete:4": 2,
    "complete:5": 5,
    "clique_pendant:3": 3,
    "clique_pendant:4": 5,
    "star:5": 1,
    "star:8": 1,
    "circulant:9:1,3": 55,
    "circulant:8:1,2": 1000,
    "cycle:10": 55,
    "cycle:14": 1000,
    "cycle:18": 1000,
    "cycle:22": 1000,
}

# The same for `beta`, over the same caps.
BETA_CAP_THRESHOLDS = {
    "cycle:5": 2,
    "cycle:7": 8,
    "cycle:9": 13,
    "complete:4": 2,
    "complete:5": 5,
    "clique_pendant:3": 3,
    "clique_pendant:4": 5,
    "star:5": 1,
    "star:8": 1,
    "circulant:9:1,3": 55,
    "circulant:8:1,2": 21,
    "cycle:10": 13,
    "cycle:14": 1000,
    "cycle:18": 1000,
    "cycle:22": 1000,
}


def _check_cap_thresholds(capsys, command, thresholds):
    for spec, threshold in thresholds.items():
        for cap in INVARIANT_CAPS:
            code, _, err = _run(capsys, command, spec, "--cap-sets", str(cap))
            expected = 0 if threshold is not None and cap >= threshold else 3
            assert code == expected, (spec, cap, err)


def test_invariants_cap_sets_exit_codes(capsys):
    _check_cap_thresholds(capsys, "invariants", INVARIANT_CAP_THRESHOLDS)


def test_beta_cap_sets_exit_codes(capsys):
    _check_cap_thresholds(capsys, "beta", BETA_CAP_THRESHOLDS)


def test_python_dash_m_matches_main(capsys):
    argv = ["chif", "cycle:6", "--demands", '{"v1-v2":"1","v3-v4":"1/2"}']
    code, out, _ = _run(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "hopadmit", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0


def test_distributed_threshold_must_be_positive(capsys):
    for text in ("0", "-1/2", "0/7"):
        code, out, err = _run(
            capsys, "admit", "cycle:6", "--demands", '{"v1-v2": "1/5"}',
            "--mode", "distributed", f"--threshold={text}",
        )
        assert (code, out, err) == (2, "", "error: threshold must be positive\n"), text


def test_rational_text_prints_lowest_terms(capsys):
    for text, printed in (("3/4", "3/4"), ("0.25", "1/4"), ("1e-3", "1/1000")):
        envelope = _run_json(capsys, "chif", "cycle:5", "--demands", json.dumps({"v1-v2": text}))
        assert envelope["input"]["demands"] == {"v1-v2": printed}
        assert envelope["result"]["chi_f"] == printed
        envelope = _run_json(
            capsys, "admit", "cycle:5", "--demands", '{"v1-v2": "1/5"}',
            "--mode", "distributed", "--threshold", text,
        )
        assert envelope["result"]["threshold"] == printed


def test_oversized_exponents_exit_2(capsys):
    """Exponent text that Fraction would expand past the 4,300-digit int
    limit is refused before it is expanded."""
    for text in ("1e-5000", "1e999999999", "0e5000", "1e" + "9" * 5000):
        for argv in (
            ("chif", "cycle:5", "--demands", json.dumps({"v1-v2": text})),
            ("admit", "cycle:5", "--demands", '{"v1-v2": "1/5"}', "--mode", "distributed",
             "--threshold", text),
            ("threshold", "cycle:5", "--user-b", text),
            ("simulate", "cycle:5", "--seed", "1", "--samples", "2", "--policy", "user",
             "--user-b", text),
        ):
            start = time.perf_counter()
            code, out, err = _run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:"), argv


def test_result_past_digit_limit_exits_3(capsys):
    big = 10**2200
    demands = json.dumps({"v1-v2": f"1/{big + 1}", "v2-v3": f"1/{big + 3}"})
    code, out, err = _run(capsys, "chif", "cycle:5", "--demands", demands)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:")


def test_oversized_json_integers_exit_2(capsys, tmp_path):
    digits = "9" * 5000
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(
        '{"vertices": ["a", "b"], "edges": [["a", "b"]], "x": ' + digits + "}"
    )
    code, out, err = _run(capsys, "invariants", str(graph_file))
    assert (code, out) == (2, "")
    assert "is not valid JSON" in err
    code, out, err = _run(capsys, "chif", "cycle:5", "--demands", '{"v1-v2": ' + digits + "}")
    assert (code, out) == (2, "")
    assert "are not valid JSON" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    from hopadmit import cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    first = _run(capsys, "beta", "cycle:10")
    with pytest.raises(SystemExit) as exc:
        main(["chif", "cycle:6"])
    assert exc.value.code == 2
    assert "--demands" in capsys.readouterr().err
    second = _run(capsys, "beta", "cycle:10")
    assert len(built) == 1
    assert first == second
    assert first[0] == 0


def test_user_bound_warning_is_one_stderr_line(capsys):
    """A user bound below the certified lower bound warns on stderr as one
    `warning:` line, with no source location, and leaves stdout alone."""
    line = (
        "warning: user ratio bound 3/4 is below the certified lower bound 2; "
        "admissions may be unsound\n"
    )
    for argv in (
        ("threshold", "cycle:5", "--user-b", "3/4"),
        ("simulate", "cycle:5", "--seed", "1", "--samples", "3", "--policy", "user",
         "--user-b", "3/4"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, line), argv
        proc = subprocess.run(
            [sys.executable, "-m", "hopadmit", *argv],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, line), argv
        result = json.loads(out)["result"]
        if argv[0] == "threshold":
            assert result == {"ratio_bound": "3/4", "source": "user", "threshold": "4/3"}
        else:
            assert result["summary"]["threshold"] == "4/3"


def test_large_clique_search_needs_no_recursion(capsys):
    """star:200 has a 200-link conflict clique. The clique searches keep
    their own stack, so a recursion limit far below 200 frames still lets
    threshold finish."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        code, out, err = _run(capsys, "threshold", "star:200")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["threshold"] == "1"
