"""Two-round admission protocol and the policy harness around it."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest

from corpus import NON_CHORDAL_VIEW, family_graphs, random_connected_graph, random_corpus
from oracles import reference_evaluate_policy, traced_evaluate_policy
from hopadmit import (
    BoundUnavailableError,
    GraphError,
    admission_threshold,
    build_graph,
    clique_pendant_graph,
    conflict_graph,
    cycle_graph,
    duration_ratio,
    fractional_chromatic,
    local_views,
    make_link,
    one_hop_subgraph,
)
from hopadmit import simulate
from hopadmit.simulate import evaluate_policy, run_admission, sample_demands


def test_uniform_ring_admits():
    g = cycle_graph(10)
    tau = {l: Fraction(1, 5) for l in g.links}
    trace = run_admission(g, tau, Fraction(2, 5))
    assert trace.classification == "true-admit"
    assert trace.all_admit
    assert trace.oracle_value == Fraction(2, 3)
    assert trace.oracle_feasible
    assert {v.local_value for v in trace.views} == {Fraction(2, 5)}


def test_alternating_ring_rejects():
    g = cycle_graph(6)
    tau = {
        make_link("v1", "v2"): Fraction(1),
        make_link("v3", "v4"): Fraction(1),
        make_link("v5", "v6"): Fraction(1),
    }
    threshold, _ = admission_threshold(g)
    assert threshold == Fraction(1, 3)
    trace = run_admission(g, tau, threshold)
    assert trace.classification == "true-reject"
    assert not trace.all_admit
    assert trace.oracle_value == 3
    assert {v.local_value for v in trace.views} == {Fraction(1)}


def test_zero_demand_admits():
    trace = run_admission(cycle_graph(6), {}, Fraction(1, 3))
    assert trace.classification == "true-admit"
    assert trace.oracle_value == 0


def test_views_reconstruct_one_hop_subgraphs(seed=7, trials=10):
    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()]
    graphs += [random_connected_graph(rng, 7, 10) for _ in range(trials)]
    for g in graphs:
        tau = sample_demands(g, rng)
        trace = run_admission(g, tau, Fraction(1, 2))
        assert len(trace.messages) == 2 * len(g.links)
        assert [v.center for v in trace.views] == list(g.vertices)
        for view in trace.views:
            assert view.subgraph == one_hop_subgraph(g, view.center)
            seen = dict(view.demands)
            assert set(seen) == set(view.subgraph.links)
            for link, value in seen.items():
                assert value == tau.get(link, Fraction(0))
            local = {l: v for l, v in seen.items() if v > 0}
            expected = fractional_chromatic(conflict_graph(view.subgraph, 2), local)
            assert view.local_value == expected
            assert view.admit == (view.local_value <= Fraction(1, 2))


def test_trace_is_deterministic():
    g = cycle_graph(8)
    rng = random.Random(3)
    tau = sample_demands(g, rng)
    a = run_admission(g, tau, Fraction(1, 2))
    b = run_admission(g, tau, Fraction(1, 2))
    assert a == b


def test_run_admission_validates():
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        run_admission(g, {}, 0)
    with pytest.raises(GraphError):
        run_admission(g, {make_link("v1", "v3"): Fraction(1)}, Fraction(1, 2))


def test_scaling_preserves_decision_direction(seed=11, trials=25):
    """Shrinking an admitted demand keeps it admitted, and conversely."""
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_connected_graph(rng, 7, 10)
        tau = sample_demands(g, rng, target=Fraction(1, 2))
        trace = run_admission(g, tau, Fraction(1, 2))
        if trace.all_admit:
            smaller = {l: v / 2 for l, v in tau.items()}
            assert run_admission(g, smaller, Fraction(1, 2)).all_admit
        else:
            larger = {l: v * 2 for l, v in tau.items()}
            assert not run_admission(g, larger, Fraction(1, 2)).all_admit


def test_policy_rows_are_deterministic():
    g = cycle_graph(8)
    a = evaluate_policy(g, 25, seed=9)
    b = evaluate_policy(g, 25, seed=9)
    assert a == b
    assert repr(a["rows"]) == repr(b["rows"])


def test_certified_policy_never_false_admits():
    result = evaluate_policy(cycle_graph(10), 100, seed=1, policy="theorem3")
    summary = result["summary"]
    assert summary["false_admit"] == 0
    assert summary["threshold"] == Fraction(2, 5)
    assert summary["samples"] == 100
    assert sum(
        summary[k] for k in ("true_admit", "true_reject", "false_admit", "false_reject")
    ) == 100


def test_user_policy_sound_when_bound_dominates():
    result = evaluate_policy(
        cycle_graph(10), 60, seed=2, policy="user", user_bound=Fraction(3)
    )
    summary = result["summary"]
    assert summary["threshold"] == Fraction(1, 3)
    assert summary["false_admit"] == 0


def test_oracle_policy_never_misclassifies():
    result = evaluate_policy(clique_pendant_graph(3), 40, seed=4, policy="oracle-exact")
    summary = result["summary"]
    assert summary["false_admit"] == 0
    assert summary["false_reject"] == 0
    assert all(
        row["classification"] in ("true-admit", "true-reject")
        for row in result["rows"]
    )


def test_false_rejects_happen(monkeypatch):
    """A feasible demand above the local threshold is turned away."""

    def heavy_single_link(g, rng, count, goals=None):
        return 2, [([1] + [0] * (len(g.links) - 1), None) for _ in range(count)]

    monkeypatch.setattr(simulate, "_draw_samples", heavy_single_link)
    result = evaluate_policy(cycle_graph(10), 10, seed=0)
    summary = result["summary"]
    assert summary["false_reject"] == 10
    assert summary["false_admit"] == 0
    assert summary["false_reject_rate"] == 1


def test_pendant_ray_is_exactly_tight(monkeypatch):
    """Uniform pendant demands on the clique-pendant graph never misclassify.

    The automatic threshold is calibrated against exactly this family, so
    the local test and the oracle agree at every scale.
    """
    g = clique_pendant_graph(4)
    pendants = [make_link(f"x{i}", f"y{i}") for i in range(1, 5)]

    def pendant_ray(graph, rng, count, goals=None):
        scales = [rng.randint(1, 8) for _ in range(count)]
        return 8, [([c if link in pendants else 0 for link in graph.links], None) for c in scales]

    monkeypatch.setattr(simulate, "_draw_samples", pendant_ray)
    result = evaluate_policy(g, 40, seed=6)
    summary = result["summary"]
    assert summary["threshold"] == Fraction(1, 4)
    assert summary["false_reject"] == 0
    assert summary["false_admit"] == 0
    assert summary["true_admit"] > 0
    assert summary["true_reject"] > 0


def test_clique_link_demands_show_conservatism(monkeypatch):
    """The same graph turns away feasible single clique-link demands."""
    g = clique_pendant_graph(4)
    clique_link = make_link("x1", "x2")

    def single_clique_link(graph, rng, count, goals=None):
        scales = [rng.randint(3, 8) for _ in range(count)]
        vectors = [[c if link == clique_link else 0 for link in graph.links] for c in scales]
        return 8, [(vector, None) for vector in vectors]

    monkeypatch.setattr(simulate, "_draw_samples", single_clique_link)
    result = evaluate_policy(g, 30, seed=8)
    summary = result["summary"]
    assert summary["false_admit"] == 0
    assert summary["false_reject"] == 30
    assert summary["false_reject_rate"] == 1


def test_sweep_scales_each_sample_once(monkeypatch):
    """The sweep draws each sample as integers and prices them all in
    them in one price_scaled call, holding every vector of the sweep over
    the denominator the draws returned; it never normalizes or rescales
    demands, and on a chordal conflict graph (so every view's is chordal
    too) solves no covering LP."""
    from hopadmit import analysis, scheduling

    g = clique_pendant_graph(4)
    assert conflict_graph(g, 2).cliques is not None
    policies = ("theorem3", "oracle-exact")
    expected = {policy: evaluate_policy(g, 60, seed=21, policy=policy) for policy in policies}
    calls = []
    batches = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    def no_lp(*args, **kwargs):
        raise AssertionError("a covering LP was solved")

    real_price = simulate.price_scaled

    def recording_price(graph, vectors, den, cap):
        batches.append((len(vectors), den))
        return real_price(graph, vectors, den, cap)

    for name in ("integer_weights", "normalize_demands"):
        real = getattr(scheduling, name)
        for module in (analysis, scheduling, simulate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(scheduling, "solve_min_ge", no_lp)
    monkeypatch.setattr(simulate, "price_scaled", counting("price_scaled", recording_price))
    for policy in policies:
        calls.clear()
        batches.clear()
        assert evaluate_policy(g, 60, seed=21, policy=policy) == expected[policy]
        assert calls == ["price_scaled"], policy
        assert batches == [(60, 12)], policy


def test_sweep_prices_batches_of_bounded_size(monkeypatch):
    """A sweep whose vectors would hold more than _BATCH_ENTRIES entries
    is drawn and priced in batches of at most that many, one draw call
    and one pricing call per batch, and prints what one batch prints: the
    samples, their ids and the generator sequence run on across batches."""
    g = clique_pendant_graph(4)
    policies = ("theorem3", "oracle-exact")
    real_price, real_draw = simulate.price_scaled, simulate._draw_samples
    sizes = []
    draws = []

    def recording_price(graph, vectors, den, cap):
        sizes.append(len(vectors))
        return real_price(graph, vectors, den, cap)

    def recording_draw(graph, rng, count, denom_max=4, goals=None):
        draws.append(count)
        return real_draw(graph, rng, count, denom_max, goals)

    monkeypatch.setattr(simulate, "price_scaled", recording_price)
    monkeypatch.setattr(simulate, "_draw_samples", recording_draw)
    for policy in policies:
        sizes.clear()
        draws.clear()
        expected = evaluate_policy(g, 25, seed=5, policy=policy)
        assert sizes == draws == [25], policy
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_BATCH_ENTRIES", 4 * len(g.links) + 1)
            sizes.clear()
            draws.clear()
            assert evaluate_policy(g, 25, seed=5, policy=policy) == expected
            assert sizes == draws == [4] * 6 + [1], policy
            patch.setattr(simulate, "_BATCH_ENTRIES", 1)
            sizes.clear()
            draws.clear()
            assert evaluate_policy(g, 3, seed=5, policy=policy)["rows"] == expected["rows"][:3]
            assert sizes == draws == [1] * 3, policy


def test_sweep_builds_its_goal_table_once(monkeypatch):
    """The rescale goals, the target times each rescale factor, are built
    once per sweep and not for each batch or rescaled sample: every batch
    draw reads the same table, and a sweep of 120 samples in batches of 7
    multiplies as many Fractions as a sweep of one."""
    g = cycle_graph(6)
    real_draw = simulate._draw_samples
    real_mul, real_rmul = Fraction.__mul__, Fraction.__rmul__
    tables = []
    products = []

    def recording_draw(graph, rng, count, denom_max=4, goals=None):
        tables.append(goals)
        return real_draw(graph, rng, count, denom_max, goals)

    def counting(real):
        def wrapper(a, b):
            products.append(1)
            return real(a, b)

        return wrapper

    for policy in ("theorem3", "oracle-exact"):
        expected = evaluate_policy(g, 120, seed=4, policy=policy)
        target = expected["summary"]["threshold"] or Fraction(1)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_draw_samples", recording_draw)
            patch.setattr(simulate, "_BATCH_ENTRIES", 7 * len(g.links))
            patch.setattr(Fraction, "__mul__", counting(real_mul))
            patch.setattr(Fraction, "__rmul__", counting(real_rmul))
            counts = []
            for samples in (1, 120):
                tables.clear()
                products.clear()
                outcome = evaluate_policy(g, samples, seed=4, policy=policy)
                counts.append(len(products))
                assert len(tables) == -(-samples // 7)
                assert all(table is tables[0] for table in tables)
            assert outcome == expected
        assert counts[0] == counts[1], policy
        assert tables[0] == tuple(f * target for f in simulate._RESCALE_FACTORS)
        assert sum(row["local_max"] in tables[0] for row in outcome["rows"]) > 30


@pytest.mark.parametrize("g", [cycle_graph(10), NON_CHORDAL_VIEW], ids=["cycle:10", "non-chordal-view"])
def test_each_entry_point_checks_its_demands_once(monkeypatch, g):
    """run_admission, duration_ratio, local_views and fractional_chromatic
    each check and scale their demands once, then price the views and the
    oracle in the same integers."""
    from hopadmit import analysis, scheduling

    gc = conflict_graph(g, 2)
    assert gc.cliques is None
    tau = {link: Fraction(i % 3 + 1, i % 4 + 2) for i, link in enumerate(g.links)}
    calls = []
    real = scheduling.normalize_demands

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (analysis, scheduling, simulate):
        if hasattr(module, "normalize_demands"):
            monkeypatch.setattr(module, "normalize_demands", counting)
    entry_points = {
        "run_admission": lambda: run_admission(g, tau, Fraction(1, 2)),
        "duration_ratio": lambda: duration_ratio(g, tau),
        "local_views": lambda: local_views(g, tau),
        "fractional_chromatic": lambda: fractional_chromatic(gc, tau),
    }
    for name, call in entry_points.items():
        calls.clear()
        call()
        assert len(calls) == 1, name


def test_row_fields_are_consistent(seed=13):
    result = evaluate_policy(cycle_graph(6), 40, seed=seed)
    threshold = result["summary"]["threshold"]
    for row in result["rows"]:
        admit = row["decision"] == "admit"
        assert admit == (row["local_max"] <= threshold)
        feasible = row["oracle_chif"] <= 1
        expected = {
            (True, True): "true-admit",
            (True, False): "false-admit",
            (False, True): "false-reject",
            (False, False): "true-reject",
        }[(admit, feasible)]
        assert row["classification"] == expected
        assert row["seed"] == seed
    assert [row["sample_id"] for row in result["rows"]] == list(range(40))


def test_draw_keeps_the_fraction_draw(seed=19):
    """The integer draw makes the same calls on the generator as the draw
    in Fractions and spells the same vector and goal."""
    from oracles import fraction_draw

    rng = random.Random(seed)
    graphs = [g for _, g in family_graphs()] + random_corpus(seed, 10)
    for g in graphs:
        for target in (None, Fraction(2, 5)):
            state = rng.getstate()
            den, [(scaled, goal)] = simulate._draw_samples(
                g, rng, 1, goals=simulate._goal_table(target)
            )
            after = rng.getstate()
            rng.setstate(state)
            tau, expected_goal = fraction_draw(g, rng, target=target)
            assert rng.getstate() == after
            assert den == 12
            assert {l: Fraction(k, den) for l, k in zip(g.links, scaled) if k} == tau
            assert goal == expected_goal


def test_inline_draw_matches_randint():
    """The draw inlines CPython's rejection rule behind Random.randint. On
    the running interpreter it must give the integers of the draw through
    randint and leave the generator in the same state, so a change to that
    rule fails here instead of changing output."""
    from math import lcm

    from oracles import fraction_draw

    graphs = [
        build_graph("ab", [("a", "b")]),
        cycle_graph(5),
        cycle_graph(12),
    ]
    for g in graphs:
        for denom_max in range(1, 7):
            den = lcm(*range(1, denom_max + 1))
            for seed in range(2000):
                target = Fraction(2, 5) if seed % 2 else None
                rng = random.Random(seed)
                got_den, [(scaled, goal)] = simulate._draw_samples(
                    g, rng, 1, denom_max, simulate._goal_table(target)
                )
                ref = random.Random(seed)
                tau, expected_goal = fraction_draw(g, ref, denom_max, target)
                assert rng.getstate() == ref.getstate(), (len(g.links), denom_max, seed)
                assert got_den == den
                assert scaled == [tau[link] * den if link in tau else 0 for link in g.links]
                assert goal == expected_goal


def test_batch_draw_is_successive_fraction_draws():
    """A batch of 0, 1 or 7 samples is that many successive draws of one
    sample in Fractions, and leaves the generator where they leave it."""
    from math import lcm

    from oracles import fraction_draw

    graphs = [build_graph("ab", [("a", "b")]), cycle_graph(5), clique_pendant_graph(3)]
    for g in graphs:
        for denom_max in range(1, 7):
            den = lcm(*range(1, denom_max + 1))
            for target in (None, Fraction(2, 5)):
                goals = simulate._goal_table(target)
                for count in (0, 1, 7):
                    for seed in range(20):
                        rng, ref = random.Random(seed), random.Random(seed)
                        got_den, samples = simulate._draw_samples(g, rng, count, denom_max, goals)
                        expected = [fraction_draw(g, ref, denom_max, target) for _ in range(count)]
                        where = (len(g.links), denom_max, count, seed)
                        assert rng.getstate() == ref.getstate(), where
                        assert got_den == den
                        got = [
                            ({l: Fraction(k, den) for l, k in zip(g.links, scaled) if k}, goal)
                            for scaled, goal in samples
                        ]
                        assert got == expected


def test_sampler_output_shape(seed=17):
    rng = random.Random(seed)
    g = cycle_graph(9)
    for _ in range(50):
        tau = sample_demands(g, rng, denom_max=4)
        assert tau
        for link, value in tau.items():
            assert g.has_link(link)
            assert 0 < value <= 1
            assert value.denominator <= 4


def test_evaluate_policy_validates():
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        evaluate_policy(g, -1, seed=0)
    with pytest.raises(GraphError):
        evaluate_policy(build_graph("ab", []), 5, seed=0)
    with pytest.raises(GraphError):
        evaluate_policy(g, 5, seed=0, policy="user")
    with pytest.raises(GraphError):
        evaluate_policy(g, 5, seed=0, policy="coin-flip")


POLICIES = (
    ("theorem3", None),
    ("user", Fraction(5, 2)),
    ("user", Fraction(1)),
    ("oracle-exact", None),
)


def _outcome(evaluate, g, policy, user_bound, seed):
    """The sweep's result, or the type of error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # user bound below the lower bound
        try:
            return evaluate(g, 12, seed, policy=policy, user_bound=user_bound)
        except BoundUnavailableError as exc:
            return type(exc)


def test_policy_sweep_equals_traced_reference():
    """Deciding each sample without a trace gives the traced sweep's rows
    and summary, for every policy."""
    graphs = [g for _, g in family_graphs()] + random_corpus(29, 20, 7, 10)
    for index, g in enumerate(graphs):
        for policy, user_bound in POLICIES:
            expected = _outcome(traced_evaluate_policy, g, policy, user_bound, index)
            got = _outcome(evaluate_policy, g, policy, user_bound, index)
            assert got == expected, (index, policy)
            assert repr(got) == repr(expected), (index, policy)


def test_policy_sweep_equals_fraction_reference():
    """Drawing and pricing each sample in integers gives the rows and
    summary of the sweep in Fractions, for every policy, also where a
    view's or the whole conflict graph is not chordal."""
    graphs = [NON_CHORDAL_VIEW] + [g for _, g in family_graphs()] + random_corpus(31, 30, 8, 12)
    chordal = {conflict_graph(g, 2).cliques is not None for g in graphs}
    assert chordal == {True, False}
    for index, g in enumerate(graphs):
        for policy, user_bound in POLICIES:
            expected = _outcome(reference_evaluate_policy, g, policy, user_bound, index)
            got = _outcome(evaluate_policy, g, policy, user_bound, index)
            assert got == expected, (index, policy)
            assert repr(got) == repr(expected), (index, policy)


def test_policy_sweep_builds_no_trace(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the policy sweep ran the traced protocol")

    monkeypatch.setattr(simulate, "run_admission", forbidden)
    for policy, user_bound in POLICIES:
        result = _outcome(evaluate_policy, cycle_graph(10), policy, user_bound, 5)
        assert result["summary"]["policy"] == policy


def test_co_chordal_conflict_graph_is_priced_without_the_lp(capsys):
    """The radius-2 conflict graph of cycle:6 is the octahedron, which is
    co-chordal, so every sample's network-wide duration is its heaviest
    clique: with the covering LP made to fail, simulate prints exactly
    what it printed when the LP priced every sample (its sha256 below)."""
    import hashlib
    from unittest import mock

    from hopadmit.cli import main

    def no_lp(*args, **kwargs):
        raise AssertionError("the covering LP was solved")

    assert conflict_graph(cycle_graph(6), 2).cliques is None
    with mock.patch("hopadmit.simplex.solve_min_ge", no_lp), mock.patch(
        "hopadmit.scheduling.solve_min_ge", no_lp
    ):
        code = main(["simulate", "cycle:6", "--samples", "100", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c1535fb2b19d011d61950e8b3dcdd69e95916531fe8999ff3b5a94a38307e78"
    )


# sha256 of what simulate cycle:6 --seed 7 printed at --samples 0 and 1
# when each sample was priced on its own, before pricing took the whole
# sweep as one batch.
EDGE_DIGESTS = {
    ("0", "json"): "798a62e41ff88be3475b59dff2115727ea66f53153572a41ddb57dd890fea64a",
    ("0", "csv"): "4773a5b0f3fdf1d5616df340ad9f30c15734408dab466bcf9860a57876aaa270",
    ("1", "json"): "cf8c85792daf6950e2c57608a86c5e27659f1e13ad8ebf099c5ee27edf295321",
    ("1", "csv"): "9e1deaf5210c07e99ff1d83f3d1872ffaa947c28de44a6f9738a6047a8997fd3",
}


@pytest.mark.parametrize("samples,fmt", sorted(EDGE_DIGESTS))
def test_sweep_of_no_sample_or_one_prints_pinned_bytes(capsys, samples, fmt):
    import hashlib

    from hopadmit.cli import main

    code = main(["simulate", "cycle:6", "--samples", samples, "--seed", "7", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == EDGE_DIGESTS[samples, fmt]


# sha256 of what admit --mode distributed printed, in a directory holding
# NON_CHORDAL_VIEW as non_chordal_view.json, when each node's value came
# from a graph-shaped copy of its view: the protocol prices the view each
# node rebuilt from its inbox, as link indices, and prints the same bytes.
ADMIT_DIGESTS = {
    ("cycle:10", "auto"): "7b7526265beb6e5bd44609e982695880738cd3d8cd0701fc07f1ad9242b8f5e5",
    ("cycle:10", "1/2"): "e957b98632d26a950ad67d6d4356115ccdd21377e9119b325eeb99f84a13836a",
    ("star:12", "auto"): "21de760d98829b689231754d654c49274ef7283bb9924e7e471a0b4e70117bb3",
    ("star:12", "1/2"): "84c105eff326541013fdbe1ce2eef1807727730803d7b1899cc4b35e9afe6e13",
    ("circulant:9:1,3", "auto"): "f26d7c4522d2d78194cf0421387daa4ee17d5a800db43baa2933d0b386a7ca01",
    ("circulant:9:1,3", "1/2"): "93b41149ca5d3f9b062313e1810c7ab52fee4486749035a555f1088e13056eca",
    ("clique_pendant:4", "auto"): "39fd4a6426511c0c1d0190e5541df669e313696b6dfcc130853a8b16064f0232",
    ("clique_pendant:4", "1/2"): "12a76ebe0c5b9ae9aa5587789f3a8bd5dad2250a987f8026af4d24228e1eedf2",
    ("non_chordal_view.json", "auto"): "ae7c2e08b10f081680367649b69f12549c2bf4f72e6926d630f6e311e6927bfe",
    ("non_chordal_view.json", "1/2"): "2175baff8ec577c1623d9072b2ad7118cc2f5364dfd0d150374c60c6d4051567",
}


def test_distributed_admit_prints_pinned_bytes(capsys, monkeypatch, tmp_path):
    """Link i of each graph gets demand (i % 3) / (12 + i % 5), which gives
    true admits, true rejects and false rejects across these runs."""
    import hashlib
    import json

    from hopadmit import generate
    from hopadmit.cli import main
    from hopadmit.jsonio import graph_to_obj, link_id

    monkeypatch.chdir(tmp_path)
    (tmp_path / "non_chordal_view.json").write_text(json.dumps(graph_to_obj(NON_CHORDAL_VIEW)))
    for (spec, threshold), digest in ADMIT_DIGESTS.items():
        g = NON_CHORDAL_VIEW if spec.endswith(".json") else generate(spec)
        demands = {link_id(link): f"{i % 3}/{12 + i % 5}" for i, link in enumerate(g.links)}
        code = main([
            "admit", spec, "--mode", "distributed", "--threshold", threshold,
            "--demands", json.dumps(demands),
        ])
        out = capsys.readouterr().out
        assert code == 0, spec
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (spec, threshold)


# Two admission_sweep graphs with the seed the benchmark runs them at:
# adm/8/47, whose conflict graph is neither chordal nor co-chordal, so
# every sample solves the covering LP, and adm/12/5, which is chordal.
SWEEP_GRAPHS = {
    "adm_8_47.json": (
        622607,
        ["v1-v2", "v1-v7", "v2-v3", "v2-v6", "v3-v4", "v4-v5", "v5-v8", "v7-v8"],
    ),
    "adm_12_5.json": (
        39877,
        [
            "v1-v2", "v1-v3", "v1-v4", "v1-v5", "v1-v8", "v3-v5",
            "v3-v7", "v4-v5", "v5-v6", "v5-v7", "v6-v7", "v7-v8",
        ],
    ),
}

# sha256 of what simulate --samples 100 printed for those graphs when
# each rescaled sample built its goal as a product of Fractions and every
# row went through the general JSON encoder.
SWEEP_DIGESTS = {
    ("adm_8_47.json", "theorem3", "json"): "de2488f3221007d9ecb91b43e1ae034a6f43f14c86fa20f2e42edd25e45979dc",
    ("adm_8_47.json", "theorem3", "csv"): "4874041cb91feba79cca922b86d046e31ed2826b3baa854043e09e9ff520362e",
    ("adm_8_47.json", "oracle-exact", "json"): "11e125f903adae65e93c06942436f806e2a904dc619bfbe99f8822b0190170ef",
    ("adm_8_47.json", "oracle-exact", "csv"): "9606e5c51dcafcef1f76c05c3923f8a61546638a6d97e67dcccec0455f49b77a",
    ("adm_12_5.json", "theorem3", "json"): "e31c518d074efa40422bd19cd38381ac0394f974aa7d88d180cc19a183466884",
    ("adm_12_5.json", "theorem3", "csv"): "fe352561c84e09930062074964b23ef05f9f85e23b70d204b739d07d298fa8df",
    ("adm_12_5.json", "oracle-exact", "json"): "7613aa08ef20f16d2a6ce8fc8754e5f27f1ac7eadf0f8f8fb2ebd5068b7dc5fa",
    ("adm_12_5.json", "oracle-exact", "csv"): "c816fd61cd8fe1a652ed0f019822bf9ec6340ddb2b0b3fc945483866e6cedb32",
}


def test_sweep_prints_pinned_bytes(capsys, monkeypatch, tmp_path):
    """Rows drawn with the goal table and written through the row template
    print the bytes pinned above, and about 60% of them are rescaled."""
    import hashlib
    import json

    from hopadmit.cli import main

    monkeypatch.chdir(tmp_path)
    for name, (seed, links) in SWEEP_GRAPHS.items():
        edges = [link.split("-") for link in links]
        vertices = sorted({v for edge in edges for v in edge})
        (tmp_path / name).write_text(json.dumps({"vertices": vertices, "edges": edges}))
        g = build_graph(vertices, edges)
        for policy in ("theorem3", "oracle-exact"):
            outcome = evaluate_policy(g, 100, seed, policy=policy)
            goals = simulate._goal_table(outcome["summary"]["threshold"] or Fraction(1))
            assert sum(row["local_max"] in goals for row in outcome["rows"]) > 50
    for (name, policy, fmt), digest in SWEEP_DIGESTS.items():
        seed = SWEEP_GRAPHS[name][0]
        code = main([
            "simulate", name, "--policy", policy, "--samples", "100",
            "--seed", str(seed), "--format", fmt,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, policy, fmt)
