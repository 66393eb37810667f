"""Round-based simulation of distributed admission control.

Round 0: every node knows its incident links and their demands. Round 1:
every node sends that knowledge to each neighbor. A node then rebuilds
exactly the links inside its closed neighborhood, prices that view, as
link indices, by ``analysis._view_value``, and admits when its value
stays within the threshold. The protocol is defined at interference
radius 2 only. The run is compared against a centralized feasibility
oracle and classified; everything is deterministic for fixed inputs.

``_decide`` is the one place that turns the largest view value and the
oracle's value, over one denominator, into a decision and its
classification, by integer comparisons. ``run_admission`` scales the
demands to integers once (``scheduling.scale_demands``), prices the
oracle and the view each node rebuilt from its inbox, after checking
that view against ``NetworkGraph.view_links``, and wraps the decision in
the full protocol trace (messages and rebuilt views), which
``admit --mode distributed`` prints. ``evaluate_policy`` builds no trace
and stays in integers from the draw to the decision: ``_draw_samples``
draws a batch of raw vectors in one call, each as integer numerators over
one denominator, with the local value it is to be rescaled to, through
``rng.getrandbits`` with CPython's rejection rule for ``Random.randint``
inlined, so every vector and the generator state are those of
``randint``. That value is picked by ``rng.choice`` from a goal table, the
target times each rescale factor, which ``_goal_table`` builds once per
sweep; ``choice`` reads only the table's length, so the pick is the one a
choice among the factors would make.
A sweep runs in three phases: it draws its samples in one
``_draw_samples`` call, prices them all in one ``analysis.price_scaled``
call, and decides each one and builds its row in one loop. Pricing draws
nothing, so the generator sequence is the one that drawing and pricing
sample by sample would give. A sweep whose raw vectors would hold more
than ``_BATCH_ENTRIES`` integers runs these phases batch by batch, which
keeps its memory that of its rows. A rescaled sample is decided over the
denominator ``local * goal.denominator``, because every value is
homogeneous (``chi_f(c * tau) == c * chi_f(tau)``), and ``Fraction``s are
built only for the two values in the row.
``sample_demands`` draws a batch of one and turns it into a ``Fraction``
vector for callers that want one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Mapping

from .analysis import (
    _view_value,
    admission_threshold,
    check_sample_count,
    local_estimate,
    price_scaled,
)
from .errors import GraphError
from .graphs import Link, NetworkGraph, conflict_graph
from .scheduling import scale_demands, scaled_duration
from .search import DEFAULT_SET_CAP


@dataclass(frozen=True)
class Message:
    round: int
    sender: str
    receiver: str
    link_count: int


@dataclass(frozen=True)
class NodeView:
    """What one node reconstructed from received messages, and its decision."""

    center: str
    subgraph: NetworkGraph
    demands: tuple[tuple[Link, Fraction], ...]
    local_value: Fraction
    admit: bool


@dataclass(frozen=True)
class SimTrace:
    threshold: Fraction
    messages: tuple[Message, ...]
    views: tuple[NodeView, ...]
    all_admit: bool
    oracle_value: Fraction
    oracle_feasible: bool
    classification: str


def _classify(admit: bool, feasible: bool) -> str:
    if admit:
        return "true-admit" if feasible else "false-admit"
    return "false-reject" if feasible else "true-reject"


def _decide(
    local: int | Fraction,
    exact: int | Fraction,
    threshold: Fraction | None,
    den: int,
) -> tuple[bool, str]:
    """The admission decision and its classification for one demand
    vector, from its largest 1-hop value local / den and its exact
    duration exact / den, compared by cross-multiplying. The network
    admits iff every view's value is within the threshold; a threshold of
    None admits exactly the feasible vectors."""
    feasible = exact <= den
    if threshold is None:
        admit = feasible
    else:
        admit = local * threshold.denominator <= threshold.numerator * den
    return admit, _classify(admit, feasible)


def run_admission(
    g: NetworkGraph,
    tau: Mapping,
    threshold,
    cap: int = DEFAULT_SET_CAP,
) -> SimTrace:
    """Execute the 2-round protocol and check it against the oracle."""
    gc = conflict_graph(g, 2)
    scaled, den = scale_demands(gc, tau)
    thr = Fraction(threshold)
    if thr <= 0:
        raise GraphError("threshold must be positive")
    exact = scaled_duration(gc, scaled, den, cap)

    incident: dict[str, list[tuple[Link, Fraction]]] = {v: [] for v in g.vertices}
    for link, k in zip(g.links, scaled):
        value = Fraction(k, den)
        incident[link[0]].append((link, value))
        incident[link[1]].append((link, value))

    messages = []
    inbox: dict[str, list[list[tuple[Link, Fraction]]]] = {v: [] for v in g.vertices}
    for sender in g.vertices:
        payload = sorted(incident[sender])
        for receiver in g.neighbors(sender):
            messages.append(Message(1, sender, receiver, len(payload)))
            inbox[receiver].append(payload)

    nodes = []
    local: int | Fraction = 0
    for v, view in zip(g.vertices, g.view_links):
        reach = {v, *g.neighbors(v)}
        known: dict[Link, Fraction] = dict(incident[v])
        for payload in inbox[v]:
            for link, link_value in payload:
                if link[0] in reach and link[1] in reach:
                    known[link] = link_value
        links = tuple(sorted(known))
        idx = tuple([gc.index(link) for link in links])
        if idx != view:
            raise AssertionError(
                f"node {v!r} reconstructed a link set other than its 1-hop view"
            )
        value = _view_value(gc, idx, scaled, den, cap)
        local = max(local, value)
        local_value = Fraction(value, den)
        nodes.append(
            NodeView(
                center=v,
                subgraph=NetworkGraph(tuple(sorted(reach)), links),
                demands=tuple([(link, known[link]) for link in links]),
                local_value=local_value,
                admit=local_value <= thr,
            )
        )

    all_admit, classification = _decide(local, exact, thr, den)
    oracle_value = Fraction(exact, den)
    return SimTrace(
        threshold=thr,
        messages=tuple(messages),
        views=tuple(nodes),
        all_admit=all_admit,
        oracle_value=oracle_value,
        oracle_feasible=oracle_value <= 1,
        classification=classification,
    )


_RESCALE_FACTORS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3))

# A sweep draws and prices its samples in batches of at most this many
# vector entries (samples times links), so the raw vectors kept for
# pricing stay small next to the rows on any graph: every sweep of up to
# 5,461 samples on at most 12 links is one batch.
_BATCH_ENTRIES = 1 << 16


def _goal_table(target) -> tuple[Fraction, ...] | None:
    """The largest 1-hop values a sample may be rescaled to: target times
    each of _RESCALE_FACTORS, in that order, or None for no rescale."""
    if target is None:
        return None
    target = Fraction(target)
    return tuple([factor * target for factor in _RESCALE_FACTORS])


def _draw_samples(
    g: NetworkGraph,
    rng: random.Random,
    count: int,
    denom_max: int = 4,
    goals: tuple[Fraction, ...] | None = None,
) -> tuple[int, list[tuple[list[int], Fraction | None]]]:
    """The random part of `sample_demands`, for count samples in one call.
    Returns (den, [(scaled, goal), ...]) with den = lcm(1, ..., denom_max):
    each scaled is a raw vector as integer numerators over den indexed
    like g.links, and each goal the largest 1-hop value it is to be
    rescaled to, one of goals (`_goal_table`), or None to keep it as drawn.

    A drawn link gets k / d with 1 <= k <= d <= denom_max, which is
    k * (den // d) over den. A raw vector is nonzero, so its largest 1-hop
    value is positive and the rescale is always defined. The samples are
    those of count successive draws of one sample.
    """
    den = lcm(*range(1, denom_max + 1))
    # rng.randint(1, n) is 1 plus CPython's _randbelow_with_getrandbits(n):
    # getrandbits(n.bit_length()), drawn again until it is below n. That
    # rule is inlined here, drawing d - 1 and then k - 1, so the vectors
    # and the generator state afterwards are those of
    # rng.randint(1, denom_max) and rng.randint(1, d); a test checks this
    # on the running interpreter. The tables are indexed by d - 1: the bit
    # width of d, and k * (den // d) for k = 1, ..., d.
    uniform, getrandbits = rng.random, rng.getrandbits
    randrange, choice = rng.randrange, rng.choice
    bits = denom_max.bit_length()
    widths = [d.bit_length() for d in range(1, denom_max + 1)]
    values = [[k * (den // d) for k in range(1, d + 1)] for d in range(1, denom_max + 1)]
    fallback = den // denom_max
    m = len(g.links)
    samples = []
    for _ in range(count):
        scaled = [0] * m
        for i in range(m):
            if uniform() < 0.6:
                d = getrandbits(bits)
                while d >= denom_max:
                    d = getrandbits(bits)
                width = widths[d]
                k = getrandbits(width)
                while k > d:
                    k = getrandbits(width)
                scaled[i] = values[d][k]
        if not any(scaled):
            scaled[randrange(m)] = fallback
        goal = None
        if goals is not None and uniform() < 0.6:
            # choice reads only len(goals), so the generator moves as it
            # would choosing from _RESCALE_FACTORS.
            goal = choice(goals)
        samples.append((scaled, goal))
    return den, samples


def sample_demands(
    g: NetworkGraph,
    rng: random.Random,
    denom_max: int = 4,
    target: Fraction | None = None,
    cap: int = DEFAULT_SET_CAP,
) -> dict[Link, Fraction]:
    """One random demand vector, biased toward the decision boundary.

    Raw demands are rationals in (0, 1] with bounded denominator; with the
    scaling step the vector is rescaled so its best local estimate lands
    near the target, which makes both admissions and near-miss rejections
    common.
    """
    den, [(scaled, goal)] = _draw_samples(g, rng, 1, denom_max, _goal_table(target))
    tau = {link: Fraction(k, den) for link, k in zip(g.links, scaled) if k}
    if goal is None:
        return tau
    scale = goal / local_estimate(g, tau, cap)
    return {link: value * scale for link, value in tau.items()}


def evaluate_policy(
    g: NetworkGraph,
    samples: int,
    seed: int,
    policy: str = "theorem3",
    user_bound=None,
    cap: int = DEFAULT_SET_CAP,
) -> dict:
    """Run many random admission rounds and tally the outcomes.

    Policies: "theorem3" uses the certified automatic threshold, "user"
    uses 1 / user_bound as the threshold, and "oracle-exact" admits exactly
    the feasible vectors (reference policy, never misclassifies).
    """
    check_sample_count(samples, "sample count")
    if not g.links:
        raise GraphError("policy evaluation needs at least one link")
    threshold: Fraction | None
    meta: dict = {}
    if policy == "theorem3":
        threshold, meta = admission_threshold(g, cap=cap)
    elif policy == "user":
        if user_bound is None:
            raise GraphError("user policy needs a ratio bound")
        threshold, meta = admission_threshold(g, user_bound=user_bound, cap=cap)
    elif policy == "oracle-exact":
        threshold = None
    else:
        raise GraphError(f"unknown policy {policy!r}")

    rng = random.Random(seed)
    rows = []
    tally = {
        "true-admit": 0,
        "false-admit": 0,
        "true-reject": 0,
        "false-reject": 0,
    }
    goals = _goal_table(threshold or Fraction(1))
    batch = max(1, _BATCH_ENTRIES // len(g.links))
    for start in range(0, samples, batch):
        # Pricing draws nothing, so drawing a batch before pricing it
        # leaves the generator sequence, and so every vector and goal, as
        # it was. Every raw vector of a sweep is over the same den.
        den, draws = _draw_samples(g, rng, min(batch, samples - start), goals=goals)
        local_values, exact_values = price_scaled(g, [scaled for scaled, _ in draws], den, cap)
        for sample_id, local, exact, (_, goal) in zip(
            count(start), local_values, exact_values, draws
        ):
            sample_den = den
            if goal is None:
                local_max = Fraction(local, den)
            else:
                # Every value is homogeneous in the demands, so rescaling
                # the raw vector to a largest view value of goal scales the
                # duration by goal / local, and den cancels: over the new
                # den, local * goal.denominator, the view value is goal.
                local, exact, sample_den = (
                    goal.numerator * local, goal.numerator * exact, goal.denominator * local
                )
                local_max = goal
            admit, classification = _decide(local, exact, threshold, sample_den)
            tally[classification] += 1
            rows.append(
                {
                    "sample_id": sample_id,
                    "seed": seed,
                    "local_max": local_max,
                    "oracle_chif": Fraction(exact, sample_den),
                    "decision": "admit" if admit else "reject",
                    "classification": classification,
                }
            )

    feasible_total = tally["true-admit"] + tally["false-reject"]
    summary = {
        "policy": policy,
        "samples": samples,
        "seed": seed,
        "threshold": threshold,
        "false_admit": tally["false-admit"],
        "false_reject": tally["false-reject"],
        "true_admit": tally["true-admit"],
        "true_reject": tally["true-reject"],
        "false_reject_rate": (
            Fraction(tally["false-reject"], feasible_total)
            if feasible_total
            else Fraction(0)
        ),
    }
    summary.update({f"threshold_{k}": v for k, v in meta.items()})
    return {"summary": summary, "rows": rows}
