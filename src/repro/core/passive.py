"""Passive weighted monotone classification via min-cut (paper Theorem 4).

Problem 2: given a fully-labeled weighted set ``P``, find the monotone
classifier of minimum weighted error.  Section 5 solves it exactly:

1. Restrict to the *contending* points ``P^con`` (Lemma 15): a label-0 point
   is contending if it weakly dominates some label-1 point, and vice versa.
   Non-contending points can always keep their own labels.
2. Build a flow network: source → each contending label-0 point with
   capacity = its weight; each contending label-1 point → sink with capacity
   = its weight; an effectively-infinite edge ``p → q`` for every contending
   pair with label-0 ``p`` weakly dominating label-1 ``q``.  The contending
   points are exactly the endpoints of those pairs, so for ``d >= 3`` one
   dominance pass yields steps 1 and 2 together (:func:`contending_pairs`).
3. Seed the network with a greedy flow along the infinite edges
   (:func:`greedy_preflow`) and let the max-flow backend finish from it.
4. A minimum cut-edge set (Lemma 8) *is* an optimal classifier: cut source
   edges flip their label-0 point to 1; cut sink edges flip their label-1
   point to 0 (Lemmas 16, 17).  The residual source side is the minimal
   minimum cut, the same for every maximum flow, so the seed changes the
   flows but not the assignment.

Total cost ``O(d n^2) + T_maxflow(n)``.  Steps 1 and 2 and the Lemma 16
check stream the pairwise facts in row blocks (:mod:`.pairwise`), or use
the ``O(n log n)`` sweeps of :mod:`repro.poset.dominance2d` for ``d <= 2``,
so no ``n x n`` matrix is ever materialized.

This module also carries :func:`brute_force_passive`, the exponential test
oracle the paper sketches in Section 1.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

import numpy as np

from ..flow import RESIDUAL_EPS, FlowNetwork, solve_min_cut
from ..obs import recorder
from ..poset.dominance2d import (
    contending_mask_low_dim,
    is_monotone_assignment_low_dim,
)
from .classifier import MonotoneClassifier, UpsetClassifier
from .errors import prediction_weighted_error
from .pairwise import (
    EDGE_BLOCK,
    blocked_dominance_pair_arrays,
    blocked_is_monotone_assignment,
)
from .points import PointSet

__all__ = [
    "PassiveResult",
    "PassiveNetwork",
    "solve_passive",
    "passive_network",
    "greedy_preflow",
    "contending_mask",
    "contending_pairs",
    "brute_force_passive",
    "SOURCE",
    "SINK",
]

#: Vertex ids of the source and the sink in every passive network.
SOURCE, SINK = 0, 1


def _effective_infinity(total_weight: float, min_weight: float) -> float:
    """Capacity that can never sit in a minimum cut, for a given weight scale.

    Every finite cut (source/sink edges only) weighs at most ``total_weight``,
    so any capacity strictly greater works.  ``total + 1.0`` is the natural
    choice but loses meaning at extreme scales: above ~1e16 the ``+ 1.0`` is
    absorbed by rounding (the "infinite" edges become exactly as cheap as
    cutting everything finite), and near 1e308 doubling overflows to ``inf``
    (which breaks residual arithmetic in the backends).  Detect both and use
    ``2 * total`` — a margin rounding cannot erase — or raise a clean
    ``ValueError`` telling the caller to rescale.

    The flow backends themselves also carry absolute rounding error on the
    order of ``ulp(total_weight)`` (e.g. push-relabel briefly saturates the
    whole source side, so a tiny final flow is a difference of huge
    intermediates).  The optimal error can be as small as ``min_weight``
    (the lightest contending point), so when ``ulp(total)`` approaches that
    scale the min-cut certificate check would trip on pure noise.  Reject
    such ill-conditioned weight mixes up front with a clean ``ValueError``
    instead of failing deep inside a backend-dependent assertion.
    """
    if not np.isfinite(total_weight):
        raise ValueError(
            "total contending weight overflows float64; rescale the weights "
            "(only ratios matter for the optimal classifier)"
        )
    # Conditioning guard: absolute flow noise ~ulp(total) must stay well
    # below both the 1e-6 absolute floor of the min-cut certificate check
    # and the smallest weight that could form the optimal cut.
    if float(np.spacing(total_weight)) > 1e-7 * max(1.0, min_weight):
        raise ValueError(
            f"contending weights are too ill-conditioned for float64 min-cut "
            f"arithmetic (total {total_weight:.6g}, lightest {min_weight:.6g}"
            f"): flow rounding noise could exceed the optimal error; rescale "
            "the weights (only ratios matter for the optimal classifier)"
        )
    cap = total_weight + 1.0
    if cap > total_weight:
        return cap
    cap = 2.0 * total_weight
    if np.isfinite(cap):
        return cap
    raise ValueError(
        f"weight scale {total_weight!r} is too close to the float64 limit to "
        "represent an uncuttable capacity; rescale the weights"
    )


@dataclass(frozen=True)
class PassiveResult:
    """Output of the Theorem 4 solver.

    Attributes
    ----------
    classifier:
        An optimal monotone classifier over all of ``R^d`` (the monotone
        extension of the optimal assignment on ``P``).
    assignment:
        Per-point predictions on ``P`` (int8 array).
    optimal_error:
        Minimum weighted error ``w-err_P`` achieved.
    num_contending:
        Size of ``P^con`` (the min-cut instance actually solved).
    flow_value:
        Capacity of the minimum cut (its arcs' capacities summed in arc
        order) = max-flow value = optimal weighted error on ``P^con``.
        Read off the cut, not the flow, so it is the same bit for bit
        whichever maximum flow the backend finds.
    backend:
        Max-flow backend used (a key of :data:`repro.flow.FLOW_BACKENDS`);
        the same engine runs at every network size.
    """

    classifier: MonotoneClassifier
    assignment: np.ndarray
    optimal_error: float
    num_contending: int
    flow_value: float
    backend: str


def contending_mask(points: PointSet) -> np.ndarray:
    """Boolean mask of contending points (Section 5.1).

    A label-0 point contends if it weakly dominates some label-1 point; a
    label-1 point contends if some label-0 point weakly dominates it.  We
    use weak dominance so duplicate coordinate vectors with opposing labels
    contend with each other (a classifier cannot separate them).

    Reads the dense cached weak-dominance matrix: the ``O(n^2)``-memory
    reference that :func:`solve_passive`'s streamed masks are tested
    against.
    """
    points.require_full_labels()
    n = points.n
    if n == 0:
        return np.zeros(0, dtype=bool)
    weak = points.weak_dominance_matrix()
    zeros = points.labels == 0
    ones = points.labels == 1
    mask = np.zeros(n, dtype=bool)
    if zeros.any() and ones.any():
        # weak[i, j]: i dominates j.  A label-0 point i contends iff it
        # dominates some label-1 j; a label-1 j contends iff dominated by
        # some label-0 i.
        zero_dominates_one = weak[np.ix_(zeros, ones)]
        mask[np.flatnonzero(zeros)] = zero_dominates_one.any(axis=1)
        mask[np.flatnonzero(ones)] = zero_dominates_one.any(axis=0)
    return mask


def contending_pairs(points: PointSet, block_size: int = EDGE_BLOCK
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contending mask and the type-3 edges from one dominance pass.

    A point contends (Section 5.1) iff it is an endpoint of a dominance
    pair between a label-0 and a label-1 point, so one
    :func:`~repro.core.pairwise.blocked_dominance_pair_arrays` stream over
    *all* label-0 x label-1 points gives both facts.  A non-contending
    point has no pair, so the pairs, and their order, are exactly those
    of the stream over the contending points alone.

    Returns ``(mask, sources, targets)``.
    """
    points.require_full_labels()
    zeros = np.flatnonzero(points.labels == 0)
    ones = np.flatnonzero(points.labels == 1)
    srcs, tgts = blocked_dominance_pair_arrays(points, zeros, ones, block_size)
    mask = np.zeros(points.n, dtype=bool)
    mask[srcs] = True
    mask[tgts] = True
    return mask, srcs, tgts


@dataclass(frozen=True)
class PassiveNetwork:
    """The Theorem 4 min-cut instance of a fully-labeled point set.

    Vertex :data:`SOURCE` is the source, :data:`SINK` the sink, and
    ``vid[i]`` the vertex of point ``i`` (``-1`` if it is not in the
    instance).  Forward arcs come in three runs: a source arc per point
    of ``zeros``, a sink arc per point of ``ones`` (both weighted by the
    point), then the type-3 arcs in the pair stream's order, grouped by
    tail.
    """

    network: FlowNetwork
    zeros: np.ndarray
    ones: np.ndarray
    vid: np.ndarray

    @property
    def num_contending(self) -> int:
        """Number of points in the instance."""
        return len(self.zeros) + len(self.ones)


def passive_network(points: PointSet,
                    use_contending_reduction: bool = True) -> PassiveNetwork:
    """Steps 1 and 2 of Theorem 4: the contending set and its network.

    For ``d >= 3`` one dominance pass yields both the contending set and
    the type-3 edges (:func:`contending_pairs`).  For ``d <= 2`` the
    ``O(n log n)`` sweep finds the contending set and the pair stream
    runs over it alone.  With ``use_contending_reduction=False`` every
    point is in the instance.
    """
    points.require_full_labels()
    n = points.n
    labels = points.labels
    weights = points.weights
    pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
    rec = recorder()
    with rec.span("contending"):
        if not use_contending_reduction:
            active = np.arange(n)
        elif points.dim <= 2:
            # O(n log n) prefix-extremum sweep.
            active = np.flatnonzero(contending_mask_low_dim(points))
        else:
            mask, srcs, tgts = contending_pairs(points)
            active = np.flatnonzero(mask)
            pairs = (srcs, tgts)
    zeros = active[labels[active] == 0]
    ones = active[labels[active] == 1]
    network = FlowNetwork(2 + len(active))
    vid = np.full(n, -1, dtype=np.int64)
    vid[active] = 2 + np.arange(len(active))
    if len(active) == 0:
        return PassiveNetwork(network, zeros, ones, vid)

    with rec.span("build_network"):
        # Effective infinity: strictly larger than any finite cut,
        # numerically safe even at extreme weight scales.  An overflowing
        # sum is deliberate input to the guard, not a numpy warning
        # condition.
        with np.errstate(over="ignore"):
            infinite_cap = _effective_infinity(float(weights[active].sum()),
                                               float(weights[active].min()))
        network.add_edges(np.full(len(zeros), SOURCE), vid[zeros],
                          weights[zeros].astype(float))
        network.add_edges(vid[ones], np.full(len(ones), SINK),
                          weights[ones].astype(float))
        if pairs is None:
            pairs = blocked_dominance_pair_arrays(points, zeros, ones)
        srcs, tgts = pairs
        network.add_edges(vid[srcs], vid[tgts], infinite_cap)
    if rec.enabled:
        rec.incr("passive.dominance_pairs", len(srcs))
    return PassiveNetwork(network, zeros, ones, vid)


def _first_live_arcs(runs: np.ndarray, ptr: np.ndarray, stop: np.ndarray,
                     pair_heads: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Each run's first arc at or after its pointer whose head has demand
    left, or ``-1`` once the run has none; advances ``ptr`` past the arcs
    it passes over (demand only falls, so they are dead for good).

    Scans windows of 1, 2, 4, ... arcs per run, so a run's search costs
    at most twice the arcs it skips, in ``log2`` vectorized steps.
    """
    found = np.full(len(runs), -1, dtype=np.int64)
    todo = np.arange(len(runs))
    width = 1
    while todo.size:
        pending = runs[todo]
        lo = ptr[pending]
        count = np.minimum(stop[pending] - lo, width)
        offsets = np.repeat(lo - (np.cumsum(count) - count), count)
        positions = np.arange(len(offsets)) + offsets
        owner = np.repeat(np.arange(len(todo)), count)
        hits = demand[pair_heads[positions]] > RESIDUAL_EPS
        hit_owner = owner[hits]
        hit_positions = positions[hits]
        leading = np.diff(hit_owner, prepend=-1) != 0
        found[todo[hit_owner[leading]]] = hit_positions[leading]
        missed = np.ones(len(todo), dtype=bool)
        missed[hit_owner] = False
        ptr[pending[missed]] += count[missed]
        todo = todo[missed & (ptr[pending] < stop[pending])]
        width *= 2
    return found


def _offered_before(offers: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of the offers ahead of each offer in its group.

    A group is a run of offers that begins where ``starts`` is true.  A
    segmented Hillis–Steele scan: ``log2`` of the longest group in
    vectorized steps, each adding only within a group, so the rounding
    error scales with the group's own sum rather than the whole round's.
    """
    index = np.arange(len(offers))
    rank = index - np.maximum.accumulate(np.where(starts, index, 0))
    before = np.zeros(len(offers))
    before[1:] = offers[:-1]
    before[starts] = 0.0
    shift = 1
    longest = int(rank.max())
    while shift <= longest:
        before[shift:] = before[shift:] + np.where(
            rank[shift:] >= shift, before[:-shift], 0.0)
        shift *= 2
    return before


def _accept(offers: np.ndarray, before: np.ndarray,
            demand: np.ndarray) -> np.ndarray:
    """What each offer carries: the part of its target's demand left
    after the offers ahead of it, at most the whole offer."""
    return np.clip(demand - before, 0.0, offers)


def greedy_preflow(passive: PassiveNetwork) -> int:
    """Seed the network with a greedy flow; returns the rounds run.

    Every label-0 vertex starts with its weight as supply, every label-1
    vertex with its weight as demand.  In each round, every label-0
    vertex with supply left offers all of it to the first target of its
    type-3 arcs that still has demand, and each target accepts its
    offers in arc order up to its remaining demand (:func:`_accept`,
    one segmented cumsum per target group).  Supply or demand at or
    below :data:`~repro.flow.RESIDUAL_EPS` is spent: its source or sink
    arc counts as saturated.  Each round every offer either drains its
    vertex or exhausts its target, so the offered arc dies; the rounds
    end when no arc joins a vertex with supply to one with demand.

    The result is a feasible flow, up to rounding, written once into
    ``network.flows``; the max-flow engine finishes from it.  Every
    maximum flow leaves the same residual source side (the minimal
    minimum cut), so the assignment does not depend on the seed.
    """
    network = passive.network
    k0, k1 = len(passive.zeros), len(passive.ones)
    tails = network.tails[0::2]
    heads = network.heads[0::2]
    caps = network.caps[0::2]
    supply = np.zeros(network.num_nodes)
    supply[heads[:k0]] = caps[:k0]
    demand = np.zeros(network.num_nodes)
    demand[tails[k0:k0 + k1]] = caps[k0:k0 + k1]
    pair_tails = tails[k0 + k1:]
    pair_heads = heads[k0 + k1:]
    carried = np.zeros(len(pair_tails))
    # The pair arcs come grouped by tail: run i spans [run_lo[i],
    # run_hi[i]), and ptr[i] is where its search for a live arc resumes.
    run_lo = np.flatnonzero(np.diff(pair_tails, prepend=-1))
    run_hi = np.append(run_lo[1:], len(pair_tails))
    run_tail = pair_tails[run_lo]
    ptr = run_lo.copy()
    runs = np.arange(len(run_lo))
    rounds = 0
    while True:
        runs = runs[(supply[run_tail[runs]] > RESIDUAL_EPS)
                    & (ptr[runs] < run_hi[runs])]
        first = _first_live_arcs(runs, ptr, run_hi, pair_heads, demand)
        offering = first >= 0
        if not offering.any():
            break
        rounds += 1
        # Every offered arc dies this round: its tail is drained or its
        # target exhausted.  Group the offers by target, in arc order.
        ptr[runs[offering]] = first[offering] + 1
        first = first[offering]
        first = first[np.argsort(pair_heads[first], kind="stable")]
        offer_tails = pair_tails[first]
        offer_heads = pair_heads[first]
        offers = supply[offer_tails]
        starts = np.concatenate(([True], offer_heads[1:] != offer_heads[:-1]))
        before = _offered_before(offers, starts)
        accepted = _accept(offers, before, demand[offer_heads])
        carried[first] = accepted
        supply[offer_tails] -= accepted
        ends = np.concatenate((starts[1:], [True]))
        targets = offer_heads[ends]
        offered = before[ends] + offers[ends]
        remaining = demand[targets]
        demand[targets] = np.where(offered < remaining, remaining - offered, 0.0)
    forward = np.concatenate((caps[:k0] - supply[heads[:k0]],
                              caps[k0:k0 + k1] - demand[tails[k0:k0 + k1]],
                              carried))
    flows = network.flows
    flows[0::2] = forward
    flows[1::2] = 0.0 - forward
    return rounds


def solve_passive(points: PointSet, backend: str = "dinic",
                  use_contending_reduction: bool = True) -> PassiveResult:
    """Solve Problem 2 exactly (Theorem 4).

    Builds the min-cut instance (:func:`passive_network`), seeds it with
    :func:`greedy_preflow`, lets the max-flow backend finish, and reads
    the assignment off the residual source side.  That side is the
    minimal minimum cut, the same for every maximum flow, so the
    assignment and classifier do not depend on which maximum flow the
    backend ends on; the per-arc flows do.

    Parameters
    ----------
    points:
        Fully-labeled weighted point set.
    backend:
        Max-flow backend: ``"dinic"`` or ``"push_relabel"`` (the keys of
        :data:`repro.flow.FLOW_BACKENDS`).  Both yield the same
        assignment.
    use_contending_reduction:
        When False, the min-cut instance is built over *all* points instead
        of just ``P^con`` (still correct, since non-contending points have
        no infinite edges forcing them; used by the A1 ablation).

    Raises ``ValueError`` naming the first point with a NaN coordinate
    (reachable through ``PointSet(validate=False)``); ``±inf`` is accepted.
    """
    points.require_full_labels()
    points.require_no_nan("solve_passive")
    n = points.n
    labels = points.labels
    weights = points.weights
    assignment = labels.astype(np.int8).copy()

    if n == 0:
        classifier = UpsetClassifier([], dim=max(1, points.dim))
        return PassiveResult(classifier, assignment, 0.0, 0, 0.0, backend)

    rec = recorder()

    with rec.span("passive") as passive_span:
        passive = passive_network(points, use_contending_reduction)
        num_contending = passive.num_contending
        if rec.enabled:
            rec.gauge("passive.n", n)
            rec.gauge("passive.num_contending", num_contending)
            passive_span.set_attr("n", n)
            passive_span.set_attr("num_contending", num_contending)
            passive_span.set_attr("backend", backend)

        if num_contending == 0:
            # Labeling already monotone: zero error, keep every label.
            with rec.span("classifier_build"):
                classifier = UpsetClassifier.from_positive_points(points, assignment)
            return PassiveResult(classifier, assignment, 0.0, 0, 0.0, backend)

        network = passive.network
        with rec.span("preflow"):
            rounds = greedy_preflow(passive)
        if rec.enabled:
            rec.incr("passive.preflow_rounds", rounds)
            rec.gauge("passive.preflow_value", network.flow_value(SOURCE))

        with rec.span("min_cut"):
            cut = solve_min_cut(network, SOURCE, SINK, backend=backend)
        # The cut's capacity, summed in arc order: any maximum flow leaves
        # the same cut, so this certificate is the same bit for bit.
        flow_value = cut.weight(network)

        with rec.span("verify"):
            # A source edge (s, p) is cut iff p is NOT reachable from the
            # source in the residual graph: label-0 p flips to 1.  A sink
            # edge (q, t) is cut iff q IS reachable (t never is): label-1
            # q flips to 0.
            zeros, ones, vid = passive.zeros, passive.ones, passive.vid
            reached = np.zeros(network.num_nodes, dtype=bool)
            reached[list(cut.source_side)] = True
            assignment[zeros[~reached[vid[zeros]]]] = 1
            assignment[ones[reached[vid[ones]]]] = 0

            if points.dim <= 2:
                assignment_monotone = is_monotone_assignment_low_dim(
                    points, assignment)
            else:
                assignment_monotone = blocked_is_monotone_assignment(
                    points, assignment)
            if not assignment_monotone:
                raise AssertionError(
                    "min-cut produced a non-monotone assignment (Lemma 16 "
                    "violated); this indicates a solver bug"
                )
            optimal_error = prediction_weighted_error(labels, assignment,
                                                      weights)
            if abs(optimal_error - flow_value) > 1e-6 * max(1.0, abs(flow_value)):
                raise AssertionError(
                    f"classifier error {optimal_error!r} != min-cut value "
                    f"{flow_value!r} (Lemma 17 violated); this indicates a "
                    "solver bug"
                )

        if rec.enabled:
            rec.gauge("passive.flow_value", flow_value)
            rec.gauge("passive.optimal_error", float(optimal_error))

        with rec.span("classifier_build"):
            classifier = UpsetClassifier.from_positive_points(points, assignment)
        return PassiveResult(
            classifier=classifier,
            assignment=assignment,
            optimal_error=float(optimal_error),
            num_contending=num_contending,
            flow_value=flow_value,
            backend=backend,
        )


def brute_force_passive(points: PointSet, max_n: int = 16) -> float:
    """Minimum weighted error by exhaustive search (test oracle, Section 1.2).

    Enumerates all ``2^n`` assignments, keeps the monotone ones, and returns
    the best weighted error.  Exponential by design — guard with ``max_n``.
    """
    points.require_full_labels()
    n = points.n
    if n > max_n:
        raise ValueError(f"brute_force_passive limited to n <= {max_n}; got {n}")
    if n == 0:
        return 0.0
    weak = points.weak_dominance_matrix()
    labels = points.labels
    weights = points.weights
    best = float("inf")
    for bits in product((0, 1), repeat=n):
        pred = np.asarray(bits, dtype=np.int8)
        zeros = pred == 0
        ones = pred == 1
        if np.any(weak[np.ix_(zeros, ones)]):
            continue  # not monotone
        err = float(weights[pred != labels].sum())
        if err < best:
            best = err
    return best
