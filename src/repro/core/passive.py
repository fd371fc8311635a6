"""Passive weighted monotone classification via min-cut (paper Theorem 4).

Problem 2: given a fully-labeled weighted set ``P``, find the monotone
classifier of minimum weighted error.  Section 5 solves it exactly:

1. Restrict to the *contending* points ``P^con`` (Lemma 15): a label-0 point
   is contending if it weakly dominates some label-1 point, and vice versa.
   Non-contending points can always keep their own labels.
2. Build a flow network: source → each contending label-0 point with
   capacity = its weight; each contending label-1 point → sink with capacity
   = its weight; an effectively-infinite edge ``p → q`` for every contending
   pair with label-0 ``p`` weakly dominating label-1 ``q``.
3. A minimum cut-edge set (Lemma 8) *is* an optimal classifier: cut source
   edges flip their label-0 point to 1; cut sink edges flip their label-1
   point to 0 (Lemmas 16, 17).

Total cost ``O(d n^2) + T_maxflow(n)``.

``solve_passive(use_hasse_reduction=True)`` swaps step 2's closure edges
for the covering pairs of the dominance order (transitive reduction), with
every point as a pass-through vertex — same optimum, far fewer infinite
edges for the max-flow backend to chew through (see ``docs/poset.md``).

This module also carries :func:`brute_force_passive`, the exponential test
oracle the paper sketches in Section 1.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from ..flow import FlowNetwork, solve_min_cut
from ..obs import recorder
from ..poset.dominance2d import (
    contending_mask_low_dim,
    is_monotone_assignment_low_dim,
)
from .classifier import (
    MonotoneClassifier,
    UpsetClassifier,
    is_monotone_assignment,
)
from .errors import prediction_weighted_error
from .pairwise import (
    DEFAULT_BLOCK_SIZE,
    blocked_dominance_pair_arrays,
    blocked_is_monotone_assignment,
)
from .points import PointSet

__all__ = [
    "PassiveResult",
    "solve_passive",
    "contending_mask",
    "brute_force_passive",
    "LARGE_INPUT_THRESHOLD",
]

#: Above this size, solve_passive switches from the cached O(n^2)-memory
#: dominance matrix to blockwise pairwise computation (same time bound,
#: O(n * block) memory).
LARGE_INPUT_THRESHOLD = 8_192


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
        Max-flow value = min-cut weight = optimal weighted error on
        ``P^con``.
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


def _hasse_reduced_order(points: PointSet) -> np.ndarray:
    """Label-aware tie-broken order for the Hasse-reduced cut network.

    Strict dominance plus a tie-break on identical coordinate vectors that
    ranks every label-0 point *above* every label-1 point (index order
    within a label).  The label-aware direction matters: the reduced
    network encodes only one direction of a symmetric weak-dominance pair,
    and the direction that forbids the zero-flip assignment of an
    oppositely-labeled duplicate pair is 0-above-1.  (Between same-label
    duplicates either direction is harmless: any constraint between points
    with identical coordinates only removes assignments no coordinate
    classifier could realize.)
    """
    weak = points.weak_dominance_matrix()
    equal = weak & weak.T
    n = points.n
    rank = np.where(points.labels == 0, np.arange(n) + n, np.arange(n))
    order = weak & ~equal
    order |= equal & (rank[:, None] > rank[None, :])
    return order


def solve_passive(points: PointSet, backend: str = "dinic",
                  use_contending_reduction: bool = True,
                  block_size: Optional[int] = None,
                  use_hasse_reduction: bool = False) -> PassiveResult:
    """Solve Problem 2 exactly (Theorem 4).

    Parameters
    ----------
    points:
        Fully-labeled weighted point set.
    backend:
        Max-flow backend: ``"dinic"`` or ``"push_relabel"`` (the keys of
        :data:`repro.flow.FLOW_BACKENDS`).  Both yield the same
        assignment: the residual-reachable source side is the same for
        every maximum flow.
    use_contending_reduction:
        When False, the min-cut instance is built over *all* points instead
        of just ``P^con`` (still correct, since non-contending points have
        no infinite edges forcing them; used by the A1 ablation).
    block_size:
        Force blockwise pairwise computation with this row-block size.
        Defaults to the cached dominance matrix for small inputs and to
        blockwise mode above :data:`LARGE_INPUT_THRESHOLD` points.
    use_hasse_reduction:
        Build the network's infinite edges from the *transitive reduction*
        (Hasse covering pairs) of the dominance order over all points,
        with every point as a pass-through vertex, instead of one edge per
        dominating ``(label-0, label-1)`` pair of the full closure.
        Reachability along covering edges reproduces the order exactly, so
        a finite-capacity cut is still exactly a monotone assignment and
        the optimum is unchanged — but the max-flow backend processes
        ``|Hasse|`` infinite edges instead of up to ``O(n^2)``.  Requires
        the dense ``O(n^2)``-bit order matrix (the blockwise pair stream
        is bypassed); see ``docs/poset.md`` for the correctness argument.
    """
    points.require_full_labels()
    n = points.n
    labels = points.labels
    weights = points.weights
    assignment = labels.astype(np.int8).copy()

    if n == 0:
        classifier = UpsetClassifier([], dim=max(1, points.dim))
        return PassiveResult(classifier, assignment, 0.0, 0, 0.0, backend)

    blockwise = block_size is not None or n > LARGE_INPUT_THRESHOLD
    rows_per_block = block_size or DEFAULT_BLOCK_SIZE
    rec = recorder()

    with rec.span("passive") as passive_span:
        with rec.span("contending"):
            if use_contending_reduction:
                if points.dim <= 2:
                    # O(n log n) prefix-extremum fast path.
                    mask = contending_mask_low_dim(points)
                elif blockwise:
                    # Packed-bitset accumulator: same blockwise streaming,
                    # but the per-block evidence is OR-ed as bitset rows.
                    from ..poset.bitset import contending_mask_bitset

                    mask = contending_mask_bitset(points, rows_per_block)
                else:
                    mask = contending_mask(points)
                active = np.flatnonzero(mask)
            else:
                active = np.arange(n)
        if rec.enabled:
            rec.gauge("passive.n", n)
            rec.gauge("passive.num_contending", len(active))
            passive_span.set_attr("n", n)
            passive_span.set_attr("num_contending", len(active))
            passive_span.set_attr("backend", backend)

        if len(active) == 0:
            # Labeling already monotone: zero error, keep every label.
            with rec.span("classifier_build"):
                classifier = UpsetClassifier.from_positive_points(points, assignment)
            return PassiveResult(classifier, assignment, 0.0, 0, 0.0, backend)

        with rec.span("build_network"):
            zeros_arr = active[labels[active] == 0]
            ones_arr = active[labels[active] == 1]

            # vid[point index] -> network vertex id (-1 for inactive).
            vid = np.full(n, -1, dtype=np.int64)
            if use_hasse_reduction:
                # Vertex ids: 0 = source, 1 = sink, then one per *point* —
                # non-terminal points serve as pass-through intermediates
                # of covering paths.
                network = FlowNetwork(2 + n)
                vid[active] = 2 + active
            else:
                # Vertex ids: 0 = source, 1 = sink, then one per active point.
                network = FlowNetwork(2 + len(active))
                vid[active] = 2 + np.arange(len(active))
            source, sink = 0, 1

            # Effective infinity: strictly larger than any finite cut,
            # numerically safe even at extreme weight scales.  An
            # overflowing sum is deliberate input to the guard, not a
            # numpy warning condition.
            with np.errstate(over="ignore"):
                infinite_cap = _effective_infinity(
                    float(weights[active].sum()),
                    float(weights[active].min()))

            network.add_edges(np.full(len(zeros_arr), source), vid[zeros_arr],
                              weights[zeros_arr].astype(float))
            network.add_edges(vid[ones_arr], np.full(len(ones_arr), sink),
                              weights[ones_arr].astype(float))
            if use_hasse_reduction:
                from ..poset.sparse import transitive_reduction

                covering = transitive_reduction(_hasse_reduced_order(points))
                uppers, lowers = np.nonzero(covering)
                network.add_edges(2 + uppers, 2 + lowers, infinite_cap)
                if rec.enabled:
                    rec.incr("passive.hasse_edges_kept", len(uppers))
            elif blockwise:
                for srcs, tgts in blocked_dominance_pair_arrays(
                        points, zeros_arr, ones_arr, rows_per_block):
                    network.add_edges(vid[srcs], vid[tgts], infinite_cap)
            else:
                weak = points.weak_dominance_matrix()
                row_pos, col_pos = np.nonzero(
                    weak[np.ix_(zeros_arr, ones_arr)])
                network.add_edges(vid[zeros_arr[row_pos]],
                                  vid[ones_arr[col_pos]], infinite_cap)
        if rec.enabled:
            rec.incr("passive.dominance_pairs",
                     network.num_edges - len(active))

        with rec.span("min_cut"):
            cut = solve_min_cut(network, source, sink, backend=backend)

        with rec.span("verify"):
            # Cut source edges flip label-0 points to 1; a source edge
            # (s, p) is cut iff p is NOT reachable from the source in the
            # residual graph.
            for p in zeros_arr.tolist():
                if int(vid[p]) not in cut.source_side:
                    assignment[p] = 1
            # Cut sink edges flip label-1 points to 0; a sink edge (q, t)
            # is cut iff q IS reachable (t never is).
            for q in ones_arr.tolist():
                if int(vid[q]) in cut.source_side:
                    assignment[q] = 0

            if points.dim <= 2:
                assignment_monotone = is_monotone_assignment_low_dim(
                    points, assignment)
            elif blockwise:
                assignment_monotone = blocked_is_monotone_assignment(
                    points, assignment, rows_per_block)
            else:
                assignment_monotone = is_monotone_assignment(points, assignment)
            if not assignment_monotone:
                raise AssertionError(
                    "min-cut produced a non-monotone assignment (Lemma 16 "
                    "violated); this indicates a solver bug"
                )
            optimal_error = prediction_weighted_error(labels, assignment,
                                                      weights)
            if abs(optimal_error - cut.value) > 1e-6 * max(1.0, abs(cut.value)):
                raise AssertionError(
                    f"classifier error {optimal_error!r} != min-cut value "
                    f"{cut.value!r} (Lemma 17 violated); this indicates a "
                    "solver bug"
                )

        if rec.enabled:
            rec.gauge("passive.flow_value", float(cut.value))
            rec.gauge("passive.optimal_error", float(optimal_error))

        with rec.span("classifier_build"):
            classifier = UpsetClassifier.from_positive_points(points, assignment)
        return PassiveResult(
            classifier=classifier,
            assignment=assignment,
            optimal_error=float(optimal_error),
            num_contending=len(active),
            flow_value=float(cut.value),
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
