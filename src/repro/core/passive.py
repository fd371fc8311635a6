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

import numpy as np

from ..flow import FlowNetwork, solve_min_cut
from ..obs import recorder
from ..poset.dominance2d import (
    contending_mask_low_dim,
    is_monotone_assignment_low_dim,
)
from .classifier import MonotoneClassifier, UpsetClassifier
from .errors import prediction_weighted_error
from .pairwise import (
    blocked_contending_mask,
    blocked_dominance_pair_arrays,
    blocked_is_monotone_assignment,
)
from .points import PointSet

__all__ = [
    "PassiveResult",
    "solve_passive",
    "contending_mask",
    "brute_force_passive",
]


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


def solve_passive(points: PointSet, backend: str = "dinic",
                  use_contending_reduction: bool = True) -> PassiveResult:
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

    low_dim = points.dim <= 2
    rec = recorder()

    with rec.span("passive") as passive_span:
        with rec.span("contending"):
            if not use_contending_reduction:
                active = np.arange(n)
            elif low_dim:
                # O(n log n) prefix-extremum sweep.
                active = np.flatnonzero(contending_mask_low_dim(points))
            else:
                active = np.flatnonzero(blocked_contending_mask(points))
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

            # Vertex ids: 0 = source, 1 = sink, then one per active point;
            # vid[point index] -> network vertex id (-1 for inactive).
            network = FlowNetwork(2 + len(active))
            vid = np.full(n, -1, dtype=np.int64)
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
            srcs, tgts = blocked_dominance_pair_arrays(points, zeros_arr,
                                                       ones_arr)
            network.add_edges(vid[srcs], vid[tgts], infinite_cap)
        if rec.enabled:
            rec.incr("passive.dominance_pairs", len(srcs))

        with rec.span("min_cut"):
            cut = solve_min_cut(network, source, sink, backend=backend)

        with rec.span("verify"):
            # A source edge (s, p) is cut iff p is NOT reachable from the
            # source in the residual graph: label-0 p flips to 1.  A sink
            # edge (q, t) is cut iff q IS reachable (t never is): label-1
            # q flips to 0.
            reached = np.zeros(network.num_nodes, dtype=bool)
            reached[list(cut.source_side)] = True
            assignment[zeros_arr[~reached[vid[zeros_arr]]]] = 1
            assignment[ones_arr[reached[vid[ones_arr]]]] = 0

            if low_dim:
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
