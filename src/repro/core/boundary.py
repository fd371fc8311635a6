"""Decision boundaries and explanations of monotone classifiers.

The selling point of monotone classification in entity matching is
*explainability* (Section 1.1): a pair is accepted only if it is at least
as similar as some accepted reference on every metric.  This module turns
that into an API:

* :func:`explain_acceptance` — for an accepted point, a minimal anchor it
  dominates ("accepted because it is at least as similar as THIS on every
  metric");
* :func:`explain_rejection` — for a rejected point, the per-anchor
  deficit vector ("rejected because it falls short of every accepted
  reference; closest miss shown");
* :func:`decision_boundary_1d` — the exact threshold of a monotone
  classifier along one axis (the other coordinates fixed), found by
  bisection, valid for *any* monotone classifier;
* :func:`boundary_staircase_2d` — the 2-D boundary polyline of an
  :class:`~repro.core.classifier.UpsetClassifier`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classifier import MonotoneClassifier, UpsetClassifier
from .pairwise import pairwise_weak_dominance

__all__ = [
    "explain_acceptance",
    "explain_rejection",
    "decision_boundary_1d",
    "boundary_staircase_2d",
]


def explain_acceptance(classifier: UpsetClassifier,
                       point: Sequence[float]) -> Optional[np.ndarray]:
    """A witness anchor the accepted point weakly dominates, or ``None``.

    The returned anchor is the explanation: the point scores at least as
    high on every dimension, so by monotonicity it must be accepted.
    Among qualifying anchors the one with the largest coordinate sum (the
    tightest witness) is returned.
    """
    coords = np.asarray(point, dtype=float)
    if classifier.classify(coords) != 1:
        return None
    anchors = classifier.anchors
    dominated = pairwise_weak_dominance(coords[None, :], anchors)[0]
    candidates = anchors[dominated]
    best = int(np.argmax(candidates.sum(axis=1)))
    return candidates[best].copy()


def explain_rejection(classifier: UpsetClassifier,
                      point: Sequence[float]) -> Optional[Dict[str, np.ndarray]]:
    """Why a point is rejected: its closest anchor and the deficit vector.

    Returns ``None`` for accepted points.  For rejected points, picks the
    anchor minimizing the total shortfall ``sum(max(0, anchor - point))``
    and reports both the anchor and the per-dimension deficits — "raise
    these similarities by this much and the pair gets accepted".
    """
    coords = np.asarray(point, dtype=float)
    if classifier.classify(coords) == 1:
        return None
    anchors = classifier.anchors
    if anchors.shape[0] == 0:
        return {"anchor": None, "deficit": None}
    shortfalls = np.maximum(0.0, anchors - coords[None, :])
    totals = shortfalls.sum(axis=1)
    best = int(np.argmin(totals))
    return {"anchor": anchors[best].copy(), "deficit": shortfalls[best].copy()}


def decision_boundary_1d(classifier: MonotoneClassifier, dim: int,
                         fixed: Sequence[float],
                         lo: float, hi: float,
                         tolerance: float = 1e-9) -> float:
    """The classifier's threshold along axis ``dim`` with others fixed.

    By monotonicity the restriction of ``h`` to the axis is a step
    function; bisection finds the step.  Returns ``hi`` if the classifier
    is 0 on the whole segment and ``lo`` if it is 1 everywhere (i.e. the
    returned value ``t`` satisfies: classified 1 iff coordinate > t,
    within the segment and tolerance).
    """
    if lo > hi:
        raise ValueError("need lo <= hi")
    fixed = list(fixed)

    def at(value: float) -> int:
        probe = list(fixed)
        probe.insert(dim, value)
        return classifier.classify(tuple(probe))

    if at(hi) == 0:
        return hi
    if at(lo) == 1:
        return lo
    low, high = lo, hi  # at(low) = 0, at(high) = 1
    while high - low > tolerance:
        mid = (low + high) / 2
        if at(mid) == 1:
            high = mid
        else:
            low = mid
    return (low + high) / 2


def boundary_staircase_2d(classifier: UpsetClassifier) -> List[Tuple[float, float]]:
    """The corner points of a 2-D upset classifier's staircase boundary.

    Returns the classifier's (minimal) anchors sorted by x ascending —
    equivalently y descending, since minimal anchors of a 2-D upset form
    an anti-chain.  Consecutive corners delimit the vertical/horizontal
    boundary segments.
    """
    anchors = classifier.anchors
    if anchors.shape[1] != 2:
        raise ValueError(
            f"boundary_staircase_2d requires d = 2; got d = {anchors.shape[1]}")
    order = np.argsort(anchors[:, 0], kind="stable")
    return [(float(x), float(y)) for x, y in anchors[order]]
