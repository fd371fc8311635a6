"""O(n log n) dominance primitives for ``d <= 2`` (prefix extrema).

The generic pipeline charges ``O(d n^2)`` for pairwise dominance facts.
In one and two dimensions the same facts fall out of one sort by x:

* :func:`contending_mask_low_dim` — the Section 5.1 contending mask;
* :func:`is_monotone_assignment_low_dim` — the Lemma 16 check.

``solve_passive`` uses the mask and the check for ``d <= 2``, which
(with the patience decomposition) lets the 2-D pipeline scale to
hundreds of thousands of points, the min-cut instance size permitting.

Weak dominance (``q ⪯ p`` includes equal coordinates) is preserved
throughout: prefix extrema read group-inclusively via ``searchsorted``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.points import PointSet

__all__ = [
    "contending_mask_low_dim",
    "is_monotone_assignment_low_dim",
]


def _as_xy(points: PointSet) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates as (x, y); 1-D points get a constant y (total order)."""
    if points.dim == 1:
        x = points.coords[:, 0]
        return x, np.zeros_like(x)
    if points.dim == 2:
        return points.coords[:, 0], points.coords[:, 1]
    raise ValueError(f"fast path requires d <= 2; got d = {points.dim}")


def _weakly_below(x: np.ndarray, y: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per point: whether some ``marked`` point lies weakly below-left of it.

    Sorted by x, the points with ``x' <= x`` (the equal-x group included)
    end at ``searchsorted(side="right")``; their lowest marked y is a
    running minimum, and a marked count keeps the ``+inf`` filler out.
    """
    order = np.argsort(x)
    sorted_x = x[order]
    is_marked = marked[order]
    seen = np.cumsum(is_marked)
    lowest = np.minimum.accumulate(np.where(is_marked, y[order], np.inf))
    end = np.searchsorted(sorted_x, x, side="right") - 1
    return (seen[end] > 0) & (lowest[end] <= y)


def contending_mask_low_dim(points: PointSet) -> np.ndarray:
    """The Section 5.1 contending mask in ``O(n log n)`` for ``d <= 2``.

    A label-0 point contends iff some label-1 point lies weakly below it
    (both coordinates ``<=``): a prefix-minimum of label-1 y over x.  A
    label-1 point contends iff some label-0 point lies weakly above it,
    which is the same test with both axes negated (a suffix-maximum of
    label-0 y over x).
    """
    points.require_full_labels()
    x, y = _as_xy(points)
    zeros = points.labels == 0
    ones = points.labels == 1
    zero_above_one = zeros & _weakly_below(x, y, ones)
    one_below_zero = ones & _weakly_below(-x, -y, zeros)
    return zero_above_one | one_below_zero


def is_monotone_assignment_low_dim(points: PointSet, predictions: np.ndarray) -> bool:
    """Whether an assignment is monotone, in ``O(n log n)`` for ``d <= 2``.

    Violated iff some 0-assigned point has a 1-assigned point weakly
    below it — the label-0 half of :func:`contending_mask_low_dim`.
    """
    pred = np.asarray(predictions, dtype=np.int8)
    if pred.shape != (points.n,):
        raise ValueError(f"expected {points.n} predictions, got {pred.shape}")
    x, y = _as_xy(points)
    return not bool(np.any(_weakly_below(x, y, pred == 1)[pred == 0]))

