"""Monotone classifiers over ``R^d``.

A monotone classifier ``h`` maps every point of ``R^d`` to {0, 1} such that
``h(p) >= h(q)`` whenever ``p`` weakly dominates ``q``.  The classes here are
the concrete classifier families the paper manipulates:

* :class:`ThresholdClassifier` — the 1-D form ``h(p) = 1 iff p > tau``
  (equation (6) of the paper);
* :class:`UpsetClassifier` — ``h(p) = 1`` iff ``p`` weakly dominates one of a
  finite set of *anchor* points.  Every monotone classifier restricted to a
  finite point set can be represented this way (take the minimal 1-labeled
  points as anchors), which is how the multi-dimensional algorithms return
  their answers;
* :class:`ConstantClassifier` — the two trivial monotone classifiers.

All classifiers are immutable and vectorized over :class:`PointSet`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .._util import as_float_matrix
from .pairwise import pairwise_weak_dominance
from .points import PointSet

__all__ = [
    "MonotoneClassifier",
    "ThresholdClassifier",
    "UpsetClassifier",
    "ConstantClassifier",
    "IntersectionClassifier",
    "UnionClassifier",
    "is_monotone_assignment",
    "monotone_extension",
]


class MonotoneClassifier:
    """Abstract base for monotone classifiers.

    Subclasses implement :meth:`classify_matrix`; everything else is derived.
    """

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Classify each row of an ``(m, d)`` coordinate matrix; returns int8."""
        raise NotImplementedError

    def classify(self, point: Sequence[float]) -> int:
        """Classify a single point given as a coordinate sequence."""
        matrix = as_float_matrix([tuple(point)])
        return int(self.classify_matrix(matrix)[0])

    def classify_set(self, points: PointSet) -> np.ndarray:
        """Classify every point of a :class:`PointSet`."""
        return self.classify_matrix(points.coords)

    def __call__(self, point: Sequence[float]) -> int:
        return self.classify(point)


class ConstantClassifier(MonotoneClassifier):
    """The all-0 or all-1 classifier (trivially monotone)."""

    def __init__(self, value: int) -> None:
        if value not in (0, 1):
            raise ValueError(f"constant classifier value must be 0 or 1; got {value}")
        self.value = int(value)

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        return np.full(coords.shape[0], self.value, dtype=np.int8)

    def __repr__(self) -> str:
        return f"ConstantClassifier({self.value})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantClassifier) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


class ThresholdClassifier(MonotoneClassifier):
    """The 1-D monotone classifier ``h(p) = 1 iff p > tau`` (paper eq. (6)).

    ``tau = -inf`` yields the all-1 classifier; ``tau = +inf`` the all-0 one.
    For multi-dimensional inputs the threshold applies to a chosen coordinate
    ``dim`` (default 0), which is still monotone.
    """

    def __init__(self, tau: float, dim: int = 0) -> None:
        if math.isnan(tau):
            raise ValueError("threshold must not be NaN")
        self.tau = float(tau)
        self.dim = int(dim)

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        if coords.shape[1] <= self.dim:
            raise ValueError(
                f"threshold on dim {self.dim} applied to {coords.shape[1]}-dim points"
            )
        return (coords[:, self.dim] > self.tau).astype(np.int8)

    def __repr__(self) -> str:
        return f"ThresholdClassifier(tau={self.tau!r}, dim={self.dim})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ThresholdClassifier)
                and other.tau == self.tau and other.dim == self.dim)

    def __hash__(self) -> int:
        return hash(("thresh", self.tau, self.dim))


class UpsetClassifier(MonotoneClassifier):
    """``h(p) = 1`` iff ``p`` weakly dominates at least one anchor point.

    The 1-region is the *upward closure* (upset) of the anchors, hence the
    classifier is monotone by construction.  With zero anchors this is the
    all-0 classifier.

    Anchors that dominate another anchor are redundant and pruned at
    construction, so ``anchors`` always stores a minimal antichain.  It is
    read-only and column-major for the dominance kernel; its values,
    ``tolist()`` and C-order ``tobytes()`` do not depend on the layout.
    """

    def __init__(self, anchors: Iterable[Sequence[float]], dim: Optional[int] = None) -> None:
        matrix = as_float_matrix(anchors)
        if matrix.shape[0] == 0:
            if dim is None:
                raise ValueError("dim is required when constructing with no anchors")
            matrix = np.empty((0, dim), dtype=float)
        self.anchors = np.asfortranarray(_minimal_anchors(matrix))
        self.anchors.setflags(write=False)

    @classmethod
    def from_positive_points(cls, points: PointSet,
                             predictions: Sequence[int]) -> "UpsetClassifier":
        """Build the upset classifier generated by the 1-predicted points.

        This is the canonical monotone extension of a monotone assignment on
        a finite set: it agrees with ``predictions`` on ``points`` whenever
        the assignment is monotone, and generalizes to all of ``R^d``.
        """
        pred = np.asarray(predictions, dtype=np.int8)
        if pred.shape != (points.n,):
            raise ValueError(f"expected {points.n} predictions, got {pred.shape}")
        ones = points.coords[pred == 1]
        return cls(ones, dim=points.dim)

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        if coords.shape[1] != self.anchors.shape[1]:
            raise ValueError(
                f"dimension mismatch: points have d={coords.shape[1]}, "
                f"anchors have d={self.anchors.shape[1]}"
            )
        dominated = pairwise_weak_dominance(coords, self.anchors)
        return dominated.any(axis=1).view(np.int8)

    @property
    def num_anchors(self) -> int:
        """Number of (minimal) anchor points defining the 1-region."""
        return int(self.anchors.shape[0])

    def __repr__(self) -> str:
        return f"UpsetClassifier(num_anchors={self.num_anchors}, dim={self.anchors.shape[1]})"


class _CompositeClassifier(MonotoneClassifier):
    """Shared machinery for AND/OR compositions.

    Monotone classifiers are closed under pointwise minimum (AND) and
    maximum (OR): if each member satisfies ``h(p) >= h(q)`` for ``p ⪰ q``,
    so do their min and max.  Compositions let users express policies like
    "accept only if both the name-model and the address-model accept".
    """

    def __init__(self, members: Iterable[MonotoneClassifier]) -> None:
        self.members = tuple(members)
        if not self.members:
            raise ValueError("composition requires at least one member")
        for member in self.members:
            if not isinstance(member, MonotoneClassifier):
                raise TypeError(
                    f"members must be MonotoneClassifier; got {type(member)!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(members={len(self.members)})"


class IntersectionClassifier(_CompositeClassifier):
    """Accept iff *every* member accepts (pointwise AND; monotone)."""

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        out = self.members[0].classify_matrix(coords)
        for member in self.members[1:]:
            out = np.minimum(out, member.classify_matrix(coords))
        return out


class UnionClassifier(_CompositeClassifier):
    """Accept iff *some* member accepts (pointwise OR; monotone)."""

    def classify_matrix(self, coords: np.ndarray) -> np.ndarray:
        out = self.members[0].classify_matrix(coords)
        for member in self.members[1:]:
            out = np.maximum(out, member.classify_matrix(coords))
        return out


#: Rows per block of :func:`_minimal_anchors`.
ANCHOR_BLOCK = 256


def _minimal_anchors(matrix: np.ndarray) -> np.ndarray:
    """The minimal rows of ``matrix``, deduplicated, in lexicographic order.

    An anchor that weakly dominates another is redundant (its upset is
    contained).  ``np.unique`` sorts rows lexicographically, a linear
    extension of dominance, so a row is kept iff it dominates no earlier
    row; by transitivity it suffices to test the anchors kept so far and
    the earlier rows of its own block.  ``O(m k d)`` time for ``k``
    anchors, ``O(block max(k, block))`` memory.
    """
    if matrix.shape[0] <= 1:
        return matrix.copy()
    unique = np.unique(matrix, axis=0)
    kept = unique[:0]
    for start in range(0, unique.shape[0], ANCHOR_BLOCK):
        block = unique[start:start + ANCHOR_BLOCK]
        redundant = pairwise_weak_dominance(block, kept).any(axis=1)
        within = pairwise_weak_dominance(block, block)
        redundant |= (within & np.tri(len(block), k=-1, dtype=bool)).any(axis=1)
        kept = np.concatenate([kept, block[~redundant]])
    return kept


def is_monotone_assignment(points: PointSet, predictions: Sequence[int]) -> bool:
    """Whether an assignment on a finite point set respects monotonicity.

    The assignment violates monotonicity iff some point assigned 0 weakly
    dominates a point assigned 1.
    """
    pred = np.asarray(predictions, dtype=np.int8)
    if pred.shape != (points.n,):
        raise ValueError(f"expected {points.n} predictions, got {pred.shape}")
    if points.n == 0:
        return True
    weak = points.weak_dominance_matrix()
    zeros = pred == 0
    ones = pred == 1
    return not bool(np.any(weak[np.ix_(zeros, ones)]))


def monotone_extension(points: PointSet, predictions: Sequence[int]) -> UpsetClassifier:
    """Extend a monotone assignment on ``points`` to all of ``R^d``.

    Raises ``ValueError`` if the assignment is not monotone, since no
    extension could then exist.
    """
    if not is_monotone_assignment(points, predictions):
        raise ValueError("assignment violates monotonicity; no monotone extension exists")
    return UpsetClassifier.from_positive_points(points, predictions)
