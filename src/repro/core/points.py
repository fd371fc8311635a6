"""Point sets, labels, weights, and dominance — the paper's data model.

The paper (Section 1.1) works with a set ``P`` of ``n`` points in ``R^d``,
each carrying a binary label and (for Problem 2) a positive weight.  A point
``p`` *dominates* ``q`` when ``p[i] >= q[i]`` for every dimension ``i`` and
``p != q``.

Classifiers are functions of coordinates, so two points with identical
coordinate vectors must always receive the same prediction.  We therefore
expose *weak* dominance (componentwise ``>=``, including equality) as the
primitive used by every classifier constraint in this package; strict
dominance (the paper's ``p ≻ q`` for distinct points) is available separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .._util import as_float_matrix, validate_labels, validate_weights
from ..obs import recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (poset imports core)
    from ..poset.bitset import PackedOrder

__all__ = [
    "LabeledPoint",
    "PointSet",
    "HIDDEN",
    "weakly_dominates",
    "strictly_dominates",
]

#: Sentinel label value marking a hidden label (active setting).
HIDDEN: int = -1


@dataclass(frozen=True)
class LabeledPoint:
    """A single point with an optional label and a positive weight.

    This is the convenience record for user-facing construction and
    iteration; the hot paths inside the algorithms operate on the columnar
    arrays held by :class:`PointSet`.
    """

    coords: Tuple[float, ...]
    label: int = HIDDEN
    weight: float = 1.0
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.label not in (HIDDEN, 0, 1):
            raise ValueError(f"label must be 0, 1, or HIDDEN(-1); got {self.label}")
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError(f"weight must be a positive finite real; got {self.weight}")
        if not all(np.isfinite(c) for c in self.coords):
            # NaN coordinates silently break dominance trichotomy (NaN >= x
            # is always False), so a "monotone" answer over them is bogus.
            raise ValueError(
                f"coordinates must be finite real numbers; got {self.coords}"
            )

    @property
    def dim(self) -> int:
        """Dimensionality of the point."""
        return len(self.coords)

    def weakly_dominates(self, other: "LabeledPoint") -> bool:
        """``self[i] >= other[i]`` on every dimension (equality allowed)."""
        return weakly_dominates(np.asarray(self.coords), np.asarray(other.coords))

    def strictly_dominates(self, other: "LabeledPoint") -> bool:
        """Weak dominance between distinct coordinate vectors (the paper's ⪰)."""
        return strictly_dominates(np.asarray(self.coords), np.asarray(other.coords))


def weakly_dominates(p: np.ndarray, q: np.ndarray) -> bool:
    """Return whether ``p[i] >= q[i]`` for every dimension ``i``."""
    return bool(np.all(np.asarray(p, dtype=float) >= np.asarray(q, dtype=float)))


def strictly_dominates(p: np.ndarray, q: np.ndarray) -> bool:
    """The paper's dominance: weak dominance between distinct vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return bool(np.all(p >= q) and np.any(p > q))


class PointSet:
    """An immutable columnar set of labeled, weighted points in ``R^d``.

    Attributes
    ----------
    coords:
        ``(n, d)`` float array of coordinates.
    labels:
        ``(n,)`` int8 array with values in {0, 1} or :data:`HIDDEN`.
    weights:
        ``(n,)`` positive float array.

    Coordinates must be finite reals: a NaN coordinate makes dominance
    non-trichotomous (``NaN >= x`` is always false), so every monotonicity
    check downstream silently passes on garbage.  Construction therefore
    raises ``ValueError`` on non-finite coordinates unless ``validate=False``
    is passed explicitly (callers doing their own ±inf handling).

    The dominance matrix is computed lazily and cached; it costs
    ``O(d n^2)`` time and ``O(n^2)`` space, matching the bound the paper
    charges for graph construction (Theorem 4, Lemma 6).
    """

    __slots__ = ("coords", "labels", "weights", "names", "_weak_dom",
                 "_strict_dom", "_order", "_packed_order")

    def __init__(self, coords: Iterable[Sequence[float]],
                 labels: Optional[Iterable[int]] = None,
                 weights: Optional[Iterable[float]] = None,
                 names: Optional[Sequence[Optional[str]]] = None,
                 validate: bool = True) -> None:
        matrix = as_float_matrix(coords, require_finite=validate)
        n = matrix.shape[0]
        if labels is None:
            label_arr = np.full(n, HIDDEN, dtype=np.int8)
        else:
            label_arr = validate_labels(labels, n, allow_hidden=True)
        weight_arr = validate_weights(weights, n)
        matrix.setflags(write=False)
        label_arr.setflags(write=False)
        weight_arr.setflags(write=False)
        self.coords: np.ndarray = matrix
        self.labels: np.ndarray = label_arr
        self.weights: np.ndarray = weight_arr
        self.names: Optional[Tuple[Optional[str], ...]] = (
            tuple(names) if names is not None else None
        )
        if self.names is not None and len(self.names) != n:
            raise ValueError(f"expected {n} names, got {len(self.names)}")
        self._weak_dom: Optional[np.ndarray] = None
        self._strict_dom: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        # Packed-bitset order cache (repro.poset.bitset.packed_order): the
        # 8x-smaller sibling of _order, populated only by the bitset engine
        # so large inputs never force the dense O(n^2) boolean caches.
        self._packed_order: Optional["PackedOrder"] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[LabeledPoint]) -> "PointSet":
        """Build a :class:`PointSet` from :class:`LabeledPoint` records."""
        pts = list(points)
        if not pts:
            return cls(np.empty((0, 1)), [], [])
        dim = pts[0].dim
        for p in pts:
            if p.dim != dim:
                raise ValueError("all points must share the same dimensionality")
        return cls(
            coords=[p.coords for p in pts],
            labels=[p.label for p in pts],
            weights=[p.weight for p in pts],
            names=[p.name for p in pts],
        )

    def replace(self, labels: Optional[Iterable[int]] = None,
                weights: Optional[Iterable[float]] = None) -> "PointSet":
        """Return a copy with labels and/or weights swapped out."""
        return PointSet(
            self.coords,
            labels=self.labels if labels is None else labels,
            weights=self.weights if weights is None else weights,
            names=self.names,
            validate=False,
        )

    def subset(self, indices: Sequence[int]) -> "PointSet":
        """Return the sub-:class:`PointSet` induced by ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=int)
        names = None
        if self.names is not None:
            names = [self.names[i] for i in idx]
        return PointSet(self.coords[idx], self.labels[idx], self.weights[idx],
                        names, validate=False)

    def with_hidden_labels(self) -> "PointSet":
        """Return a copy whose labels are all hidden (active-setting input)."""
        return PointSet(self.coords, None, self.weights, self.names,
                        validate=False)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def n(self) -> int:
        """Number of points (the paper's ``n``)."""
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality (the paper's ``d``)."""
        return self.coords.shape[1]

    @property
    def total_weight(self) -> float:
        """Sum of all point weights."""
        return float(self.weights.sum())

    def __iter__(self) -> Iterator[LabeledPoint]:
        for i in range(self.n):
            yield self.point(i)

    def point(self, index: int) -> LabeledPoint:
        """Materialize point ``index`` as a :class:`LabeledPoint`."""
        name = self.names[index] if self.names is not None else None
        return LabeledPoint(
            coords=tuple(float(c) for c in self.coords[index]),
            label=int(self.labels[index]),
            weight=float(self.weights[index]),
            name=name,
        )

    def __repr__(self) -> str:
        hidden = int(np.count_nonzero(self.labels == HIDDEN))
        return (f"PointSet(n={self.n}, d={self.dim}, hidden_labels={hidden}, "
                f"total_weight={self.total_weight:g})")

    # ------------------------------------------------------------------
    # Label bookkeeping
    # ------------------------------------------------------------------

    @property
    def has_hidden_labels(self) -> bool:
        """Whether any label is hidden."""
        return bool(np.any(self.labels == HIDDEN))

    def require_full_labels(self) -> None:
        """Raise ``ValueError`` if any label is hidden.

        Passive algorithms call this up front: Problem 2 assumes a
        fully-labeled input.
        """
        if self.has_hidden_labels:
            raise ValueError("operation requires a fully-labeled point set")

    def require_no_nan(self, consumer: str) -> None:
        """Raise ``ValueError`` naming the first point with a NaN coordinate.

        Reachable only through ``validate=False``; ``±inf`` passes.
        ``consumer`` names the caller in the message.
        """
        nan_rows = np.flatnonzero(np.isnan(self.coords).any(axis=1))
        if len(nan_rows):
            bad = int(nan_rows[0])
            raise ValueError(
                f"point {bad} has a NaN coordinate ({self.coords[bad].tolist()}"
                "): every comparison with NaN is false, so dominance is "
                f"undefined on it; drop or impute such points before {consumer}"
            )

    # ------------------------------------------------------------------
    # Dominance
    # ------------------------------------------------------------------

    def weak_dominance_matrix(self) -> np.ndarray:
        """Boolean matrix ``M[i, j]`` = point ``i`` weakly dominates point ``j``.

        Weak dominance includes equality of coordinate vectors, so the
        diagonal is always ``True``.  Computed once in ``O(d n^2)`` and cached.
        """
        if self._weak_dom is None:
            if self.n == 0:
                self._weak_dom = np.zeros((0, 0), dtype=bool)
            else:
                # Accumulate one dimension at a time: peak scratch memory is
                # one (n, n) boolean matrix, not the (n, n, d) broadcast
                # intermediate.
                weak = np.ones((self.n, self.n), dtype=bool)
                for k in range(self.dim):
                    col = self.coords[:, k]
                    np.logical_and(weak, col[:, None] >= col[None, :], out=weak)
                self._weak_dom = weak
            self._weak_dom.setflags(write=False)
        return self._weak_dom

    def order_matrix(self) -> np.ndarray:
        """Boolean matrix of the tie-broken strict order shared by the poset code.

        ``M[i, j]`` is true iff point ``i`` is *above* point ``j``: either
        ``i`` strictly dominates ``j``, or the coordinate vectors are
        identical and ``i > j`` (index tie-break), making the relation a
        strict partial order whose digraph is a DAG.  Computed once and
        cached for the Hasse-diagram helpers and the dense test references;
        the other poset queries read the packed rows of
        :func:`repro.poset.bitset.packed_order` instead.  Cache hits are
        counted in the ``poset.order_cache_hits`` metric.
        """
        if self._order is None:
            weak = self.weak_dominance_matrix()
            equal = weak & weak.T
            order = weak & ~equal
            if self.n:
                idx = np.arange(self.n)
                order |= equal & (idx[:, None] > idx[None, :])
            order.setflags(write=False)
            self._order = order
        else:
            rec = recorder()
            if rec.enabled:
                rec.incr("poset.order_cache_hits")
        return self._order

    def strict_dominance_matrix(self) -> np.ndarray:
        """Boolean matrix of the paper's dominance (distinct vectors only)."""
        if self._strict_dom is None:
            weak = self.weak_dominance_matrix()
            # p strictly dominates q iff p >= q componentwise and p != q as
            # vectors, i.e. not (q >= p as well).
            self._strict_dom = weak & ~weak.T
            self._strict_dom.setflags(write=False)
        return self._strict_dom

    def weakly_dominates(self, i: int, j: int) -> bool:
        """Whether point ``i`` weakly dominates point ``j``."""
        return bool(np.all(self.coords[i] >= self.coords[j]))

    def strictly_dominates(self, i: int, j: int) -> bool:
        """Whether point ``i`` dominates ``j`` in the paper's (strict) sense."""
        return (bool(np.all(self.coords[i] >= self.coords[j]))
                and bool(np.any(self.coords[i] > self.coords[j])))

    def comparable(self, i: int, j: int) -> bool:
        """Whether points ``i`` and ``j`` are comparable under weak dominance."""
        return self.weakly_dominates(i, j) or self.weakly_dominates(j, i)

    def is_monotone_labeling(self) -> bool:
        """Whether the (full) labeling itself is monotone, i.e. ``k* = 0``.

        True iff no label-0 point weakly dominates a label-1 point.
        """
        self.require_full_labels()
        if self.n == 0:
            return True
        weak = self.weak_dominance_matrix()
        zeros = self.labels == 0
        ones = self.labels == 1
        return not bool(np.any(weak[np.ix_(zeros, ones)]))
