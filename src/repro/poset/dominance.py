"""Order-theoretic helpers over the dominance digraph.

The paper's Lemma 6 (appendix B) builds an acyclic directed graph whose
vertices are the points of ``P`` and whose edges connect each point to the
points it dominates.  We work with *weak* dominance restricted to distinct
indices; ties (identical coordinate vectors) are broken by index so the
relation stays antisymmetric and the digraph acyclic.  Its dense adjacency
matrix is the cached :meth:`~repro.core.points.PointSet.order_matrix`.

The order queries (minimal/maximal points, pair count) read the packed
bitset rows of :func:`repro.poset.bitset.packed_order`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.points import PointSet
from .bitset import packed_order

__all__ = [
    "topological_order",
    "minimal_points",
    "maximal_points",
    "dominance_pair_count",
]


def topological_order(points: PointSet) -> List[int]:
    """Indices sorted so that dominated points come before dominating ones.

    Sorting by coordinate sum (with index tie-break) is a valid topological
    order for dominance: if ``i`` is above ``j`` then ``sum(i) >= sum(j)``,
    and equal sums with dominance force identical vectors, resolved by index.
    """
    sums = points.coords.sum(axis=1)
    return list(np.lexsort((np.arange(points.n), sums)))


def minimal_points(points: PointSet) -> List[int]:
    """Indices of minimal points: points with nothing below them.

    A point is minimal iff its packed ``below`` row is all-zero bytes —
    one vectorized ``any`` over the packed rows.
    """
    has_below = (packed_order(points).below != 0).any(axis=1)
    return np.flatnonzero(~has_below).tolist()


def maximal_points(points: PointSet) -> List[int]:
    """Indices of maximal points: points with nothing above them.

    Point ``j`` is maximal iff its bit is clear in every packed ``below``
    row: one OR-reduction over the rows, so the ``above`` orientation is
    never built.
    """
    has_above = np.unpackbits(
        np.bitwise_or.reduce(packed_order(points).below, axis=0),
        count=points.n)
    return np.flatnonzero(has_above == 0).tolist()


def dominance_pair_count(points: PointSet) -> int:
    """Number of ordered pairs in the tie-broken order (its edge count).

    A hardware popcount over whichever packed orientation is already
    built, so counting never forces the other one.
    """
    return packed_order(points).pair_count()
