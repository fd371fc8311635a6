"""Dominance digraph construction and order-theoretic helpers.

The paper's Lemma 6 (appendix B) builds an acyclic directed graph whose
vertices are the points of ``P`` and whose edges connect each point to the
points it dominates.  We work with *weak* dominance restricted to distinct
indices; ties (identical coordinate vectors) are broken by index so the
relation stays antisymmetric and the digraph acyclic.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.points import PointSet

__all__ = [
    "dominance_digraph",
    "dominance_adjacency",
    "topological_order",
    "minimal_points",
    "maximal_points",
]


def _use_bitset(points: PointSet) -> bool:
    """Whether the packed-bitset engine should serve an order query.

    The dense cached matrix wins while it exists (the answer is a free
    slice); otherwise large inputs go through :mod:`repro.poset.bitset`,
    which never materializes the ``O(n^2)``-byte boolean caches.
    """
    from .bitset import BITSET_CUTOFF

    return points._order is None and points.n >= BITSET_CUTOFF


def _order_matrix(points: PointSet) -> np.ndarray:
    """Boolean matrix of the antisymmetric order used throughout the poset code.

    ``M[i, j]`` is true iff point ``i`` is *above* point ``j``: either ``i``
    strictly dominates ``j``, or the two coordinate vectors are identical and
    ``i > j`` (index tie-break).  The result is a strict partial order, so
    the induced digraph is a DAG.

    Thin shim over the cached :meth:`PointSet.order_matrix` so every poset
    helper (adjacency, minimal/maximal points, chains, width, Mirsky,
    Hasse) shares one copy per point set instead of rebuilding it per call;
    repeat reads show up in the ``poset.order_cache_hits`` counter.
    """
    return points.order_matrix()


def dominance_digraph(points: PointSet) -> np.ndarray:
    """Return the ``(n, n)`` boolean adjacency matrix of the dominance DAG.

    ``A[i, j]`` is true iff there is an edge from ``j`` (dominated) to ``i``
    (dominating) in the paper's orientation — equivalently, iff ``i`` is
    above ``j`` in the tie-broken order.  Cost is ``O(d n^2)``.
    """
    return _order_matrix(points)


def dominance_adjacency(points: PointSet) -> List[List[int]]:
    """Adjacency lists of the DAG: ``adj[j]`` lists every ``i`` above ``j``.

    Served from the packed ``above`` rows of the bitset engine for large
    inputs; from the dense cached matrix otherwise (identical lists).
    """
    if _use_bitset(points):
        from .bitset import packed_adjacency

        return packed_adjacency(points)
    order = _order_matrix(points)
    return [np.flatnonzero(order[:, j]).tolist() for j in range(points.n)]


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

    ``order[i, j]`` means ``i`` is above ``j``, so point ``i`` is minimal iff
    its row is empty.
    """
    if _use_bitset(points):
        from .bitset import minimal_points_bitset

        return minimal_points_bitset(points)
    order = _order_matrix(points)
    has_below = np.any(order, axis=1)
    return np.flatnonzero(~has_below).tolist()


def maximal_points(points: PointSet) -> List[int]:
    """Indices of maximal points: points with nothing above them.

    Point ``j`` is maximal iff column ``j`` of the order matrix is empty.
    """
    if _use_bitset(points):
        from .bitset import maximal_points_bitset

        return maximal_points_bitset(points)
    order = _order_matrix(points)
    has_above = np.any(order, axis=0)
    return np.flatnonzero(~has_above).tolist()
