"""Hasse diagrams: the transitive reduction of the dominance DAG.

The dominance relation is transitive, so most of its ``O(n^2)`` edges are
redundant.  The *Hasse diagram* keeps only covering pairs — ``i`` covers
``j`` when ``i`` is above ``j`` with nothing strictly between — which is
the minimal edge set whose transitive closure recovers the full order.
Used for inspection, debugging, and the text renderer in
:mod:`repro.viz`; also a compact certificate of the poset structure.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.points import PointSet
from .sparse import hasse_edges_sparse

__all__ = ["hasse_edges", "covers", "transitive_closure_from_hasse"]


def hasse_edges(points: PointSet) -> List[Tuple[int, int]]:
    """Covering pairs ``(lower, upper)`` of the (tie-broken) dominance order.

    ``upper`` covers ``lower`` iff ``upper`` is above ``lower`` and no
    third point sits strictly between them.  Delegates to the packed-bitset
    :func:`repro.poset.sparse.transitive_reduction` over the shared cached
    order matrix.

    The earlier implementation vectorized the "exists k strictly between"
    test as a ``uint8`` matrix product, whose entries wrap mod 256: a pair
    with a multiple-of-256 number of intermediates was falsely reported as
    covering (a 258-point chain emitted a spurious ``(0, 257)`` edge).  The
    bitset union is pure boolean — no counter to overflow.
    """
    return hasse_edges_sparse(points)


def covers(points: PointSet, upper: int, lower: int) -> bool:
    """Whether ``upper`` covers ``lower`` in the dominance order.

    Pure boolean row/column intersection — agrees with :func:`hasse_edges`
    for all ``n`` (both are overflow-free, unlike the retired ``uint8``
    matrix product).
    """
    order = points.order_matrix()
    if not order[upper, lower]:
        return False
    between = order[upper] & order[:, lower]
    return not bool(between.any())


def transitive_closure_from_hasse(points: PointSet) -> np.ndarray:
    """Rebuild the full order matrix from the Hasse edges (test oracle).

    Floyd–Warshall-style closure over the covering edges; must equal the
    directly-computed order matrix, which the tests assert — a structural
    self-check that :func:`hasse_edges` lost nothing.
    """
    n = points.n
    closure = np.zeros((n, n), dtype=bool)
    for lower, upper in hasse_edges(points):
        closure[upper, lower] = True
    for k in range(n):
        # closure[i, j] |= closure[i, k] & closure[k, j]
        closure |= np.outer(closure[:, k], closure[k, :])
    return closure
