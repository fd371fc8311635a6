"""Sparse poset engine: the order matrix streamed in memory-bounded blocks.

The dense dominance machinery (``PointSet.weak_dominance_matrix`` and the
cached :meth:`~repro.core.points.PointSet.order_matrix`) materializes all
``n^2`` booleans at once.  :func:`coordinate_order_blocks` is the streamed
counterpart: it yields the tie-broken order matrix (or its transpose) from
coordinates in row blocks, in ``O(block_size * n)`` scratch memory — never
the ``(n, n, d)`` broadcast intermediate.  The packed engine of
:mod:`repro.poset.bitset` packs its panels.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..core.pairwise import DEFAULT_BLOCK_SIZE, pairwise_weak_dominance

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "coordinate_order_blocks",
]


def coordinate_order_blocks(coords: np.ndarray,
                            block_size: int = DEFAULT_BLOCK_SIZE,
                            transposed: bool = False
                            ) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Row blocks of the tie-broken order (or its transpose) from coordinates.

    With ``transposed=False`` row ``i`` marks every ``j`` that ``i`` is
    above (the rows of :meth:`PointSet.order_matrix`); with
    ``transposed=True`` row ``j`` marks every ``i`` above ``j`` (its
    columns).  The transposed panel is the same weak-dominance test on
    negated coordinates — ``-c_j >= -c_i`` iff ``c_i >= c_j`` — with the
    index tie-break mirrored, so either orientation costs one pass of
    ``O(block_size * n)`` scratch and neither is derived from the other.
    """
    n = coords.shape[0]
    if n == 0:
        return
    idx = np.arange(n)
    # Coordinate-equal ties come from one global duplicate grouping (two
    # points tie iff they share a group id) instead of a reverse-dominance
    # panel per block — that panel would double the pairwise work.
    _, group = np.unique(coords, axis=0, return_inverse=True)
    signed = -coords if transposed else coords
    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        weak = pairwise_weak_dominance(signed[start:stop], signed)
        equal = group[start:stop, None] == group[None, :]
        rows = idx[start:stop, None]
        order = weak & ~equal
        order |= equal & ((rows < idx) if transposed else (rows > idx))
        yield start, stop, order

