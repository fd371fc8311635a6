"""Sparse poset engine: memory-bounded dominance and transitive reduction.

The dense dominance machinery (``PointSet.weak_dominance_matrix`` and the
cached :meth:`~repro.core.points.PointSet.order_matrix`) materializes all
``n^2`` booleans at once.  This module is the streamed counterpart:

* :func:`coordinate_order_blocks` streams the tie-broken order matrix
  (or its transpose) from coordinates in row blocks, in ``O(block_size *
  n)`` scratch memory — never the ``(n, n, d)`` broadcast intermediate
  (the packed engine of :mod:`repro.poset.bitset` packs its panels);
* :func:`transitive_reduction` computes the Hasse (covering) relation of an
  explicit boolean order matrix with packed-bitset row unions — exact
  boolean reachability, immune to the mod-256 wraparound that an integer
  matrix product suffers (see :mod:`repro.poset.hasse`), and ``O(m n / 8)``
  bytes of work for ``m`` order pairs instead of an ``O(n^3)`` product.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from ..core.pairwise import DEFAULT_BLOCK_SIZE, pairwise_weak_dominance
from ..core.points import PointSet

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "coordinate_order_blocks",
    "transitive_reduction",
    "hasse_edges_sparse",
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


def transitive_reduction(order: np.ndarray) -> np.ndarray:
    """Covering relation (Hasse diagram) of a transitively-closed strict order.

    ``order[i, j]`` must mean ``i`` is above ``j`` and must already be a
    strict partial order (irreflexive, antisymmetric, transitive).  Returns
    the boolean matrix keeping exactly the pairs with no third point
    strictly between them — the unique minimal relation whose transitive
    closure is ``order``.

    Implementation: rows are packed into bitsets (``np.packbits``) and the
    two-step reachability of row ``i`` is the OR of the packed rows of
    everything below ``i``.  Pure boolean arithmetic — unlike a ``uint8``
    matrix product there is no counter to wrap mod 256 — and the cost is
    ``O(m n / 8)`` bytes of bitset unions for ``m`` order pairs.
    """
    order = np.asarray(order, dtype=bool)
    n = order.shape[0]
    if order.shape != (n, n):
        raise ValueError(f"order matrix must be square; got {order.shape}")
    reduction = order.copy()
    if n == 0:
        return reduction
    packed = np.packbits(order, axis=1)
    for i in range(n):
        below = np.flatnonzero(order[i])
        if len(below) == 0:
            continue
        two_step = np.bitwise_or.reduce(packed[below], axis=0)
        reachable = np.unpackbits(two_step, count=n).astype(bool)
        reduction[i] &= ~reachable
    return reduction


def hasse_edges_sparse(points: PointSet) -> List[Tuple[int, int]]:
    """Covering pairs ``(lower, upper)`` via the shared cache + bitset reduction.

    Same contract as :func:`repro.poset.hasse.hasse_edges` (which delegates
    here); exposed separately so callers holding a precomputed order matrix
    can call :func:`transitive_reduction` directly.
    """
    if points.n == 0:
        return []
    covering = transitive_reduction(points.order_matrix())
    uppers, lowers = np.nonzero(covering)
    return [(int(lo), int(up)) for up, lo in zip(uppers, lowers)]
