"""Dominance width and maximum anti-chain certificates (paper Section 1.2).

The dominance width ``w`` of ``P`` is the size of its largest anti-chain.
By Dilworth's theorem it equals the number of chains in a minimum chain
decomposition, which is how :func:`dominance_width` computes it.

:func:`maximum_antichain` additionally returns a *certificate*: an explicit
anti-chain of size ``w``, extracted via König's theorem from the same
bipartite matching that powers the decomposition.  Tests cross-check both
against :func:`brute_force_width` on small inputs.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

import numpy as np

from ..core.points import PointSet
from .bitset import _unpack_indices, hopcroft_karp_bitset, packed_order
from .chains import minimum_chain_decomposition

__all__ = ["dominance_width", "maximum_antichain", "brute_force_width", "is_antichain"]


def dominance_width(points: PointSet) -> int:
    """The dominance width ``w`` of ``P`` (size of the largest anti-chain)."""
    if points.n == 0:
        return 0
    return minimum_chain_decomposition(points).num_chains


def is_antichain(points: PointSet, indices: List[int]) -> bool:
    """Whether the given indices form an anti-chain (pairwise incomparable).

    Identical coordinate vectors are comparable (each weakly dominates the
    other), so duplicates can never share an anti-chain.
    """
    for a, b in combinations(indices, 2):
        if points.comparable(a, b):
            return False
    return True


def maximum_antichain(points: PointSet) -> List[int]:
    """An anti-chain of maximum size ``w``, as an explicit list of indices.

    Uses the König construction: in the split bipartite graph of the minimum
    path cover reduction, take a maximum matching ``M``, compute a minimum
    vertex cover ``C`` via alternating reachability from the free left
    vertices, and return the points neither of whose copies lies in ``C``.
    Those points are pairwise incomparable and number ``n - |M| = w``.

    The matching is the one
    :func:`~repro.poset.chains.matching_chain_decomposition` reads, and
    the alternating König BFS runs as packed frontier expansions.
    """
    n = points.n
    if n == 0:
        return []
    antichain, matching_size = _bitset_antichain(points)
    expected = n - matching_size
    if len(antichain) != expected:
        raise AssertionError(
            f"König extraction produced {len(antichain)} points, expected {expected}"
        )
    return antichain


def _bitset_antichain(points: PointSet) -> Tuple[List[int], int]:
    """König extraction with packed-bitset alternating BFS.

    The alternating reachability from free left vertices is computed one
    layer at a time: OR the packed adjacency rows of the left frontier,
    mask off rights already visited, and map the fresh rights through the
    matching to the next left frontier.  Reachable sets do not depend on
    traversal order, so the result equals a per-edge alternating search
    over the same matching exactly.
    """
    n = points.n
    packed = packed_order(points)
    matching = hopcroft_karp_bitset(packed.above, n)
    right_match = np.asarray(matching.right_match, dtype=np.int64)

    visited_left = np.asarray(matching.left_match, dtype=np.int64) == -1
    visited_right_packed = np.zeros(packed.above.shape[1], dtype=np.uint8)
    frontier = visited_left.copy()
    while frontier.any():
        reach = np.bitwise_or.reduce(packed.above[frontier], axis=0)
        fresh = reach & ~visited_right_packed
        if not fresh.any():
            break
        visited_right_packed |= fresh
        owners = right_match[_unpack_indices(fresh, n)]
        owners = owners[owners != -1]
        owners = owners[~visited_left[owners]]
        visited_left[owners] = True
        frontier = np.zeros(n, dtype=bool)
        frontier[owners] = True
    visited_right = np.unpackbits(visited_right_packed, count=n).astype(bool)
    antichain = np.flatnonzero(visited_left & ~visited_right).tolist()
    return antichain, matching.size


def brute_force_width(points: PointSet, max_n: int = 18) -> int:
    """Exact width by exhaustive search — test oracle for small inputs only."""
    n = points.n
    if n > max_n:
        raise ValueError(f"brute_force_width limited to n <= {max_n}; got n = {n}")
    best = 0
    indices = list(range(n))
    for size in range(n, 0, -1):
        if size <= best:
            break
        for combo in combinations(indices, size):
            if is_antichain(points, list(combo)):
                best = size
                break
    return best
