"""Mirsky's theorem: minimum antichain partitions and longest chains.

Dilworth's theorem (chains vs maximum antichain) powers the paper; its
dual — Mirsky's theorem — says the minimum number of *antichains* that
partition a poset equals the length of its longest *chain*.  The
canonical construction assigns each point its *height* (longest chain
ending at it); equal-height points are pairwise incomparable.

Useful here for workload analysis: the height profile describes how
"deep" a point set is, complementing the width ``w`` that drives the
probing bounds (a set of ``n`` points satisfies ``width * height >= n``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.points import PointSet
from .bitset import packed_order
from .dominance import topological_order

__all__ = ["heights", "longest_chain_length", "mirsky_antichain_partition"]


def heights(points: PointSet) -> np.ndarray:
    """Height of each point: length of the longest chain ending at it.

    Computed by a DP over a topological order of the (tie-broken)
    dominance DAG; heights start at 1 for minimal points.  The below-sets
    are unpacked from the packed ``below`` rows of the bitset engine.
    """
    n = points.n
    result = np.zeros(n, dtype=int)
    if n == 0:
        return result
    packed = packed_order(points)
    for idx in topological_order(points):
        below = packed.below_indices(idx)
        result[idx] = 1 + (result[below].max() if len(below) else 0)
    return result


def longest_chain_length(points: PointSet) -> int:
    """Length of the longest chain (Mirsky: = minimum antichain count)."""
    if points.n == 0:
        return 0
    return int(heights(points).max())


def mirsky_antichain_partition(points: PointSet) -> List[List[int]]:
    """Partition indices into the minimum number of antichains.

    Level ``k`` collects the points of height ``k + 1``; by construction
    two points of equal height are incomparable (a comparable pair has
    strictly increasing heights along the order), so every level is an
    antichain, and there are exactly ``longest_chain_length`` of them —
    optimal, since a chain meets each antichain at most once.
    """
    point_heights = heights(points)
    if points.n == 0:
        return []
    levels: List[List[int]] = [[] for _ in range(int(point_heights.max()))]
    for idx, height in enumerate(point_heights):
        levels[height - 1].append(idx)
    return levels
