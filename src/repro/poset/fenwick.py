"""A Fenwick (binary indexed) tree over prefix sums of counts.

Substrate for the low-dimensional dominance fast paths in
:mod:`repro.poset.dominance2d`: sweepline algorithms use it to count
previously-seen points with y-rank at most a query rank in ``O(log n)``.
"""

from __future__ import annotations

from typing import List

__all__ = ["FenwickTree"]


class FenwickTree:
    """Point updates and prefix-sum queries over ``size`` integer slots."""

    __slots__ = ("size", "_tree")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = size
        self._tree: List[int] = [0] * (size + 1)

    def add(self, index: int, amount: int = 1) -> None:
        """Add ``amount`` at position ``index`` (0-based)."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        i = index + 1
        while i <= self.size:
            self._tree[i] += amount
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of positions ``0 .. index`` inclusive; -1 yields 0."""
        if index >= self.size:
            index = self.size - 1
        total = 0
        i = index + 1
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    def total(self) -> int:
        """Sum over all positions."""
        return self.prefix_sum(self.size - 1) if self.size else 0
