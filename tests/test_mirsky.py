"""Tests for heights and longest chains (repro.poset.mirsky)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, dominance_width
from repro.poset.mirsky import heights, longest_chain_length


class TestHeights:
    def test_chain_heights_increase(self):
        ps = PointSet([(float(i),) for i in range(5)], [0] * 5)
        assert sorted(heights(ps).tolist()) == [1, 2, 3, 4, 5]

    def test_antichain_all_height_one(self):
        ps = PointSet([(float(i), float(-i)) for i in range(4)], [0] * 4)
        assert (heights(ps) == 1).all()

    def test_tiny_example(self, tiny_2d):
        h = heights(tiny_2d)
        # (0,0) minimal; (1,1) and (2,0) at height 2; (2,2) at height 3.
        assert h[0] == 1 and h[1] == 2 and h[2] == 2 and h[3] == 3

    def test_empty(self):
        assert heights(PointSet.from_points([])).shape == (0,)


class TestLongestChain:
    def test_known_values(self, tiny_2d):
        assert longest_chain_length(tiny_2d) == 3

    def test_duplicates_chain_through_tie_break(self):
        ps = PointSet([(1.0,)] * 4, [0] * 4)
        assert longest_chain_length(ps) == 4

    def test_brute_force_agreement(self):
        gen = np.random.default_rng(0)
        for _ in range(15):
            n = int(gen.integers(1, 10))
            ps = PointSet(gen.integers(0, 4, size=(n, 2)).astype(float),
                          [0] * n)
            best = 0
            order = ps.weak_dominance_matrix()
            for size in range(1, n + 1):
                for combo in combinations(range(n), size):
                    # A chain: totally ordered under weak dominance.
                    if all(order[a, b] or order[b, a]
                           for a, b in combinations(combo, 2)):
                        best = max(best, size)
            assert longest_chain_length(ps) == best


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(1, 3), st.integers(0, 10_000))
def test_width_times_height_covers_n(n, dim, seed):
    """Property (Dilworth x Mirsky): width * height >= n."""
    gen = np.random.default_rng(seed)
    ps = PointSet(gen.integers(0, 4, size=(n, dim)).astype(float), [0] * n)
    assert dominance_width(ps) * longest_chain_length(ps) >= n
