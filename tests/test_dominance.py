"""Tests for the dominance digraph (``PointSet.order_matrix``) and the
order helpers of repro.poset.dominance."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet
from repro.poset.dominance import (
    maximal_points,
    minimal_points,
    topological_order,
)


class TestDominanceDigraph:
    """The DAG's adjacency matrix is the cached ``PointSet.order_matrix``."""

    def test_acyclic_with_duplicates(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)], [0] * 3)
        order = ps.order_matrix()
        # Antisymmetric: no 2-cycles even among duplicates.
        assert not (order & order.T).any()
        # Duplicate tie broken by index: 1 is "above" 0.
        assert order[1, 0] and not order[0, 1]

    def test_edges_follow_strict_dominance(self, tiny_2d):
        order = tiny_2d.order_matrix()
        assert order[3, 0]  # (2,2) above (0,0)
        assert order[1, 0] and order[2, 0]
        assert not order[1, 2] and not order[2, 1]


class TestTopologicalOrder:
    def test_respects_dominance(self, tiny_2d):
        order = topological_order(tiny_2d)
        position = {idx: pos for pos, idx in enumerate(order)}
        matrix = tiny_2d.order_matrix()
        for i in range(tiny_2d.n):
            for j in range(tiny_2d.n):
                if matrix[i, j]:  # i above j => j earlier
                    assert position[j] < position[i]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 3), st.integers(0, 10_000))
    def test_respects_dominance_random(self, n, dim, seed):
        gen = np.random.default_rng(seed)
        ps = PointSet(gen.integers(0, 4, size=(n, dim)).astype(float), [0] * n)
        order = topological_order(ps)
        assert sorted(order) == list(range(n))
        position = {idx: pos for pos, idx in enumerate(order)}
        matrix = ps.order_matrix()
        for i in range(n):
            for j in range(n):
                if matrix[i, j]:
                    assert position[j] < position[i]


class TestExtremes:
    def test_minimal_and_maximal(self, tiny_2d):
        assert minimal_points(tiny_2d) == [0]
        assert maximal_points(tiny_2d) == [3]

    def test_antichain_all_extreme(self):
        ps = PointSet([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)], [0] * 3)
        assert minimal_points(ps) == [0, 1, 2]
        assert maximal_points(ps) == [0, 1, 2]

    def test_duplicates_tie_broken(self):
        ps = PointSet([(1.0,), (1.0,)], [0, 0])
        # Index 0 is "below" its duplicate, index 1 "above".
        assert minimal_points(ps) == [0]
        assert maximal_points(ps) == [1]
