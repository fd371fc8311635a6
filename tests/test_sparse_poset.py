"""Tests for the sparse poset engine (repro.poset.sparse) and the order cache."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import PointSet, obs
from repro.poset import packed_order
from repro.poset.dominance import (
    dominance_digraph,
    dominance_pair_count,
    maximal_points,
    minimal_points,
)
from repro.poset.hasse import covers, hasse_edges
from repro.poset.sparse import (
    order_matrix_blocks,
    transitive_reduction,
    weak_dominance_blocks,
)


def _random_set(n, dim, seed, cardinality=5):
    gen = np.random.default_rng(seed)
    return PointSet(gen.integers(0, cardinality, size=(n, dim)).astype(float),
                    [0] * n)


class TestBlockIterators:
    @pytest.mark.parametrize("n,dim,block", [(1, 1, 4), (37, 2, 8), (64, 3, 16),
                                             (100, 2, 7), (50, 1, 100)])
    def test_order_blocks_match_dense(self, n, dim, block):
        ps = _random_set(n, dim, seed=n + dim)
        stacked = np.vstack([b for _, _, b in order_matrix_blocks(ps, block)])
        assert (stacked == ps.order_matrix()).all()

    @pytest.mark.parametrize("block", [3, 16, 1000])
    def test_weak_blocks_match_dense(self, block):
        ps = _random_set(45, 3, seed=0)
        stacked = np.vstack([b for _, _, b in weak_dominance_blocks(ps, block)])
        assert (stacked == ps.weak_dominance_matrix()).all()

    def test_empty_set(self):
        ps = PointSet.from_points([])
        assert list(order_matrix_blocks(ps)) == []
        assert minimal_points(ps) == []
        assert maximal_points(ps) == []
        assert dominance_pair_count(ps) == 0

    def test_blocks_serve_cache_when_materialized(self):
        ps = _random_set(30, 2, seed=1)
        dense = ps.order_matrix()
        with obs.metrics_session() as reg:
            blocks = [b for _, _, b in order_matrix_blocks(ps, 8)]
        assert reg.counter_value("poset.order_cache_hits") == 1
        # Served as views of the shared cache, not recomputed copies.
        assert all(b.base is dense for b in blocks)


class TestSparseConsumers:
    """The packed order queries, packed in streamed row blocks."""

    @pytest.mark.parametrize("seed", range(5))
    def test_minimal_maximal_match_dense(self, seed):
        ps = _random_set(60, 3, seed=seed)
        packed_order(ps, block_size=13)
        order = PointSet(ps.coords, ps.labels).order_matrix()
        assert minimal_points(ps) == np.flatnonzero(~order.any(axis=1)).tolist()
        assert maximal_points(ps) == np.flatnonzero(~order.any(axis=0)).tolist()

    def test_pair_count_matches_dense(self):
        ps = _random_set(80, 2, seed=9)
        packed_order(ps, block_size=17)
        assert dominance_pair_count(ps) == int(
            PointSet(ps.coords, ps.labels).order_matrix().sum())

    def test_memory_bounded_by_block_size(self):
        """The packed path must never materialize the O(n^2) matrix.

        At n = 1500 the dense boolean matrix is ~2.25 MB; packed in
        64-row blocks, the peak is the ~0.28 MB packed rows plus a few
        (64 x n) boolean panels.  Assert the traced numpy peak stays far
        below the dense footprint (generous 1 MB bound to avoid allocator
        flakiness).
        """
        n = 1500
        gen = np.random.default_rng(3)
        coords = gen.uniform(size=(n, 3))
        ps = PointSet(coords, [0] * n)
        tracemalloc.start()
        tracemalloc.reset_peak()
        packed_order(ps, block_size=64)
        mins = minimal_points(ps)
        maxs = maximal_points(ps)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} bytes suggests a dense intermediate"
        assert ps._weak_dom is None and ps._order is None  # nothing cached
        assert mins and maxs


class TestTransitiveReduction:
    def test_diamond(self):
        # 0 < 1, 0 < 2, 1 < 3, 2 < 3 with the transitive 0 < 3 removed.
        order = np.zeros((4, 4), dtype=bool)
        for up, lo in [(1, 0), (2, 0), (3, 1), (3, 2), (3, 0)]:
            order[up, lo] = True
        reduced = transitive_reduction(order)
        expected = order.copy()
        expected[3, 0] = False
        assert (reduced == expected).all()

    def test_closure_of_reduction_recovers_order(self):
        ps = _random_set(40, 2, seed=5)
        order = ps.order_matrix()
        reduced = transitive_reduction(order)
        closure = reduced.copy()
        for k in range(ps.n):
            closure |= np.outer(closure[:, k], closure[k, :])
        assert (closure == order).all()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            transitive_reduction(np.zeros((2, 3), dtype=bool))


class TestOrderMatrixCache:
    def test_cache_shared_across_helpers(self):
        """The dense helpers share one order matrix; the packed queries
        share one PackedOrder and never touch the dense cache."""
        ps = _random_set(25, 2, seed=7)
        first = ps.order_matrix()
        with obs.metrics_session() as reg:
            hasse_edges(ps)
            covers(ps, 1, 0)
            dominance_digraph(ps)
            minimal_points(ps)
            maximal_points(ps)
        assert ps.order_matrix() is first
        assert reg.counter_value("poset.order_cache_hits") >= 3
        assert reg.counter_value("poset.bitset_cache_hits") >= 1

    def test_cache_is_write_protected(self):
        ps = _random_set(10, 2, seed=8)
        order = ps.order_matrix()
        with pytest.raises(ValueError):
            order[0, 0] = True

    def test_cache_matches_fresh_computation(self):
        ps = _random_set(35, 3, seed=11)
        cached = ps.order_matrix()
        weak = ps.weak_dominance_matrix()
        equal = weak & weak.T
        idx = np.arange(ps.n)
        expected = (weak & ~equal) | (equal & (idx[:, None] > idx[None, :]))
        assert (cached == expected).all()
