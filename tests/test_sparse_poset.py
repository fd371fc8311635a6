"""Tests for the sparse poset engine (repro.poset.sparse) and the order cache."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import PointSet, obs
from repro.fuzz import check_poset_structure
from repro.poset import packed_order
from repro.poset.dominance import (
    dominance_pair_count,
    maximal_points,
    minimal_points,
)

from .conftest import order_adjacency, reference_heights


def _random_set(n, dim, seed, cardinality=5):
    gen = np.random.default_rng(seed)
    return PointSet(gen.integers(0, cardinality, size=(n, dim)).astype(float),
                    [0] * n)


class TestSparseConsumers:
    """The packed order queries, packed in streamed row blocks."""

    def test_empty_set(self):
        ps = PointSet.from_points([])
        assert minimal_points(ps) == []
        assert maximal_points(ps) == []
        assert dominance_pair_count(ps) == 0

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


class TestOrderMatrixCache:
    def test_cache_shared_across_helpers(self):
        """The structure check and the dense references share one order
        matrix; the packed queries share one PackedOrder and never touch
        the dense cache."""
        ps = _random_set(25, 2, seed=7)
        first = ps.order_matrix()
        with obs.metrics_session() as reg:
            assert check_poset_structure(ps) == []
            order_adjacency(ps)
            reference_heights(ps)
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
