"""Parity tests for the packed-bitset order engine (repro.poset.bitset).

The bitset engine's contract is *bit-identical results*, not merely equal
sizes: the Lemma 6 chain decomposition, the König antichain, and the
Theorem 4 network construction all consume the matching / order verbatim,
so every kernel here is cross-checked against the loop/dense reference —
vertex-for-vertex, chain-for-chain — on hypothesis-generated sets (with
the cutoff lowered so small instances exercise the packed path) and on
deterministic sizes straddling byte boundaries (``n = 257, 258, 264``),
where stray padding bits would first show up.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.poset.bitset as bitset_mod
from repro import PointSet, obs
from repro.core.pairwise import (
    blocked_contending_mask,
    blocked_dominance_pair_arrays,
    blocked_dominance_pairs,
)
from repro.core.passive import contending_mask, solve_passive
from repro.flow import FlowNetwork
from repro.poset import (
    heights,
    hopcroft_karp,
    hopcroft_karp_bitset,
    matching_chain_decomposition,
    maximal_points,
    maximum_antichain,
    minimal_points,
    packed_adjacency,
    packed_order,
    popcount,
)
from repro.poset.bitset import (
    contending_mask_bitset,
    dominance_pair_count_bitset,
    maximal_points_bitset,
    minimal_points_bitset,
)
from repro.poset.dominance import _order_matrix

from .conftest import random_labeled_points
from .strategies import point_sets


def _fresh(points: PointSet) -> PointSet:
    """A copy with cold caches, so engine auto-selection is not short-
    circuited by the dense order matrix the reference path materialized."""
    return PointSet(points.coords.copy(), points.labels.copy(),
                    points.weights.copy())


def _force_bitset():
    """Context manager lowering the auto-selection cutoff to 1 point."""
    return mock.patch.object(bitset_mod, "BITSET_CUTOFF", 1)


def _force_loop():
    """Context manager raising the auto-selection cutoff out of reach."""
    return mock.patch.object(bitset_mod, "BITSET_CUTOFF", sys.maxsize)


class TestPackedOrderStructure:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 257, 258, 264])
    def test_pack_matches_order_matrix(self, n):
        ps = random_labeled_points(np.random.default_rng(n), n, 3)
        packed = packed_order(ps, block_size=64)
        order = _order_matrix(_fresh(ps))
        unpacked = np.unpackbits(packed.below, axis=1, count=n).astype(bool)
        assert np.array_equal(unpacked, order)
        unpacked_t = np.unpackbits(packed.above, axis=1, count=n).astype(bool)
        assert np.array_equal(unpacked_t, order.T)

    @pytest.mark.parametrize("n", [7, 257, 258])
    def test_padding_bits_are_zero(self, n):
        ps = random_labeled_points(np.random.default_rng(n), n, 2)
        packed = packed_order(ps)
        pad = 8 * packed.below.shape[1] - n
        assert pad > 0
        pad_mask = np.uint8((1 << pad) - 1)
        assert not np.any(packed.below[:, -1] & pad_mask)
        assert not np.any(packed.above[:, -1] & pad_mask)

    def test_cache_reused(self):
        ps = random_labeled_points(np.random.default_rng(0), 40, 2)
        assert packed_order(ps) is packed_order(ps)

    def test_popcount_axes(self):
        packed = np.packbits(np.eye(11, dtype=bool), axis=1)
        assert popcount(packed) == 11
        assert popcount(packed, axis=1).tolist() == [1] * 11

    @pytest.mark.parametrize("n", [257, 258, 264])
    def test_above_is_order_transpose_with_ties(self, n):
        """The directly built ``above`` equals ``order_matrix().T`` where
        the tie-break decides: duplicate vectors and signed zeros."""
        gen = np.random.default_rng(n)
        coords = gen.integers(-1, 2, size=(n, 3)).astype(float)
        coords[gen.random((n, 3)) < 0.3] *= -1.0  # 0.0 -> -0.0 on some axes
        coords[n // 2:n // 2 + 20] = coords[:20]
        # Equal vectors whose zeros differ in sign.
        coords[-20:] = np.where(coords[:20] == 0, -coords[:20], coords[:20])
        ps = PointSet(coords, np.zeros(n, dtype=int))
        assert np.signbit(coords[coords == 0]).any()
        packed = packed_order(ps, block_size=24)
        above = np.unpackbits(packed.above, axis=1, count=n).astype(bool)
        assert np.array_equal(above, _order_matrix(_fresh(ps)).T)

    def test_pair_count_from_either_orientation(self):
        ps = random_labeled_points(np.random.default_rng(5), 300, 3)
        from_above = packed_order(_fresh(ps))
        from_below = packed_order(_fresh(ps))
        assert from_above.num_bytes == 0  # nothing packed until first read
        from_above.above
        from_below.below
        expected = int(_order_matrix(_fresh(ps)).sum())
        assert from_above.pair_count() == from_below.pair_count() == expected
        # Counting never forces the missing orientation.
        assert from_above._below is None and from_below._above is None

    def test_chain_decomposition_leaves_below_unbuilt(self):
        ps = random_labeled_points(np.random.default_rng(6), 300, 3)
        with obs.metrics_session() as reg:
            matching_chain_decomposition(ps)  # n >= cutoff: bitset path
        assert ps._packed_order._above is not None
        assert ps._packed_order._below is None
        assert reg.counter_value("poset.bitset_packs") == 1


class TestConsumerParity:
    @settings(max_examples=60, deadline=None)
    @given(ps=point_sets(max_n=24))
    def test_minimal_maximal_count_parity(self, ps):
        reference_min = minimal_points(_fresh(ps))
        reference_max = maximal_points(_fresh(ps))
        reference_pairs = int(_order_matrix(_fresh(ps)).sum())
        assert minimal_points_bitset(ps) == reference_min
        assert maximal_points_bitset(ps) == reference_max
        assert dominance_pair_count_bitset(ps) == reference_pairs

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=20))
    def test_packed_adjacency_parity(self, ps):
        order = _order_matrix(_fresh(ps))
        expected = [np.flatnonzero(order[:, u]).tolist()
                    for u in range(ps.n)]
        assert packed_adjacency(ps) == expected

    @settings(max_examples=60, deadline=None)
    @given(ps=point_sets(max_n=24))
    def test_contending_mask_parity(self, ps):
        dense = contending_mask(_fresh(ps))
        blocked = blocked_contending_mask(_fresh(ps), block_size=5)
        packed = contending_mask_bitset(ps, block_size=5)
        assert np.array_equal(packed, dense)
        assert np.array_equal(packed, blocked)

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=20))
    def test_auto_selected_consumers_match_dense(self, ps):
        """With the cutoff forced to 1, every auto-dispatching consumer
        must agree with the dense reference on a cold copy."""
        dense_min = minimal_points(_fresh(ps))
        dense_heights = heights(_fresh(ps))
        with _force_bitset():
            cold = _fresh(ps)
            assert minimal_points(cold) == dense_min
            assert np.array_equal(heights(cold), dense_heights)


@st.composite
def packed_bipartite(draw):
    """A random bipartite graph as (adjacency lists, packed rows, n_right).

    Sides differ in size, ``n_right`` is rarely a multiple of 8, some rows
    are empty, and the packed rows may carry stray bits in the padding of
    their last byte, which the engine must ignore.
    """
    n_left = draw(st.integers(0, 20))
    n_right = draw(st.integers(0, 21))
    dense = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=n_right, max_size=n_right),
        min_size=n_left, max_size=n_left)), dtype=bool).reshape(n_left, n_right)
    packed = np.packbits(dense, axis=1)
    if n_right % 8 and n_left:
        stray = draw(st.lists(st.integers(0, 255), min_size=n_left,
                              max_size=n_left))
        packed[:, -1] |= np.array(stray, dtype=np.uint8) & (0xFF >> n_right % 8)
    adjacency = [np.flatnonzero(row).tolist() for row in dense]
    return adjacency, packed, n_right


class TestMatchingParity:
    @settings(max_examples=150, deadline=None)
    @given(graph=packed_bipartite())
    def test_bipartite_vertex_for_vertex(self, graph):
        adjacency, packed, n_right = graph
        reference = hopcroft_karp(adjacency, n_right)
        result = hopcroft_karp_bitset(packed, n_right)
        assert result.size == reference.size
        assert result.left_match == reference.left_match
        assert result.right_match == reference.right_match

    def test_rejects_wrong_byte_width(self):
        with pytest.raises(ValueError, match="byte columns"):
            hopcroft_karp_bitset(np.zeros((3, 2), dtype=np.uint8), 17)

    @settings(max_examples=60, deadline=None)
    @given(ps=point_sets(max_n=24))
    def test_matching_vertex_for_vertex(self, ps):
        order = _order_matrix(_fresh(ps))
        n = ps.n
        adjacency = [np.flatnonzero(order[:, u]).tolist() for u in range(n)]
        reference = hopcroft_karp(adjacency, n)
        packed = packed_order(ps)
        result = hopcroft_karp_bitset(packed.above, n)
        assert result.size == reference.size
        assert result.left_match == reference.left_match
        assert result.right_match == reference.right_match

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=20))
    def test_chains_and_antichain_engine_parity(self, ps):
        with _force_loop():
            loop_chains = matching_chain_decomposition(_fresh(ps))
            loop_antichain = maximum_antichain(_fresh(ps))
        with _force_bitset():
            bit_chains = matching_chain_decomposition(_fresh(ps))
            bit_antichain = maximum_antichain(_fresh(ps))
        assert bit_chains.chains == loop_chains.chains
        assert bit_antichain == loop_antichain

    @pytest.mark.parametrize("n", [257, 258, 264])
    def test_chain_regression_near_byte_boundary(self, n):
        """n = 258-style regression: above the cutoff the auto path is the
        bitset engine and a stray padding bit would corrupt the matching
        (a phantom 259th point in every frontier)."""
        ps = random_labeled_points(np.random.default_rng(n), n, 3)
        auto = matching_chain_decomposition(ps)  # n >= cutoff: bitset
        with _force_loop():
            loop = matching_chain_decomposition(_fresh(ps))
            loop_antichain = maximum_antichain(_fresh(ps))
        assert auto.chains == loop.chains
        assert maximum_antichain(ps) == loop_antichain


class TestFlowConstructionParity:
    def test_add_edges_matches_sequential(self):
        gen = np.random.default_rng(3)
        for _ in range(25):
            n = int(gen.integers(2, 25))
            m = int(gen.integers(0, 50))
            tails = gen.integers(0, n, m)
            heads = gen.integers(0, n, m)
            caps = gen.random(m) * 9
            seq = FlowNetwork(n)
            for t, h, c in zip(tails, heads, caps):
                seq.add_edge(int(t), int(h), float(c))
            bulk = FlowNetwork(n)
            ids = bulk.add_edges(tails, heads, caps)
            assert bulk.heads == seq.heads
            assert bulk.caps == seq.caps
            assert bulk.tails == seq.tails
            assert bulk.adjacency == seq.adjacency
            assert ids.tolist() == list(range(0, 2 * m, 2))

    def test_add_edges_scalar_capacity_and_empty(self):
        net = FlowNetwork(3)
        assert net.add_edges(np.empty(0, int), np.empty(0, int), 1.0).size == 0
        net.add_edges(np.array([0, 1]), np.array([1, 2]), float("inf"))
        assert net.caps[0] == float("inf") and net.caps[2] == float("inf")

    def test_add_edges_validation(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edges(np.array([0]), np.array([5]), 1.0)
        with pytest.raises(ValueError):
            net.add_edges(np.array([0]), np.array([1]), -1.0)
        with pytest.raises(ValueError):
            net.add_edges(np.array([0, 1]), np.array([1]), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=16))
    def test_pair_arrays_match_pair_generator(self, ps):
        src = np.flatnonzero(ps.labels == 0)
        tgt = np.flatnonzero(ps.labels == 1)
        reference = [(s, t)
                     for s, ts in blocked_dominance_pairs(ps, src, tgt, 5)
                     for t in ts]
        bulk = [(int(s), int(t))
                for ss, ts in blocked_dominance_pair_arrays(ps, src, tgt, 5)
                for s, t in zip(ss, ts)]
        assert bulk == reference

    @settings(max_examples=25, deadline=None)
    @given(ps=point_sets(max_n=14))
    def test_solve_passive_paths_agree(self, ps):
        dense = solve_passive(_fresh(ps))
        blockwise = solve_passive(_fresh(ps), block_size=4)
        hasse = solve_passive(_fresh(ps), use_hasse_reduction=True)
        assert blockwise.optimal_error == dense.optimal_error
        assert hasse.optimal_error == dense.optimal_error
        assert np.array_equal(blockwise.assignment, dense.assignment)
