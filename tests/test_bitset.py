"""Parity tests for the packed-bitset order engine (repro.poset.bitset).

The bitset engine's contract is *bit-identical results*, not merely equal
sizes: the Lemma 6 chain decomposition and the König antichain consume
the matching verbatim, so every kernel here is cross-checked against the
dense order matrix and loop Hopcroft–Karp — vertex-for-vertex,
chain-for-chain — on hypothesis-generated sets and on deterministic sizes
straddling byte boundaries (``n = 257, 258, 264``), where stray padding
bits would first show up.  The Theorem 4 network builder is checked the
same way against the dense weak-dominance matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, obs
from repro.core.pairwise import blocked_dominance_pair_arrays
from repro.core.passive import (
    brute_force_passive,
    contending_mask,
    contending_pairs,
    solve_passive,
)
from repro.flow import FlowNetwork
from repro.poset import (
    dominance_pair_count,
    heights,
    hopcroft_karp,
    hopcroft_karp_bitset,
    matching_chain_decomposition,
    maximal_points,
    maximum_antichain,
    minimal_points,
    packed_order,
    popcount,
)
from repro.poset.dominance2d import contending_mask_low_dim

from .conftest import (
    order_adjacency,
    random_labeled_points,
    reference_antichain,
    reference_chains,
    reference_heights,
)
from .strategies import point_sets


def _fresh(points: PointSet) -> PointSet:
    """A copy with cold caches, so the dense reference and the packed
    engine never share cached state."""
    return PointSet(points.coords.copy(), points.labels.copy(),
                    points.weights.copy())


class TestPackedOrderStructure:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 257, 258, 264])
    def test_pack_matches_order_matrix(self, n):
        ps = random_labeled_points(np.random.default_rng(n), n, 3)
        packed = packed_order(ps, block_size=64)
        order = _fresh(ps).order_matrix()
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
        assert np.array_equal(above, _fresh(ps).order_matrix().T)

    def test_pair_count_from_either_orientation(self):
        ps = random_labeled_points(np.random.default_rng(5), 300, 3)
        from_above = packed_order(_fresh(ps))
        from_below = packed_order(_fresh(ps))
        assert from_above.num_bytes == 0  # nothing packed until first read
        from_above.above
        from_below.below
        expected = int(_fresh(ps).order_matrix().sum())
        assert from_above.pair_count() == from_below.pair_count() == expected
        # Counting never forces the missing orientation.
        assert from_above._below is None and from_below._above is None

    def test_chain_decomposition_leaves_below_unbuilt(self):
        ps = random_labeled_points(np.random.default_rng(6), 300, 3)
        with obs.metrics_session() as reg:
            matching_chain_decomposition(ps)
        assert ps._packed_order._above is not None
        assert ps._packed_order._below is None
        assert reg.counter_value("poset.bitset_packs") == 1


class TestConsumerParity:
    @settings(max_examples=60, deadline=None)
    @given(ps=point_sets(max_n=24))
    def test_minimal_maximal_count_parity(self, ps):
        order = _fresh(ps).order_matrix()
        assert minimal_points(ps) == np.flatnonzero(~order.any(axis=1)).tolist()
        assert maximal_points(ps) == np.flatnonzero(~order.any(axis=0)).tolist()
        assert dominance_pair_count(ps) == int(order.sum())

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=20))
    def test_packed_adjacency_parity(self, ps):
        """The packed ``above`` rows are the Lemma 6 adjacency lists."""
        above = [np.flatnonzero(np.unpackbits(row, count=ps.n)).tolist()
                 for row in packed_order(ps).above]
        assert above == order_adjacency(_fresh(ps))

    @settings(max_examples=60, deadline=None)
    @given(ps=point_sets(max_n=24))
    def test_contending_mask_parity(self, ps):
        """Both streamed masks solve_passive uses equal the dense one."""
        dense = contending_mask(_fresh(ps))
        for block_size in (1, 5, ps.n):
            assert np.array_equal(
                contending_pairs(ps, block_size=block_size)[0], dense)
        if ps.dim <= 2:
            assert np.array_equal(contending_mask_low_dim(ps), dense)

    @settings(max_examples=40, deadline=None)
    @given(ps=point_sets(max_n=20))
    def test_auto_selected_consumers_match_dense(self, ps):
        """Every packed consumer agrees with the dense reference, also
        when the dense order matrix is already cached on the set."""
        reference_min = np.flatnonzero(
            ~_fresh(ps).order_matrix().any(axis=1)).tolist()
        expected_heights = reference_heights(_fresh(ps))
        for points in (_fresh(ps), ps):
            points.order_matrix()
            assert minimal_points(points) == reference_min
            assert np.array_equal(heights(points), expected_heights)


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
        order = _fresh(ps).order_matrix()
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
        assert (matching_chain_decomposition(_fresh(ps)).chains
                == reference_chains(_fresh(ps)))
        assert maximum_antichain(_fresh(ps)) == reference_antichain(_fresh(ps))

    @pytest.mark.parametrize("n", [257, 258, 264])
    def test_chain_regression_near_byte_boundary(self, n):
        """n = 258-style regression: a stray padding bit would corrupt the
        matching (a phantom 259th point in every frontier)."""
        ps = random_labeled_points(np.random.default_rng(n), n, 3)
        chains = matching_chain_decomposition(ps)
        assert chains.chains == reference_chains(_fresh(ps))
        assert maximum_antichain(ps) == reference_antichain(_fresh(ps))


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
            assert bulk.heads.tolist() == seq.heads.tolist()
            assert bulk.caps.tolist() == seq.caps.tolist()
            assert bulk.tails.tolist() == seq.tails.tolist()
            assert bulk.adjacency == seq.adjacency
            assert ids.tolist() == list(range(0, 2 * m, 2))

    def test_add_edges_scalar_capacity_and_empty(self):
        net = FlowNetwork(3)
        assert net.add_edges(np.empty(0, int), np.empty(0, int), 1.0).size == 0
        net.add_edges(np.array([0, 1]), np.array([1, 2]), 1e300)
        assert net.caps[0] == 1e300 and net.caps[2] == 1e300

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
        """The streamed edge arrays list exactly the dense matrix's
        dominating (source, target) pairs, in row-major order."""
        src = np.flatnonzero(ps.labels == 0)
        tgt = np.flatnonzero(ps.labels == 1)
        weak = _fresh(ps).weak_dominance_matrix()
        reference = [(int(s), int(t)) for s in src for t in tgt if weak[s, t]]
        for block_size in (1, 3, len(src) - 1, len(src), len(src) + 1):
            ss, ts = blocked_dominance_pair_arrays(ps, src, tgt,
                                                   max(1, block_size))
            bulk = [(int(s), int(t)) for s, t in zip(ss, ts)]
            assert bulk == reference

    @settings(max_examples=25, deadline=None)
    @given(ps=point_sets(max_n=14, max_dim=2))
    def test_solve_passive_paths_agree(self, ps):
        """The d <= 2 sweeps and the d >= 3 blockwise path agree exactly:
        padding a set with constant coordinates keeps its order, so the
        lifted 3-D copy must reproduce every output bit for bit."""
        lifted = PointSet(np.hstack([ps.coords, np.zeros((ps.n, 3 - ps.dim))]),
                          ps.labels, ps.weights)
        low = solve_passive(ps)
        high = solve_passive(lifted)
        assert np.array_equal(high.assignment, low.assignment)
        assert high.flow_value == low.flow_value
        assert high.optimal_error == low.optimal_error
        assert high.num_contending == low.num_contending
        assert low.optimal_error == pytest.approx(brute_force_passive(ps))
