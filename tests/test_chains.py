"""Tests for chain decompositions (repro.poset.chains)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet
from repro.datasets.synthetic import width_controlled
from repro.poset.chains import (
    ChainDecomposition,
    greedy_chain_decomposition,
    is_valid_chain_decomposition,
    matching_chain_decomposition,
    minimum_chain_decomposition,
    patience_chain_decomposition,
)
from repro.poset.width import brute_force_width


def _random_points(seed: int, n: int, dim: int, grid: int = 0) -> PointSet:
    gen = np.random.default_rng(seed)
    if grid:
        coords = gen.integers(0, grid, size=(n, dim)).astype(float)
    else:
        coords = gen.random((n, dim))
    return PointSet(coords, [0] * n)


class TestMatchingDecomposition:
    def test_single_point(self):
        ps = PointSet([(0.0, 0.0)], [0])
        d = matching_chain_decomposition(ps)
        assert d.num_chains == 1
        assert d.chains == [[0]]

    def test_empty(self):
        ps = PointSet.from_points([])
        assert matching_chain_decomposition(ps).num_chains == 0

    def test_total_order_is_one_chain(self):
        ps = PointSet([(float(i),) for i in range(10)], [0] * 10)
        d = matching_chain_decomposition(ps)
        assert d.num_chains == 1
        assert is_valid_chain_decomposition(ps, d)

    def test_antichain_gives_n_chains(self):
        ps = PointSet([(float(i), float(-i)) for i in range(6)], [0] * 6)
        d = matching_chain_decomposition(ps)
        assert d.num_chains == 6

    def test_duplicates_form_chains(self):
        ps = PointSet([(1.0, 1.0)] * 4, [0] * 4)
        d = matching_chain_decomposition(ps)
        assert d.num_chains == 1  # identical points are mutually comparable

    def test_chains_are_ascending(self, tiny_2d):
        d = matching_chain_decomposition(tiny_2d)
        assert is_valid_chain_decomposition(tiny_2d, d)


class TestPatienceDecomposition:
    def test_rejects_high_dimension(self):
        ps = PointSet([(0.0, 0.0, 0.0)], [0])
        with pytest.raises(ValueError):
            patience_chain_decomposition(ps)

    def test_1d_single_chain_sorted(self):
        ps = PointSet([(3.0,), (1.0,), (2.0,)], [0] * 3)
        d = patience_chain_decomposition(ps)
        assert d.num_chains == 1
        assert [ps.coords[i, 0] for i in d.chains[0]] == [1.0, 2.0, 3.0]

    def test_matches_matching_on_small_grids(self):
        for seed in range(25):
            ps = _random_points(seed, n=30, dim=2, grid=5)
            a = patience_chain_decomposition(ps)
            b = matching_chain_decomposition(ps)
            assert is_valid_chain_decomposition(ps, a)
            assert a.num_chains == b.num_chains

    def test_width_controlled_exact(self):
        ps = width_controlled(500, 7, noise=0.1, rng=0)
        d = patience_chain_decomposition(ps)
        assert d.num_chains == 7
        assert is_valid_chain_decomposition(ps, d)


class TestAutoDispatch:
    def test_auto_uses_patience_for_2d(self):
        ps = _random_points(0, 20, 2)
        assert minimum_chain_decomposition(ps).method == "patience"

    def test_auto_uses_matching_for_3d(self):
        ps = _random_points(0, 20, 3)
        assert minimum_chain_decomposition(ps).method == "matching"

    def test_explicit_method(self):
        """The Lemma 6 reduction stays callable directly in 2-D, with the
        same chain count as the dispatched patience decomposition."""
        ps = _random_points(0, 20, 2)
        explicit = matching_chain_decomposition(ps)
        assert explicit.method == "matching"
        assert explicit.num_chains == minimum_chain_decomposition(ps).num_chains

    def test_unknown_method(self):
        """No method knob: the dimension alone picks the algorithm."""
        ps = _random_points(0, 5, 2)
        with pytest.raises(TypeError):
            minimum_chain_decomposition(ps, method="matching")


class TestGreedyDecomposition:
    def test_valid_but_possibly_larger(self):
        for seed in range(10):
            ps = _random_points(seed, 40, 3)
            greedy = greedy_chain_decomposition(ps)
            exact = matching_chain_decomposition(ps)
            assert is_valid_chain_decomposition(ps, greedy)
            assert greedy.num_chains >= exact.num_chains

    def test_1d_single_chain(self):
        ps = PointSet([(float(i),) for i in range(20)], [0] * 20)
        assert greedy_chain_decomposition(ps).num_chains == 1


class TestChainDecompositionObject:
    def test_chain_of(self, tiny_2d):
        d = matching_chain_decomposition(tiny_2d)
        owner = d.chain_of()
        assert len(owner) == 4
        assert (owner >= 0).all()

    def test_sizes_sorted_descending(self):
        d = ChainDecomposition([[0], [1, 2, 3], [4, 5]], 6, "manual")
        assert d.sizes() == [3, 2, 1]

    def test_validation_catches_missing_point(self, tiny_2d):
        d = ChainDecomposition([[0, 3]], 4, "manual")
        assert not is_valid_chain_decomposition(tiny_2d, d)

    def test_validation_catches_duplicates(self, tiny_2d):
        d = ChainDecomposition([[0, 3], [3, 1, 2]], 4, "manual")
        assert not is_valid_chain_decomposition(tiny_2d, d)

    def test_validation_catches_bad_order(self, tiny_2d):
        # (2,2) listed before (0,0): descending, not a valid chain order.
        d = ChainDecomposition([[3, 0], [1], [2]], 4, "manual")
        assert not is_valid_chain_decomposition(tiny_2d, d)

    def test_validation_catches_incomparable_pair(self, tiny_2d):
        # (1,1) and (2,0) are incomparable.
        d = ChainDecomposition([[1, 2], [0], [3]], 4, "manual")
        assert not is_valid_chain_decomposition(tiny_2d, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(1, 3), st.integers(0, 10_000))
def test_decomposition_size_equals_brute_force_width(n, dim, seed):
    """Property (Dilworth/Lemma 6): #chains equals the maximum anti-chain."""
    ps = _random_points(seed, n, dim, grid=4)
    d = minimum_chain_decomposition(ps)
    assert is_valid_chain_decomposition(ps, d)
    assert d.num_chains == brute_force_width(ps)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10_000))
def test_patience_equals_matching_on_random_2d(n, seed):
    """Property: both exact methods agree on the chain count."""
    ps = _random_points(seed, n, 2)
    assert (patience_chain_decomposition(ps).num_chains
            == matching_chain_decomposition(ps).num_chains)
