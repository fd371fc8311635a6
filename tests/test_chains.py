"""Tests for chain decompositions (repro.poset.chains)."""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, obs
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


def _reference_patience(points: PointSet) -> List[List[int]]:
    """The per-point best-fit loop the peel + first-fit hybrid replaced.

    Keeps the chain-top ``y`` values as a sorted list; each point in
    ``(x asc, y asc)`` order pops the chain with the largest top not
    exceeding its ``y``, appends itself and re-inserts the chain, or
    opens a new chain at the front.  ``O(n w)`` from the list memmoves,
    but obviously a best fit: the parity tests hold the hybrid to it.
    """
    xs = points.coords[:, 0]
    ys = points.coords[:, 1]
    top_ys: List[float] = []
    chain_at: List[List[int]] = []
    for idx in np.lexsort((ys, xs)):
        y = float(ys[idx])
        pos = bisect_right(top_ys, y)
        if pos == 0:
            top_ys.insert(0, y)
            chain_at.insert(0, [int(idx)])
        else:
            chain = chain_at.pop(pos - 1)
            top_ys.pop(pos - 1)
            chain.append(int(idx))
            insert_at = bisect_right(top_ys, y)
            top_ys.insert(insert_at, y)
            chain_at.insert(insert_at, chain)
    return chain_at


def _stacked_chains(sizes) -> PointSet:
    """Chains side by side, each to the right of and below the last (the
    ``width_controlled`` layout), so the width is ``len(sizes)``."""
    offset = max(sizes) + 2
    coords = [(t + j * offset, t - j * offset)
              for j, size in enumerate(sizes) for t in range(1, size + 1)]
    return PointSet(np.asarray(coords, dtype=float), [0] * len(coords))


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

    @pytest.mark.parametrize("rows", [
        [(0.0, 1.0), (1.0, np.nan), (2.0, 0.0), (3.0, 2.0), (4.0, 3.0)],
        [(0.0,), (np.nan,), (1.0,)],
    ])
    def test_rejects_nan_naming_the_point(self, rows):
        # Every comparison with NaN is false: both cases used to return a
        # single "chain" through the NaN point, which is not a chain.
        ps = PointSet(rows, [0] * len(rows), validate=False)
        with pytest.raises(ValueError, match="point 1 has a NaN coordinate"):
            patience_chain_decomposition(ps)

    @pytest.mark.parametrize("sizes, passes, peeled", [
        ([400], 1, 400),                 # one chain: peeled whole
        ([1] * 300, 0, 0),               # antichain: a pass takes 1/300
        ([300] * 4 + [1] * 100, 4, 1200),  # chains peel, singletons loop
    ])
    def test_hybrid_split_is_counted(self, sizes, passes, peeled):
        # A pass that takes less than 1/64 of the points left stops the
        # peeling; first fit places the rest.
        ps = _stacked_chains(sizes)
        with obs.metrics_session() as reg:
            d = patience_chain_decomposition(ps)
        assert reg.counter_value("poset.patience.peel_passes") == passes
        assert reg.counter_value("poset.patience.peeled_points") == peeled
        assert d.num_chains == len(sizes)
        assert d.chains == _reference_patience(ps)


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


_GRID_OR_INF = st.one_of(st.integers(-3, 3).map(float),
                         st.sampled_from([np.inf, -np.inf]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_GRID_OR_INF, _GRID_OR_INF), min_size=1,
                max_size=300))
def test_patience_parity_ties_duplicates_infinities(rows):
    """Chain for chain equal to the best-fit loop on a 7x7 grid plus ±inf:
    ties in x and in y, duplicate points, infinite coordinates."""
    ps = PointSet(rows, [0] * len(rows), validate=False)
    assert patience_chain_decomposition(ps).chains == _reference_patience(ps)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000),
       st.sampled_from(["chain", "antichain", "random", "stacked"]),
       st.integers(0, 10_000))
def test_patience_parity_across_widths(n, shape, seed):
    """w = 1 (peel only), w = n (first fit only), and two shapes of width
    about 2 sqrt(n): uniform random points (first fit only: each peel
    takes only the ~ln n running maxima) and stacked chains of skewed
    sizes (the large chains peel, first fit places the rest)."""
    gen = np.random.default_rng(seed)
    if shape == "random":
        ps = PointSet(gen.random((n, 2)), [0] * n)
    elif shape == "stacked":
        k = min(n, int(np.ceil(2 * np.sqrt(n))))
        sizes = gen.multinomial(n - k, gen.dirichlet(np.full(k, 0.3))) + 1
        ps = _stacked_chains(sizes.tolist())
    else:
        t = gen.permutation(n).astype(float)
        ps = PointSet(np.c_[t, t if shape == "chain" else -t], [0] * n)
    d = patience_chain_decomposition(ps)
    assert d.chains == _reference_patience(ps)
    if shape == "chain":
        assert d.num_chains == 1
    elif shape == "antichain":
        assert d.num_chains == n
