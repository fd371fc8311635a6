"""Tests for the low-dimensional sweepline fast paths (repro.poset.dominance2d)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, is_monotone_assignment, solve_passive
from repro.core.passive import contending_mask
from repro.poset.dominance2d import (
    contending_mask_low_dim,
    count_violations_low_dim,
    is_monotone_assignment_low_dim,
    is_monotone_labeling_low_dim,
)
from repro.poset.fenwick import FenwickTree


class TestFenwickTree:
    def test_prefix_sums(self):
        tree = FenwickTree(8)
        tree.add(0)
        tree.add(3, 2)
        tree.add(7)
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(2) == 1
        assert tree.prefix_sum(3) == 3
        assert tree.prefix_sum(7) == 4
        assert tree.total() == 4

    def test_bounds(self):
        tree = FenwickTree(3)
        with pytest.raises(IndexError):
            tree.add(3)
        assert tree.prefix_sum(10) == 0  # clamped
        assert FenwickTree(0).total() == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_against_numpy_cumsum(self, rng):
        size = 64
        tree = FenwickTree(size)
        reference = np.zeros(size, dtype=int)
        for _ in range(200):
            idx = int(rng.integers(0, size))
            amount = int(rng.integers(1, 5))
            tree.add(idx, amount)
            reference[idx] += amount
            probe = int(rng.integers(0, size))
            assert tree.prefix_sum(probe) == reference[: probe + 1].sum()


def _random_labeled(seed: int, n: int, dim: int, grid: int = 6) -> PointSet:
    gen = np.random.default_rng(seed)
    coords = gen.integers(0, grid, size=(n, dim)).astype(float)
    labels = gen.integers(0, 2, size=n)
    return PointSet(coords, labels)


class TestContendingMaskLowDim:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_matrix_version(self, dim):
        for seed in range(20):
            ps = _random_labeled(seed, 50, dim)
            assert (contending_mask_low_dim(ps) == contending_mask(ps)).all()

    def test_figure1_contending_sets(self):
        from repro.datasets.figures import figure1_point_set

        ps = figure1_point_set()
        assert (contending_mask_low_dim(ps) == contending_mask(ps)).all()

    def test_duplicates_with_opposite_labels(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0)], [0, 1])
        assert contending_mask_low_dim(ps).all()

    def test_rejects_high_dim(self):
        ps = _random_labeled(0, 5, 3)
        with pytest.raises(ValueError):
            contending_mask_low_dim(ps)

    def test_empty(self):
        assert contending_mask_low_dim(PointSet.from_points([])).shape == (0,)

    def test_requires_labels(self, tiny_2d):
        with pytest.raises(ValueError):
            contending_mask_low_dim(tiny_2d.with_hidden_labels())


class TestViolationCounting:
    def test_zero_on_monotone(self, monotone_2d):
        assert count_violations_low_dim(monotone_2d) == 0
        assert is_monotone_labeling_low_dim(monotone_2d)

    def test_counts_pairs(self):
        # label-0 at (2,2) dominates label-1 at (0,0) and (1,1): 2 pairs.
        ps = PointSet([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [1, 1, 0])
        assert count_violations_low_dim(ps) == 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_matrix_count(self, dim):
        for seed in range(20):
            ps = _random_labeled(seed + 50, 40, dim)
            weak = ps.weak_dominance_matrix()
            zeros = ps.labels == 0
            ones = ps.labels == 1
            expected = int(weak[np.ix_(zeros, ones)].sum())
            assert count_violations_low_dim(ps) == expected

    def test_agrees_with_is_monotone_labeling(self):
        for seed in range(20):
            ps = _random_labeled(seed + 100, 30, 2)
            assert is_monotone_labeling_low_dim(ps) == ps.is_monotone_labeling()


class TestPassiveIntegration:
    def test_solve_passive_uses_fast_path_correctly(self):
        """2-D solve (fast mask) equals 3-D-padded solve (matrix mask)."""
        for seed in range(8):
            ps = _random_labeled(seed + 200, 60, 2)
            fast = solve_passive(ps)
            padded = PointSet(
                np.hstack([ps.coords, np.zeros((ps.n, 1))]), ps.labels)
            slow = solve_passive(padded)
            assert fast.optimal_error == pytest.approx(slow.optimal_error)
            assert fast.num_contending == slow.num_contending


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 2), st.integers(0, 10_000))
def test_lowdim_mask_always_matches_matrix(n, dim, seed):
    """Property: sweepline mask == matrix mask on tie-heavy random inputs."""
    ps = _random_labeled(seed, n, dim, grid=4)
    assert (contending_mask_low_dim(ps) == contending_mask(ps)).all()


@st.composite
def _tie_heavy_low_dim(draw) -> PointSet:
    """1-D or 2-D points on a tiny grid (signed zeros and infinities
    included), with equal-x groups and duplicate rows of opposite labels."""
    dim = draw(st.integers(1, 2))
    value = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf])
    rows = draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=24))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows),
                           max_size=len(rows)))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
        rows.append(rows[i])
        labels.append(1 - labels[i])
    return PointSet(np.asarray(rows).reshape(len(rows), dim), labels,
                    validate=False)


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_low_dim(), st.data())
def test_prefix_extremum_sweeps_match_dense(ps, data):
    """Property: mask and monotonicity check equal the dense versions."""
    assert (contending_mask_low_dim(ps) == contending_mask(ps)).all()
    assert is_monotone_labeling_low_dim(ps) == ps.is_monotone_labeling()
    assignment = np.asarray(data.draw(st.lists(
        st.integers(0, 1), min_size=ps.n, max_size=ps.n)), dtype=np.int8)
    assert (is_monotone_assignment_low_dim(ps, assignment)
            == is_monotone_assignment(ps, assignment))
