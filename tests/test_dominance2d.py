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
    is_monotone_assignment_low_dim,
)


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
    assert (is_monotone_assignment_low_dim(ps, ps.labels)
            == ps.is_monotone_labeling())
    assignment = np.asarray(data.draw(st.lists(
        st.integers(0, 1), min_size=ps.n, max_size=ps.n)), dtype=np.int8)
    assert (is_monotone_assignment_low_dim(ps, assignment)
            == is_monotone_assignment(ps, assignment))
