"""Tests for blockwise pairwise computations (repro.core.pairwise)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, is_monotone_assignment, solve_passive
from repro.core.pairwise import (
    blocked_dominance_pair_arrays,
    blocked_is_monotone_assignment,
    pairwise_weak_dominance,
)
from repro.core.passive import contending_mask, contending_pairs
from repro.datasets.synthetic import planted_monotone


def _random_labeled(seed: int, n: int, dim: int, grid: int = 5) -> PointSet:
    gen = np.random.default_rng(seed)
    coords = gen.integers(0, grid, size=(n, dim)).astype(float)
    labels = gen.integers(0, 2, size=n)
    return PointSet(coords, labels)


def pair_endpoint_mask(ps: PointSet, *block_size: int) -> np.ndarray:
    """The contending mask solve_passive reads off the one-pass pairs."""
    return contending_pairs(ps, *block_size)[0]


class TestBlockedContendingMask:
    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_matches_matrix_version(self, block_size):
        for seed in range(10):
            ps = _random_labeled(seed, 40, 2)
            assert (pair_endpoint_mask(ps, block_size)
                    == contending_mask(ps)).all()

    def test_empty_and_single_class(self):
        empty = PointSet.from_points([])
        assert pair_endpoint_mask(empty).shape == (0,)
        ones = PointSet([(0.0,), (1.0,)], [1, 1])
        assert not pair_endpoint_mask(ones).any()

    def test_requires_labels(self, tiny_2d):
        with pytest.raises(ValueError):
            pair_endpoint_mask(tiny_2d.with_hidden_labels())


def _pair_list(ps, sources, targets, *block_size):
    srcs, tgts = blocked_dominance_pair_arrays(ps, sources, targets,
                                               *block_size)
    return [(int(p), int(q)) for p, q in zip(srcs, tgts)]


class TestBlockedDominancePairs:
    def test_stream_matches_matrix(self):
        ps = _random_labeled(3, 30, 2)
        weak = ps.weak_dominance_matrix()
        zeros = np.flatnonzero(ps.labels == 0)
        ones = np.flatnonzero(ps.labels == 1)
        expected = [(int(p), int(q)) for p in zeros for q in ones if weak[p, q]]
        m = len(zeros)
        for block_size in (1, 3, m - 1, m, m + 1):
            got = _pair_list(ps, zeros, ones, block_size)
            assert got == expected

    def test_empty_sides(self, tiny_2d):
        assert _pair_list(tiny_2d, np.array([]), np.array([0])) == []
        assert _pair_list(tiny_2d, np.array([0]), np.array([])) == []


_GRID = st.integers(0, 3).map(float)
_SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan])


@st.composite
def _edge_stream_case(draw):
    """Points with duplicate, opposing-duplicate, ±inf and NaN rows, plus
    shuffled label-0 sources and label-1 targets."""
    n = draw(st.integers(2, 24))
    dim = draw(st.integers(1, 4))
    value = st.one_of(_GRID, _GRID, _GRID, _SPECIAL)
    coords = np.asarray(draw(st.lists(
        st.lists(value, min_size=dim, max_size=dim),
        min_size=n, max_size=n)), dtype=float)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=n // 2)):
        coords[dst] = coords[src]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    ps = PointSet(coords, labels, validate=False)
    sources = draw(st.permutations(np.flatnonzero(ps.labels == 0).tolist()))
    targets = draw(st.permutations(np.flatnonzero(ps.labels == 1).tolist()))
    return ps, np.asarray(sources, dtype=int), np.asarray(targets, dtype=int)


@settings(max_examples=150, deadline=None)
@given(_edge_stream_case())
def test_edge_stream_equals_dense_reference(case):
    """Property: the box-pruned stream lists exactly the dense matrix's
    dominating pairs, in row-major order by position in the given arrays
    (not by index value), at every block size."""
    ps, sources, targets = case
    weak = ps.weak_dominance_matrix()
    expected = [(int(p), int(q)) for p in sources for q in targets
                if weak[p, q]]
    m = len(sources)
    assert _pair_list(ps, sources, targets) == expected
    for block_size in (1, 3, m - 1, m, m + 1):
        assert _pair_list(ps, sources, targets,
                          max(1, block_size)) == expected


def _layouts(matrix: np.ndarray):
    """``matrix`` as C-ordered, F-ordered, row-strided and column-strided
    arrays, all with equal values."""
    rows, dim = matrix.shape
    wide = np.zeros((rows, 2 * dim))
    wide[:, ::2] = matrix
    return {
        "C": np.ascontiguousarray(matrix),
        "F": np.asfortranarray(matrix),
        "row-strided": np.repeat(matrix, 2, axis=0)[::2],
        "column-strided": wide[:, ::2],
    }


_WILD = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dominance_kernel_is_layout_independent(data):
    """Property: every layout of ``rows`` and ``cols`` gets the ``(m, k, d)``
    broadcast's answer, for d = 0..4, signed zeros, ±inf and NaN."""
    dim = data.draw(st.integers(0, 4))
    row = st.lists(_WILD, min_size=dim, max_size=dim)
    rows, cols = (np.asarray(drawn, dtype=float).reshape(len(drawn), dim)
                  for drawn in (data.draw(st.lists(row, max_size=6)),
                                data.draw(st.lists(row, max_size=6))))
    want = np.all(rows[:, None, :] >= cols[None, :, :], axis=2)
    for row_layout in _layouts(rows).values():
        for col_layout in _layouts(cols).values():
            got = pairwise_weak_dominance(row_layout, col_layout)
            assert got.dtype == bool
            assert got.shape == (len(rows), len(cols))
            assert np.array_equal(got, want)


class TestBlockedMonotoneCheck:
    @pytest.mark.parametrize("block_size", [1, 2, 128])
    def test_matches_matrix_version(self, block_size):
        gen = np.random.default_rng(0)
        for seed in range(10):
            ps = _random_labeled(seed + 100, 25, 2)
            pred = gen.integers(0, 2, size=25).astype(np.int8)
            assert blocked_is_monotone_assignment(ps, pred, block_size) == \
                is_monotone_assignment(ps, pred)

    def test_all_same_prediction_is_monotone(self, tiny_2d):
        assert blocked_is_monotone_assignment(tiny_2d, np.zeros(4, dtype=np.int8))
        assert blocked_is_monotone_assignment(tiny_2d, np.ones(4, dtype=np.int8))

    def test_shape_validation(self, tiny_2d):
        with pytest.raises(ValueError):
            blocked_is_monotone_assignment(tiny_2d, np.zeros(3, dtype=np.int8))


class TestSolvePassiveBlockwise:
    """solve_passive streams every pairwise fact through these helpers."""

    def test_forced_blockwise_matches_default(self):
        """The blockwise d = 3 solve matches the dense references."""
        ps = planted_monotone(400, 3, noise=0.15, rng=7, weights="random")
        result = solve_passive(ps)
        assert result.num_contending == int(contending_mask(ps).sum())
        assert is_monotone_assignment(ps, result.assignment)
        flipped = result.assignment != ps.labels
        assert result.optimal_error == pytest.approx(ps.weights[flipped].sum())

    def test_blockwise_with_push_relabel(self):
        for dim in (2, 3):
            ps = planted_monotone(200, dim, noise=0.2, rng=8)
            a = solve_passive(ps, backend="push_relabel")
            b = solve_passive(ps)
            assert a.optimal_error == pytest.approx(b.optimal_error)
            assert np.array_equal(a.assignment, b.assignment)

    def test_blockwise_without_reduction(self):
        for dim in (2, 3):
            ps = planted_monotone(150, dim, noise=0.2, rng=9)
            a = solve_passive(ps, use_contending_reduction=False)
            b = solve_passive(ps)
            assert a.num_contending == ps.n
            assert a.optimal_error == pytest.approx(b.optimal_error)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(1, 3), st.integers(1, 7),
       st.integers(0, 10_000))
def test_blocked_mask_equals_matrix_mask(n, dim, block_size, seed):
    """Property: blockwise and matrix contending masks always agree."""
    ps = _random_labeled(seed, n, dim)
    assert (pair_endpoint_mask(ps, block_size)
            == contending_mask(ps)).all()
