"""Tests for monotone classifiers (repro.core.classifier)."""

from __future__ import annotations

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConstantClassifier,
    PointSet,
    ThresholdClassifier,
    UpsetClassifier,
    is_monotone_assignment,
    monotone_extension,
)
from repro.core import classifier as classifier_module
from repro.datasets.synthetic import planted_monotone
from repro.serve import fit_artifact, load_artifact, save_artifact


class TestConstantClassifier:
    def test_values(self):
        coords = np.array([[0.0], [5.0]])
        assert list(ConstantClassifier(0).classify_matrix(coords)) == [0, 0]
        assert list(ConstantClassifier(1).classify_matrix(coords)) == [1, 1]

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            ConstantClassifier(2)

    def test_equality_and_hash(self):
        assert ConstantClassifier(1) == ConstantClassifier(1)
        assert ConstantClassifier(1) != ConstantClassifier(0)
        assert hash(ConstantClassifier(0)) == hash(ConstantClassifier(0))


class TestThresholdClassifier:
    def test_strict_inequality_semantics(self):
        """Paper eq. (6): h(p) = 1 iff p > tau (strictly)."""
        h = ThresholdClassifier(1.0)
        assert h.classify((1.0,)) == 0
        assert h.classify((1.0000001,)) == 1
        assert h.classify((0.5,)) == 0

    def test_infinite_thresholds(self):
        coords = np.array([[0.0], [1.0]])
        all_one = ThresholdClassifier(float("-inf"))
        all_zero = ThresholdClassifier(float("inf"))
        assert list(all_one.classify_matrix(coords)) == [1, 1]
        assert list(all_zero.classify_matrix(coords)) == [0, 0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ThresholdClassifier(float("nan"))

    def test_dim_selection(self):
        h = ThresholdClassifier(0.5, dim=1)
        assert h.classify((0.0, 1.0)) == 1
        assert h.classify((1.0, 0.0)) == 0

    def test_dim_out_of_range(self):
        h = ThresholdClassifier(0.5, dim=3)
        with pytest.raises(ValueError):
            h.classify((0.0, 1.0))

    def test_callable_protocol(self):
        assert ThresholdClassifier(0.0)((1.0,)) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_monotone_property(self, tau, x, y):
        """Property: x >= y implies h(x) >= h(y) for every threshold."""
        h = ThresholdClassifier(tau)
        lo, hi = min(x, y), max(x, y)
        assert h.classify((hi,)) >= h.classify((lo,))


class TestUpsetClassifier:
    def test_empty_upset_is_all_zero(self):
        h = UpsetClassifier([], dim=2)
        assert h.classify((100.0, 100.0)) == 0
        assert h.num_anchors == 0

    def test_requires_dim_without_anchors(self):
        with pytest.raises(ValueError):
            UpsetClassifier([])

    def test_single_anchor(self):
        h = UpsetClassifier([(1.0, 1.0)])
        assert h.classify((1.0, 1.0)) == 1  # weak dominance includes equality
        assert h.classify((2.0, 1.0)) == 1
        assert h.classify((0.9, 5.0)) == 0

    def test_redundant_anchor_pruned(self):
        h = UpsetClassifier([(1.0, 1.0), (2.0, 2.0)])
        assert h.num_anchors == 1  # (2,2) dominates (1,1) => redundant

    def test_duplicate_anchors_collapsed(self):
        h = UpsetClassifier([(1.0, 1.0), (1.0, 1.0)])
        assert h.num_anchors == 1

    def test_antichain_anchors_kept(self):
        h = UpsetClassifier([(2.0, 0.0), (0.0, 2.0)])
        assert h.num_anchors == 2
        assert h.classify((2.0, 0.0)) == 1
        assert h.classify((0.0, 2.0)) == 1
        assert h.classify((1.0, 1.0)) == 0

    def test_dimension_mismatch_raises(self):
        h = UpsetClassifier([(1.0, 1.0)])
        with pytest.raises(ValueError):
            h.classify((1.0, 1.0, 1.0))

    def test_zero_anchors_dimension_mismatch_raises(self):
        h = UpsetClassifier([], dim=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            h.classify_matrix(np.zeros((4, 3)))

    def test_ndarray_and_iterable_anchors_agree(self):
        rows = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        from_array = UpsetClassifier(rows)
        from_tuples = UpsetClassifier(tuple(r) for r in rows.tolist())
        assert from_array.anchors.tobytes() == from_tuples.anchors.tobytes()
        assert not np.shares_memory(from_array.anchors, rows)

    def test_from_positive_points(self, tiny_2d):
        h = UpsetClassifier.from_positive_points(tiny_2d, [0, 0, 0, 1])
        assert h.classify((2.0, 2.0)) == 1
        assert h.classify((0.0, 0.0)) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8),
           st.tuples(st.floats(0, 1), st.floats(0, 1)),
           st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)))
    def test_monotone_property(self, anchors, base, delta):
        """Property: adding a non-negative delta never decreases h."""
        h = UpsetClassifier(anchors)
        above = (base[0] + delta[0], base[1] + delta[1])
        assert h.classify(above) >= h.classify(base)


class TestMonotoneAssignment:
    def test_valid_assignment(self, tiny_2d):
        assert is_monotone_assignment(tiny_2d, [0, 0, 0, 1])
        assert is_monotone_assignment(tiny_2d, [0, 0, 0, 0])
        assert is_monotone_assignment(tiny_2d, [1, 1, 1, 1])

    def test_invalid_assignment(self, tiny_2d):
        # (1,1) assigned 0 while it dominates (0,0) assigned 1.
        assert not is_monotone_assignment(tiny_2d, [1, 0, 0, 1])

    def test_duplicates_must_agree(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0)], [0, 1])
        assert not is_monotone_assignment(ps, [0, 1])
        assert not is_monotone_assignment(ps, [1, 0])
        assert is_monotone_assignment(ps, [1, 1])

    def test_wrong_length_raises(self, tiny_2d):
        with pytest.raises(ValueError):
            is_monotone_assignment(tiny_2d, [0, 1])

    def test_extension_agrees_on_input(self, tiny_2d):
        assignment = [0, 0, 0, 1]
        h = monotone_extension(tiny_2d, assignment)
        assert list(h.classify_set(tiny_2d)) == assignment

    def test_extension_rejects_non_monotone(self, tiny_2d):
        with pytest.raises(ValueError):
            monotone_extension(tiny_2d, [1, 0, 0, 1])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extension_always_agrees_with_monotone_assignment(data):
    """Property: the upset extension reproduces any monotone assignment."""
    rows = data.draw(st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=1, max_size=12))
    ps = PointSet(rows, [0] * len(rows))
    # Build a monotone assignment from a random upset threshold on the sum.
    cut = data.draw(st.floats(0, 2))
    assignment = [1 if sum(row) >= cut else 0 for row in rows]
    # A sum-threshold is NOT always monotone w.r.t. dominance ties... it is:
    # dominance implies sum >=, so this assignment is monotone.
    assert is_monotone_assignment(ps, assignment)
    h = monotone_extension(ps, assignment)
    assert list(h.classify_set(ps)) == assignment


def _reference_minimal_anchors(matrix: np.ndarray) -> np.ndarray:
    """The dense m x m x d broadcast prune, kept as the reference."""
    if matrix.shape[0] <= 1:
        return matrix.copy()
    unique = np.unique(matrix, axis=0)
    weak = np.all(unique[:, None, :] >= unique[None, :, :], axis=2)
    np.fill_diagonal(weak, False)
    return unique[~np.any(weak, axis=1)].copy()


def _reference_classify(coords: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The m x k x d broadcast classify, kept as the reference."""
    dominated = np.all(coords[:, None, :] >= anchors[None, :, :], axis=2)
    return np.any(dominated, axis=1).astype(np.int8)


def _assert_same_anchors(matrix: np.ndarray) -> None:
    got = UpsetClassifier(matrix, dim=matrix.shape[1]).anchors
    want = _reference_minimal_anchors(matrix)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # same rows, order and zero signs


#: Tie-heavy coordinates, signed zeros included.
_GRID = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_anchors_match_broadcast_reference(data):
    """Property: the blocked pass keeps exactly the broadcast's anchors."""
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[_GRID] * dim), max_size=40))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    matrix = np.asarray(rows, dtype=float).reshape(len(rows), dim)
    block = data.draw(st.integers(1, 6))
    with mock.patch.object(classifier_module, "ANCHOR_BLOCK", block):
        _assert_same_anchors(matrix)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_matches_broadcast_reference(data):
    """Property: the served kernel answers exactly like the broadcast."""
    dim = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[_GRID] * dim), max_size=12))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    raw = np.asarray(rows, dtype=float).reshape(len(rows), dim)
    h = UpsetClassifier(raw, dim=dim)
    wild = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0,
                            float("inf"), float("-inf"), float("nan")])
    queries = data.draw(st.lists(st.tuples(*[wild] * dim), max_size=30))
    queries += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    coords = np.asarray(queries, dtype=float).reshape(len(queries), dim)
    got = h.classify_matrix(coords)
    assert got.dtype == np.int8
    assert np.array_equal(got, _reference_classify(coords, h.anchors))
    assert np.array_equal(got, _reference_classify(coords, raw))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("dim", [2, 3])
def test_minimal_anchors_at_block_boundary(offset, dim):
    """m = block - 1, block, block + 1 distinct rows, half of them minimal."""
    m = classifier_module.ANCHOR_BLOCK + offset
    k = (m + 1) // 2
    pad = [np.zeros(k)] * (dim - 2)
    # An antichain A_i = (2i, -2i), and B_i = A_i + (1, 0) right after A_i
    # in lexicographic order, so some B_i opens a block whose only
    # witness of redundancy is the last row of the previous block.
    antichain = np.column_stack([2.0 * np.arange(k), -2.0 * np.arange(k)] + pad)
    above = antichain[: m - k] + np.eye(dim)[0]
    gen = np.random.default_rng(m * 10 + dim)
    matrix = np.vstack([antichain, above, above[::3]])  # with duplicates
    matrix = matrix[gen.permutation(len(matrix))]
    assert len(np.unique(matrix, axis=0)) == m
    _assert_same_anchors(matrix)
    assert UpsetClassifier(matrix).num_anchors == k


#: Digest of the passive artifact fitted on :func:`_fixed_fit_points`,
#: recorded with row-major anchors: the anchor layout must not move it.
FIXED_FIT_DIGEST = (
    "bddfc25c3c79957fb3eeed21c9b90037707420136a7f962ecc1b4e3236006c6f")


def _fixed_fit_points() -> PointSet:
    """Unit weights, so the certificate's flow value is an exact integer."""
    return planted_monotone(160, 3, noise=0.1, rng=np.random.default_rng(7))


class TestAnchorLayout:
    """``anchors`` is stored column-major; nothing outside can tell."""

    def test_anchors_are_read_only_and_column_major(self):
        h = UpsetClassifier(np.random.default_rng(0).random((60, 3)))
        assert h.num_anchors > 1
        assert h.anchors.flags.f_contiguous
        assert not h.anchors.flags.writeable

    def test_values_and_bytes_match_the_row_major_reference(self):
        raw = np.random.default_rng(1).integers(0, 6, (80, 4)).astype(float)
        h = UpsetClassifier(raw)
        want = _reference_minimal_anchors(raw)
        assert want.flags.c_contiguous and not h.anchors.flags.c_contiguous
        assert h.anchors.tolist() == want.tolist()
        assert h.anchors.tobytes() == want.tobytes()

    def test_artifact_is_identical_to_a_row_major_twin(self, tmp_path):
        artifact = fit_artifact(_fixed_fit_points(), "passive")
        assert artifact.classifier.anchors.flags.f_contiguous
        twin = copy.copy(artifact.classifier)
        twin.anchors = np.ascontiguousarray(artifact.classifier.anchors)
        row_major = dataclasses.replace(artifact, classifier=twin)
        digest = save_artifact(artifact, tmp_path / "f.json")
        assert save_artifact(row_major, tmp_path / "c.json") == digest
        assert digest == FIXED_FIT_DIGEST
        assert (tmp_path / "f.json").read_bytes() == (tmp_path / "c.json").read_bytes()
        loaded = load_artifact(tmp_path / "f.json").classifier
        assert loaded.anchors.flags.f_contiguous
        assert loaded.anchors.tobytes() == twin.anchors.tobytes()
