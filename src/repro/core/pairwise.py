"""Blockwise pairwise dominance computations for the Theorem 4 pipeline.

The Theorem 4 pipeline needs three ``O(d n^2)``-time pairwise facts:

* which points are *contending* (Section 5.1);
* the dominance edges between contending label-0 and label-1 points;
* whether a final assignment is monotone (Lemma 16's certificate).

The cached ``PointSet.weak_dominance_matrix`` materializes all ``n^2``
booleans at once.  The functions here compute the same facts in row
blocks of configurable size, keeping memory at ``O(n * block_size)``
while preserving the time bound.  ``solve_passive`` uses them at every
size for ``d >= 3`` (and the edge stream for every ``d``); the dense
matrix survives as the test reference.

:func:`pairwise_weak_dominance` is also the package's one row-vs-anchor
dominance kernel: ``UpsetClassifier.classify_matrix`` (queries against
anchors) and ``_minimal_anchors`` (the anchor prune) call it, so no
code path builds an ``(m, k, d)`` boolean broadcast.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .points import PointSet

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "pairwise_weak_dominance",
    "blocked_contending_mask",
    "blocked_dominance_pair_arrays",
    "blocked_is_monotone_assignment",
]

#: Rows per block: 2048 rows x n columns of booleans stays in tens of MB
#: for n up to a few hundred thousand.
DEFAULT_BLOCK_SIZE = 2048


def _blocks(n: int, block_size: int) -> Iterator[Tuple[int, int]]:
    for start in range(0, n, block_size):
        yield start, min(n, start + block_size)


def pairwise_weak_dominance(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean ``(len(rows), len(cols))`` matrix of weak dominance.

    ``out[i, j]`` is true iff ``rows[i]`` weakly dominates ``cols[j]``.
    Accumulates one dimension at a time, so peak scratch memory is one
    ``rows x cols`` boolean matrix — never the ``(rows, cols, d)``
    broadcast intermediate that a single ``np.all(..., axis=2)`` call
    would materialize.
    """
    r = rows.shape[0]
    c = cols.shape[0]
    out = np.ones((r, c), dtype=bool)
    for k in range(rows.shape[1]):
        np.logical_and(out, rows[:, k, None] >= cols[None, :, k], out=out)
    return out


def blocked_contending_mask(points: PointSet,
                            block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Contending mask (Section 5.1) without the full dominance matrix.

    A label-0 point contends iff it weakly dominates some label-1 point;
    a label-1 point contends iff some label-0 point weakly dominates it.
    Computed per block of label-0 rows against all label-1 columns.
    """
    points.require_full_labels()
    n = points.n
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    zero_idx = np.flatnonzero(points.labels == 0)
    one_idx = np.flatnonzero(points.labels == 1)
    if len(zero_idx) == 0 or len(one_idx) == 0:
        return mask
    one_coords = points.coords[one_idx]
    one_hit = np.zeros(len(one_idx), dtype=bool)
    for start, stop in _blocks(len(zero_idx), block_size):
        rows = points.coords[zero_idx[start:stop]]
        # dom[i, j]: zero-row i weakly dominates one-col j.
        dom = pairwise_weak_dominance(rows, one_coords)
        mask[zero_idx[start:stop]] = dom.any(axis=1)
        one_hit |= dom.any(axis=0)
    mask[one_idx] = one_hit
    return mask


def blocked_dominance_pair_arrays(points: PointSet, sources: np.ndarray,
                                  targets: np.ndarray,
                                  block_size: int = DEFAULT_BLOCK_SIZE
                                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(source_ids, target_ids)`` dominance-pair arrays per block.

    Each pair has a source (a point index from ``sources``) weakly
    dominating a target (from ``targets``): the type-3 edges of the
    Theorem 4 flow network.  Each block of sources yields two aligned
    integer arrays listing its dominating pairs in row-major order
    (sources in the given order, targets in the given order within a
    source), ready for :meth:`repro.flow.graph.FlowNetwork.add_edges`.
    """
    sources = np.asarray(sources, dtype=int)
    targets = np.asarray(targets, dtype=int)
    if len(sources) == 0 or len(targets) == 0:
        return
    target_coords = points.coords[targets]
    for start, stop in _blocks(len(sources), block_size):
        rows = points.coords[sources[start:stop]]
        dom = pairwise_weak_dominance(rows, target_coords)
        row_pos, col_pos = np.nonzero(dom)
        if len(row_pos):
            yield sources[start:stop][row_pos], targets[col_pos]


def blocked_is_monotone_assignment(points: PointSet, predictions: np.ndarray,
                                   block_size: int = DEFAULT_BLOCK_SIZE) -> bool:
    """Monotonicity check of an assignment without the full matrix.

    Violated iff some 0-assigned point weakly dominates a 1-assigned point.
    """
    pred = np.asarray(predictions, dtype=np.int8)
    if pred.shape != (points.n,):
        raise ValueError(f"expected {points.n} predictions, got {pred.shape}")
    zero_idx = np.flatnonzero(pred == 0)
    one_idx = np.flatnonzero(pred == 1)
    if len(zero_idx) == 0 or len(one_idx) == 0:
        return True
    one_coords = points.coords[one_idx]
    for start, stop in _blocks(len(zero_idx), block_size):
        rows = points.coords[zero_idx[start:stop]]
        if np.any(pairwise_weak_dominance(rows, one_coords)):
            return False
    return True
