"""Blockwise pairwise dominance computations for the Theorem 4 pipeline.

The Theorem 4 pipeline needs one ``O(d n^2)``-time pairwise fact: the
dominance pairs between label-0 and label-1 points.  They are the type-3
edges of the flow network, and their endpoints are the *contending*
points (Section 5.1), so one stream yields both.  Lemma 16's certificate
needs no pairwise scan: ``solve_passive`` replays the classifier it
builds, ``O(d n k)`` for ``k`` anchors.

The cached ``PointSet.weak_dominance_matrix`` materializes all ``n^2``
booleans at once.  The edge stream computes the same pairs in row
blocks, keeping memory at ``O(n * block_size)`` while preserving the
time bound; the dense matrix survives as the test reference.

The edge stream is output-sensitive: it sweeps the sources in blocks (by
first coordinate for ``d <= 2``, in Morton order for ``d >= 3``) and
compares each block only against the targets inside its bounding box,
so on a low-width staircase it runs a small fraction of the ``O(d n^2)``
compares.  It still returns every pair, in the positional row-major
order the flow network's arc layout depends on.

:func:`pairwise_weak_dominance` is also the package's one row-vs-anchor
dominance kernel: ``UpsetClassifier.classify_matrix`` (queries against
anchors), ``_minimal_anchors`` (the anchor prune) and ``solve_passive``'s
Lemma 16 replay call it, so no code path builds an ``(m, k, d)`` boolean
broadcast.  Any layout of its arguments gives the same answer; it reads
anchor column ``k`` as ``cols.T[k]``, contiguous when column-major, as
``UpsetClassifier`` stores them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs import recorder
from .points import PointSet

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "pairwise_weak_dominance",
    "blocked_dominance_pair_arrays",
]

#: Rows per block: 2048 rows x n columns of booleans stays in tens of MB
#: for n up to a few hundred thousand.
DEFAULT_BLOCK_SIZE = 2048

#: Source rows per block of the dominance-edge stream.  Small blocks keep
#: each block's bounding box tight, so it excludes more targets: 256
#: measured fastest on a 2-D staircase of ~9k x 9k points (1024 and 2048
#: were slower).
EDGE_BLOCK = 256


def pairwise_weak_dominance(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean ``(len(rows), len(cols))`` matrix of weak dominance.

    ``out[i, j]`` is true iff ``rows[i]`` weakly dominates ``cols[j]``
    (all true when ``d = 0``).  Coordinate 0's compare seeds ``out`` and
    the rest are ANDed in place, so scratch is ``O(rows x cols)`` — never
    the ``(rows, cols, d)`` broadcast of one ``np.all(..., axis=2)``.
    Layout contract: C-, Fortran-ordered and strided arguments all give
    the same result; ``cols.T[k]`` is contiguous when ``cols`` is
    Fortran-ordered.
    """
    if rows.shape[1] == 0:
        return np.ones((rows.shape[0], cols.shape[0]), dtype=bool)
    cols_t = cols.T
    out = rows[:, 0, None] >= cols_t[0]
    for k in range(1, rows.shape[1]):
        out &= rows[:, k, None] >= cols_t[k]
    return out


def _box_candidates(target_coords: np.ndarray,
                    box_max: np.ndarray) -> np.ndarray:
    """Positions of the targets lying weakly below ``box_max``.

    A row weakly dominates a target only if the target is ``<=`` it in
    every coordinate, so a target outside the box spanned by a block's
    per-coordinate maximum is dominated by no row of that block.  A NaN
    bound or target coordinate compares false, which is exact too: NaN
    takes part in no dominance.
    """
    return np.flatnonzero(np.all(target_coords <= box_max, axis=1))


def _sweep_order(source_coords: np.ndarray) -> np.ndarray:
    """Source positions in the order the edge stream blocks them.

    Ascending first coordinate for ``d <= 2``.  For ``d >= 3`` a Morton
    (Z-order) key interleaving the high ``min(63 // d, rank bits)`` bits
    of each per-coordinate rank (NaN ranks last), so each block's box is
    tight in every coordinate and the key fits in 63 bits at any ``d``.
    """
    m, dim = source_coords.shape
    if dim <= 2:
        return np.argsort(source_coords[:, 0], kind="stable")
    rank_bits = max(1, (m - 1).bit_length())
    bits = min(63 // dim, rank_bits)
    key = np.zeros(m, dtype=np.int64)
    rank = np.empty(m, dtype=np.int64)
    for k in range(dim):
        rank[np.argsort(source_coords[:, k], kind="stable")] = np.arange(m)
        rank >>= rank_bits - bits
        for bit in range(bits):
            key |= (rank >> bit & 1) << (bit * dim + k)
    return np.argsort(key, kind="stable")


def blocked_dominance_pair_arrays(points: PointSet, sources: np.ndarray,
                                  targets: np.ndarray,
                                  block_size: int = EDGE_BLOCK
                                  ) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(source_ids, target_ids)`` dominance pairs as two aligned arrays.

    Each pair has a source (a point index from ``sources``) weakly
    dominating a target (from ``targets``): the type-3 edges of the
    Theorem 4 flow network, ready for one
    :meth:`repro.flow.graph.FlowNetwork.add_edges` call.  Pairs come in
    row-major order by *position*: sources in the given order, and
    targets in the given order within a source, whatever the index values.

    Output-sensitive: sources are swept in :func:`_sweep_order` in blocks
    of ``block_size``, and each block is compared only against the
    targets inside its bounding box (:func:`_box_candidates`).  The box
    maximum is an ``np.fmax`` reduction, so a NaN row cannot empty the box
    for the rest of its block.  Each pair is kept as one int64 key
    ``(source_pos << shift) | target_pos``, ``shift`` bits holding any
    target position; one sort of the keys restores the positional order,
    and ``>>`` / ``&`` decode it.  When the recorder is enabled the
    number of row x candidate compares run is counted as
    ``passive.edge_candidates``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    num_targets = len(targets)
    if len(sources) == 0 or num_targets == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    source_coords = points.coords[sources]
    target_coords = points.coords[targets]
    sweep = _sweep_order(source_coords)
    shift = (num_targets - 1).bit_length()
    keys: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    compares = 0
    for start in range(0, len(sweep), block_size):
        # Ascending positions make each block's keys one sorted run.
        rows_pos = np.sort(sweep[start:start + block_size])
        rows = source_coords[rows_pos]
        candidates = _box_candidates(target_coords,
                                     np.fmax.reduce(rows, axis=0))
        width = len(candidates)
        compares += len(rows_pos) * width
        hits = np.flatnonzero(
            pairwise_weak_dominance(rows, target_coords[candidates]))
        row_hit = hits // width
        keys.append((rows_pos[row_hit] << shift)
                    | candidates[hits - row_hit * width])
    rec = recorder()
    if rec.enabled:
        rec.incr("passive.edge_candidates", compares)
    # Timsort merges the per-block runs.
    key = np.sort(np.concatenate(keys), kind="stable")
    return sources[key >> shift], targets[key & ((1 << shift) - 1)]
