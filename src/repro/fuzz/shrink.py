"""Delta-debugging shrinker: minimize a disagreeing instance.

A 500-point instance that breaks a certificate is evidence; a 4-point one
is a bug report.  :func:`shrink_instance` is classic ddmin over the point
set: repeatedly try dropping chunks of points (halves, then quarters, …,
then single points) while the caller's predicate — "the differential
engine still finds a disagreement" — keeps holding.  The result is
1-minimal: removing any single remaining point loses the disagreement.

Shrinking is fully deterministic (no randomness, fixed scan order), so a
shrunk reproducer serialized into the corpus replays identically.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..core.points import PointSet
from ..obs import recorder

__all__ = ["shrink_instance"]

Predicate = Callable[[PointSet], bool]


def shrink_instance(points: PointSet, predicate: Predicate,
                    max_evaluations: int = 2000) -> Tuple[PointSet, int]:
    """Return a 1-minimal sub-instance still satisfying ``predicate``.

    Parameters
    ----------
    points:
        The original failing instance; ``predicate(points)`` must be true.
    predicate:
        Re-runs the check (typically the differential engine under the
        same mutant/configuration) on a candidate sub-instance.
    max_evaluations:
        Hard cap on predicate evaluations; shrinking stops early — still
        sound, possibly not 1-minimal — when exhausted.

    Returns
    -------
    (shrunk, evaluations):
        The minimized instance and the number of predicate calls spent.
    """
    if not predicate(points):
        raise ValueError("predicate does not hold on the original instance")
    rec = recorder()
    indices = np.arange(points.n)
    evaluations = 0

    def holds(candidate_indices: np.ndarray) -> bool:
        nonlocal evaluations
        evaluations += 1
        if rec.enabled:
            rec.incr("fuzz.shrink_evals")
        return predicate(points.subset(candidate_indices))

    chunks = 2
    while len(indices) >= 2 and evaluations < max_evaluations:
        size = len(indices)
        chunk_bounds = np.array_split(np.arange(size), min(chunks, size))
        progressed = False
        # Try dropping each chunk (complement test — ddmin's reduce step).
        for bounds in chunk_bounds:
            if evaluations >= max_evaluations:
                break
            keep = np.delete(indices, bounds)
            if len(keep) == 0:
                continue
            if holds(keep):
                indices = keep
                chunks = max(2, chunks - 1)
                progressed = True
                break
        if progressed:
            continue
        if chunks >= size:
            break  # single-point granularity exhausted: 1-minimal
        chunks = min(size, chunks * 2)

    if rec.enabled:
        rec.gauge("fuzz.shrunk_size", len(indices))
    return points.subset(indices), evaluations
