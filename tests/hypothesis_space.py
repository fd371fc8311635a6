"""Exhaustive test oracle: the hypothesis space of monotone classifiers.

Section 3 of the paper works with the *effective* 1-D classifiers
``H_mono(P) = { h^tau : tau in P or tau = -inf }`` (eq. (7)): every other
threshold classifies ``P`` identically to one of these.  This module
materializes that notion and its multi-dimensional analogue:

* :func:`effective_thresholds` — the eq. (7) candidate set;
* :func:`enumerate_monotone_assignments` — every distinct monotone 0/1
  assignment on a finite point set, generated as the upsets of the
  dominance poset (exponential in general — intended for exact
  verification on small inputs, mirroring the naive algorithm sketched in
  Section 1.2);
* :func:`count_monotone_assignments` — the number of such assignments
  (the poset's Dedekind problem), via memoized recursion.

Tests use these as independent oracles for the passive solvers; no
pipeline stage runs them.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro import PointSet

__all__ = [
    "effective_thresholds",
    "enumerate_monotone_assignments",
    "count_monotone_assignments",
]

_ENUMERATION_LIMIT = 20


def effective_thresholds(values: Sequence[float]) -> List[float]:
    """The eq. (7) candidate set: ``{-inf}`` plus the distinct values.

    Any threshold classifier agrees on ``values`` with ``h^tau`` for one of
    these ``tau`` (take the largest candidate not exceeding it).
    """
    return [float("-inf")] + sorted(set(float(v) for v in values))


def _check_size(points: PointSet) -> None:
    if points.n > _ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration limited to n <= {_ENUMERATION_LIMIT}; got {points.n}"
        )


def enumerate_monotone_assignments(points: PointSet) -> Iterator[np.ndarray]:
    """Yield every monotone 0/1 assignment on ``points`` exactly once.

    A monotone assignment is the indicator of an *upset*: a subset closed
    upward under weak dominance.  We enumerate by processing points in a
    topological order (most-dominated first) and branching on each point's
    value, pruning branches that violate a constraint against an already-
    assigned comparable point.  Duplicated coordinate vectors are mutually
    comparable both ways, forcing equal values — handled by the same
    pruning.
    """
    _check_size(points)
    n = points.n
    if n == 0:
        yield np.zeros(0, dtype=np.int8)
        return
    weak = points.weak_dominance_matrix()
    sums = points.coords.sum(axis=1)
    order = list(np.lexsort((np.arange(n), sums)))  # dominated first

    assignment = np.full(n, -1, dtype=np.int8)

    def feasible(idx: int, value: int) -> bool:
        for other in order:
            if assignment[other] == -1 or other == idx:
                continue
            # weak[a, b]: a dominates b  =>  assignment[a] >= assignment[b].
            if weak[idx, other] and value < assignment[other]:
                return False
            if weak[other, idx] and assignment[other] < value:
                return False
        return True

    def backtrack(pos: int) -> Iterator[np.ndarray]:
        if pos == n:
            yield assignment.copy()
            return
        idx = order[pos]
        for value in (0, 1):
            if feasible(idx, value):
                assignment[idx] = value
                yield from backtrack(pos + 1)
                assignment[idx] = -1

    yield from backtrack(0)


def count_monotone_assignments(points: PointSet) -> int:
    """Number of distinct monotone assignments (upsets of the poset).

    Counted by the same pruned backtracking as the enumerator; for an
    anti-chain of size ``n`` this is ``2^n``, for a chain ``n + 1`` —
    both useful sanity anchors in tests.
    """
    _check_size(points)
    return sum(1 for _ in enumerate_monotone_assignments(points))
