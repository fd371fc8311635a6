"""Monotone label repair: Problem 2 as a data-cleaning primitive.

A fully-labeled set whose labels violate monotonicity is, from a data
quality standpoint, *dirty*: some verdicts are inconsistent with the
similarity evidence.  The minimum-weight repair — flip the cheapest set
of labels so the result is monotone — is exactly the optimal assignment
of the Theorem 4 solver.  This module exposes it as a cleaning API with
repair statistics, so data engineers can use the solver without thinking
in classifier terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .passive import solve_passive
from .points import PointSet

__all__ = ["RepairReport", "repair_labels"]


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a monotone label repair.

    Attributes
    ----------
    repaired:
        The cleaned point set (same coordinates and weights, monotone
        labels).
    flipped_indices:
        Indices whose label changed, ascending.
    flips_0_to_1 / flips_1_to_0:
        Directional flip counts.
    repair_weight:
        Total weight of flipped points — the minimum possible (Theorem 4).
    """

    repaired: PointSet
    flipped_indices: List[int]
    flips_0_to_1: int
    flips_1_to_0: int
    repair_weight: float

    @property
    def num_flips(self) -> int:
        """Total number of labels changed."""
        return len(self.flipped_indices)


def repair_labels(points: PointSet) -> RepairReport:
    """Minimum-weight repair of a labeling into a monotone one.

    Guarantees (inherited from Theorem 4 and asserted by the solver):
    the output labeling is monotone, and no monotone labeling differs
    from the input by a smaller total weight.
    """
    points.require_full_labels()
    result = solve_passive(points)
    changed = np.flatnonzero(result.assignment != points.labels)
    flips_0_to_1 = int(np.count_nonzero(
        (points.labels[changed] == 0) if len(changed) else np.array([], bool)))
    flips_1_to_0 = len(changed) - flips_0_to_1
    repaired = points.replace(labels=result.assignment)
    return RepairReport(
        repaired=repaired,
        flipped_indices=[int(i) for i in changed],
        flips_0_to_1=flips_0_to_1,
        flips_1_to_0=flips_1_to_0,
        repair_weight=float(result.optimal_error),
    )
