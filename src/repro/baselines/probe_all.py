"""The naive active baseline: probe every label, then solve exactly.

Theorem 1 shows that any algorithm insisting on an *optimal* classifier
must probe ``Ω(n)`` labels, so this baseline — ``n`` probes followed by the
Theorem 4 passive solver — is asymptotically optimal for the exact problem.
It anchors the probing-cost axis in the baseline-comparison experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.classifier import MonotoneClassifier
from ..core.oracle import LabelOracle
from ..core.passive import solve_passive
from ..core.points import PointSet

__all__ = ["ProbeAllResult", "probe_all_classify"]


@dataclass(frozen=True)
class ProbeAllResult:
    """Classifier plus accounting for the probe-everything baseline."""

    classifier: MonotoneClassifier
    probing_cost: int
    optimal_error: float


def probe_all_classify(points: PointSet, oracle: LabelOracle) -> ProbeAllResult:
    """Probe all ``n`` labels and return an exactly optimal classifier."""
    n = points.n
    labels = np.asarray(oracle.probe_many(range(n)), dtype=np.int8)
    revealed = points.replace(labels=labels)
    result = solve_passive(revealed)
    return ProbeAllResult(
        classifier=result.classifier,
        probing_cost=oracle.cost,
        optimal_error=result.optimal_error,
    )
