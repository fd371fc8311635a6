"""Generalization evaluation of monotone classifiers.

Section 1.1 frames the problem as learning: the classifier trained on a
sample ``S`` "is expected to perform well on a general object pair drawn
from D".  This module provides the standard machinery to measure that:

* :func:`train_test_split` — deterministic, seeded splits of a
  :class:`~repro.core.points.PointSet`;
* :func:`confusion_matrix`, :func:`classification_metrics` — accuracy,
  precision, recall, F1, balanced accuracy over the match class;
* :func:`holdout_evaluation` — train passively on one split, report both
  in-sample and held-out metrics;
* :func:`cross_validate` — k-fold evaluation of the passive solver
  (Problem 2 has no hyper-parameters; the folds measure variance of the
  generalization error, not model selection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ._util import RngLike, as_generator
from .core.classifier import MonotoneClassifier
from .core.passive import solve_passive
from .core.points import PointSet

__all__ = [
    "train_test_split",
    "confusion_matrix",
    "classification_metrics",
    "HoldoutReport",
    "holdout_evaluation",
    "cross_validate",
]


def train_test_split(points: PointSet, test_fraction: float = 0.25,
                     rng: RngLike = None) -> Tuple[PointSet, PointSet]:
    """Split into (train, test) by a uniform permutation.

    ``test_fraction`` of the points (rounded down, but at least one of
    each side when ``n >= 2``) go to the test split.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1); got {test_fraction}")
    n = points.n
    if n < 2:
        raise ValueError("need at least 2 points to split")
    gen = as_generator(rng)
    permutation = gen.permutation(n)
    test_size = min(n - 1, max(1, int(n * test_fraction)))
    test_idx = permutation[:test_size]
    train_idx = permutation[test_size:]
    return points.subset(sorted(train_idx)), points.subset(sorted(test_idx))


def confusion_matrix(points: PointSet,
                     classifier: MonotoneClassifier) -> Dict[str, int]:
    """Counts of true/false positives/negatives on a labeled set."""
    points.require_full_labels()
    predictions = classifier.classify_set(points)
    labels = points.labels
    return {
        "tp": int(np.count_nonzero((predictions == 1) & (labels == 1))),
        "fp": int(np.count_nonzero((predictions == 1) & (labels == 0))),
        "fn": int(np.count_nonzero((predictions == 0) & (labels == 1))),
        "tn": int(np.count_nonzero((predictions == 0) & (labels == 0))),
    }


def classification_metrics(points: PointSet,
                           classifier: MonotoneClassifier) -> Dict[str, float]:
    """Standard metrics of the match (label 1) class.

    Zero-denominator conventions: precision/recall/F1 are 0 when undefined
    (no predicted / no actual positives).
    """
    counts = confusion_matrix(points, classifier)
    tp, fp, fn, tn = counts["tp"], counts["fp"], counts["fn"], counts["tn"]
    total = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    specificity = tn / (tn + fp) if tn + fp else 0.0
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "balanced_accuracy": (recall + specificity) / 2,
        "error_count": fp + fn,
    }


@dataclass(frozen=True)
class HoldoutReport:
    """Train-set and test-set metrics of one passive fit."""

    train_metrics: Dict[str, float]
    test_metrics: Dict[str, float]
    train_size: int
    test_size: int
    train_optimal_error: float

    @property
    def generalization_gap(self) -> float:
        """Test error-rate minus train error-rate (overfitting indicator)."""
        return ((1 - self.test_metrics["accuracy"])
                - (1 - self.train_metrics["accuracy"]))


def holdout_evaluation(points: PointSet, test_fraction: float = 0.25,
                       rng: RngLike = None) -> HoldoutReport:
    """Fit the exact passive solver on a train split, score both splits.

    The monotone extension (:class:`~repro.core.classifier.UpsetClassifier`)
    of the train-optimal assignment is what gets scored on the held-out
    points — exactly the deployment scenario of Section 1.1.
    """
    train, test = train_test_split(points, test_fraction, rng)
    result = solve_passive(train)
    return HoldoutReport(
        train_metrics=classification_metrics(train, result.classifier),
        test_metrics=classification_metrics(test, result.classifier),
        train_size=train.n,
        test_size=test.n,
        train_optimal_error=result.optimal_error,
    )


def cross_validate(points: PointSet, folds: int = 5,
                   rng: RngLike = None) -> List[Dict[str, float]]:
    """k-fold evaluation: one row of held-out metrics per fold."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2; got {folds}")
    n = points.n
    if n < folds:
        raise ValueError(f"need at least {folds} points for {folds} folds")
    gen = as_generator(rng)
    permutation = gen.permutation(n)
    boundaries = np.linspace(0, n, folds + 1).astype(int)
    rows: List[Dict[str, float]] = []
    for k in range(folds):
        test_idx = permutation[boundaries[k]:boundaries[k + 1]]
        train_idx = np.concatenate(
            [permutation[:boundaries[k]], permutation[boundaries[k + 1]:]])
        train = points.subset(sorted(train_idx))
        test = points.subset(sorted(test_idx))
        result = solve_passive(train)
        metrics = classification_metrics(test, result.classifier)
        metrics["fold"] = float(k)
        metrics["train_optimal_error"] = result.optimal_error
        rows.append(metrics)
    return rows
