"""Budgeted active classification: spend at most B probes, do your best.

Practitioners rarely think in terms of ``epsilon``; they have a labeling
*budget*.  This wrapper inverts Theorem 2's cost shape
``(w/eps^2)·log n·log(n/w)`` to pick the tightest ``epsilon`` whose
predicted cost fits the budget (scaled by an empirical calibration
constant), enforces the budget through the oracle, and degrades
gracefully:

* budget ``>= n``: probe everything — exact answer;
* workable budget: run Theorem 2 at the chosen ``epsilon``; if the run
  overshoots the enforced budget (the bound is only a shape), fall back
  to solving passively on whatever was probed;
* tiny budget: probe a uniform sample of the budget size and solve
  passively on it — no guarantee, but never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import RngLike, as_generator
from ..stats.estimation import SamplingPlan, sample_with_replacement
from .active import ActiveResult, active_classify
from .bounds import theorem2_probing_shape
from .classifier import MonotoneClassifier
from .oracle import LabelOracle, ProbeBudgetExceeded
from .passive import solve_passive
from .points import PointSet
from ..poset.chains import minimum_chain_decomposition

__all__ = ["BudgetedResult", "active_classify_budgeted", "choose_epsilon_for_budget"]

#: Calibration constant mapping the Theorem 2 bound *shape* to expected
#: practical-profile probes.  The E4-E6 sweeps measure probes/shape
#: ratios between ~2 (near saturation) and ~7 (small w); 6 errs toward
#: over-budgeting, and the truncation fallback covers the remainder.
_SHAPE_TO_PROBES = 6.0

#: The epsilon grid the budget search scans (finest first).
_EPSILON_GRID = (0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.7, 1.0)


def choose_epsilon_for_budget(n: int, w: int, budget: int,
                              calibration: float = _SHAPE_TO_PROBES
                              ) -> Optional[float]:
    """The smallest grid epsilon whose predicted probe cost fits ``budget``.

    Returns ``None`` when even ``epsilon = 1`` is predicted to overshoot —
    the caller should fall back to uniform sampling.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    for epsilon in _EPSILON_GRID:
        predicted = calibration * theorem2_probing_shape(n, w, epsilon)
        if predicted <= budget:
            return epsilon
    return None


@dataclass(frozen=True)
class BudgetedResult:
    """Outcome of a budgeted run.

    ``mode`` records which path executed: ``"exact"`` (budget covered n),
    ``"theorem2"`` (the guaranteed path, with its effective epsilon),
    ``"theorem2-truncated"`` (the run hit the enforced budget and fell
    back to the probed prefix), or ``"uniform"`` (tiny-budget sampling).
    """

    classifier: MonotoneClassifier
    probing_cost: int
    budget: int
    mode: str
    epsilon: Optional[float] = None


def _solve_on_probed(points: PointSet, oracle: LabelOracle) -> MonotoneClassifier:
    """Best-effort classifier from whatever the oracle has revealed."""
    probed = oracle.revealed_indices
    if not probed:
        from .classifier import ConstantClassifier

        return ConstantClassifier(0)
    labels = np.asarray([oracle.peek(i) for i in probed], dtype=np.int8)
    revealed = PointSet(points.coords[np.asarray(probed)], labels)
    return solve_passive(revealed).classifier


def active_classify_budgeted(points: PointSet, oracle: LabelOracle,
                             budget: int,
                             rng: RngLike = None,
                             plan: Optional[SamplingPlan] = None) -> BudgetedResult:
    """Learn the best monotone classifier obtainable within ``budget`` probes.

    The oracle's own budget (if any) must be at least ``budget``; this
    function installs no permanent state on it and never exceeds
    ``budget`` distinct probes.
    """
    n = points.n
    if n == 0:
        raise ValueError("cannot classify an empty point set")
    if budget <= 0:
        raise ValueError(f"budget must be positive; got {budget}")
    if oracle.budget is not None and oracle.budget < budget:
        raise ValueError("oracle budget is smaller than the requested budget")
    gen = as_generator(rng)
    cost_before = oracle.cost

    # Plenty of budget: the exact answer is the best possible outcome.
    if budget >= n:
        labels = np.asarray(oracle.probe_many(range(n)), dtype=np.int8)
        revealed = points.replace(labels=labels)
        result = solve_passive(revealed)
        return BudgetedResult(result.classifier, oracle.cost - cost_before,
                              budget, mode="exact")

    w = minimum_chain_decomposition(points).num_chains
    epsilon = choose_epsilon_for_budget(n, w, budget)

    if epsilon is not None:
        # Guard the budget with a capped view of the oracle.
        remaining = budget - (oracle.cost - cost_before)
        capped = _CappedOracle(oracle, remaining)
        try:
            result: ActiveResult = active_classify(
                points, capped, epsilon=epsilon, plan=plan, rng=gen)
            return BudgetedResult(result.classifier,
                                  oracle.cost - cost_before, budget,
                                  mode="theorem2", epsilon=epsilon)
        except ProbeBudgetExceeded:
            classifier = _solve_on_probed(points, oracle)
            return BudgetedResult(classifier, oracle.cost - cost_before,
                                  budget, mode="theorem2-truncated",
                                  epsilon=epsilon)

    # Tiny budget: uniform sample, passive solve, no guarantee.
    picks = np.unique(sample_with_replacement(range(n), budget * 2, gen))[:budget]
    for index in picks:
        oracle.probe(int(index))
    classifier = _solve_on_probed(points, oracle)
    return BudgetedResult(classifier, oracle.cost - cost_before, budget,
                          mode="uniform")


class _CappedOracle:
    """A view of an oracle that enforces an additional local budget.

    Delegates probing (and its accounting) to the wrapped oracle but
    raises :class:`ProbeBudgetExceeded` once this view has spent its own
    allowance of distinct new probes.
    """

    def __init__(self, inner: LabelOracle, allowance: int) -> None:
        self._inner = inner
        self._allowance = allowance
        self._spent_baseline = inner.cost

    @property
    def cost(self) -> int:
        return self._inner.cost

    @property
    def budget(self):
        return self._allowance

    def probe(self, index: int) -> int:
        already_known = self._inner.peek(index) is not None
        if not already_known and \
                self._inner.cost - self._spent_baseline >= self._allowance:
            raise ProbeBudgetExceeded(
                f"budgeted run exhausted its allowance of {self._allowance}")
        return self._inner.probe(index)

    def probe_many(self, indices):
        return [self.probe(i) for i in indices]

    def peek(self, index: int):
        return self._inner.peek(index)

    @property
    def revealed_indices(self):
        return self._inner.revealed_indices
