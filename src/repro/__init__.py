"""repro — a reproduction of "New Algorithms for Monotone Classification".

Tao & Wang, PODS 2021 (doi:10.1145/3452021.3458324).

The package provides:

* :mod:`repro.core` — point sets, monotone classifiers, the active
  ``(1+eps)``-approximation algorithm (Theorems 2-3), the exact passive
  min-cut solver (Theorem 4), and the Section 6 lower-bound harness
  (Theorem 1);
* :mod:`repro.poset` — the packed dominance order, Hopcroft–Karp matching,
  Dilworth chain decompositions, and dominance width (Lemma 6);
* :mod:`repro.flow` — Dinic max-flow with min-cut extraction
  (Lemmas 7-8);
* :mod:`repro.stats` — Lemma 5 sampling machinery;
* :mod:`repro.baselines` — probe-everything, Tao'18-style, A²-style,
  isotonic (PAVA), and trivial baselines;
* :mod:`repro.datasets` — synthetic workloads, the paper's Figure 1
  example, and an entity-matching simulator;
* :mod:`repro.experiments` — the per-claim experiment harness backing
  EXPERIMENTS.md;
* :mod:`repro.obs` — zero-dependency instrumentation (counters, spans,
  probe/flow telemetry) threaded through every layer above;
* :mod:`repro.resilience` — fault-injected oracles, retry/backoff
  policies, and crash-safe checkpoint/resume for the active pipeline.

Quickstart::

    import numpy as np
    from repro import PointSet, LabelOracle, active_classify, solve_passive

    rng = np.random.default_rng(0)
    coords = rng.random((500, 2))
    labels = (coords.sum(axis=1) > 1.0).astype(int)
    truth = PointSet(coords, labels)

    # Passive: exact optimum via min-cut (Theorem 4).
    result = solve_passive(truth)
    print(result.optimal_error)

    # Active: probe few labels for a (1+eps)-approximation (Theorem 2).
    oracle = LabelOracle(truth)
    active = active_classify(truth.with_hidden_labels(), oracle, epsilon=0.5)
    print(active.probing_cost, oracle.cost)
"""

from . import obs
from .core import (
    HIDDEN,
    ActiveResult,
    ConstantClassifier,
    DeterministicPairProber,
    FamilyEvaluation,
    adversarial_family,
    adversarial_input,
    evaluate_on_family,
    optimal_error_of_family_input,
    theoretical_nonoptcnt_lower_bound,
    theoretical_totalcost,
    LabelOracle,
    LabeledPoint,
    MonotoneClassifier,
    PassiveResult,
    PointSet,
    ProbeBudgetExceeded,
    ThresholdClassifier,
    UpsetClassifier,
    active_classify,
    active_classify_1d,
    brute_force_passive,
    error_count,
    is_monotone_assignment,
    monotone_extension,
    solve_passive,
    solve_passive_1d,
    weighted_error,
)
from .core.boundary import (
    boundary_staircase_2d,
    decision_boundary_1d,
    explain_acceptance,
    explain_rejection,
)
from .core.budgeted import (
    BudgetedResult,
    active_classify_budgeted,
    choose_epsilon_for_budget,
)
from .core.callback_oracle import CallbackOracle
from .core.repair import RepairReport, repair_labels
from .core.validation import (
    AuditReport,
    audit_active_result,
    audit_passive_result,
    conflict_matching_lower_bound,
)
from .poset import (
    dominance_width,
    greedy_chain_decomposition,
    maximum_antichain,
    minimum_chain_decomposition,
)
from .resilience import (
    FaultSpec,
    FaultyOracle,
    ResilienceConfig,
    ResilientOracle,
    RetryPolicy,
    RunReport,
)
from .stats import SamplingPlan

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "obs",
    "PointSet",
    "LabeledPoint",
    "HIDDEN",
    "MonotoneClassifier",
    "ThresholdClassifier",
    "UpsetClassifier",
    "ConstantClassifier",
    "is_monotone_assignment",
    "monotone_extension",
    "error_count",
    "weighted_error",
    "LabelOracle",
    "ProbeBudgetExceeded",
    "PassiveResult",
    "solve_passive",
    "solve_passive_1d",
    "brute_force_passive",
    "ActiveResult",
    "active_classify",
    "active_classify_1d",
    "dominance_width",
    "maximum_antichain",
    "minimum_chain_decomposition",
    "greedy_chain_decomposition",
    "SamplingPlan",
    "DeterministicPairProber",
    "FamilyEvaluation",
    "adversarial_input",
    "adversarial_family",
    "evaluate_on_family",
    "optimal_error_of_family_input",
    "theoretical_totalcost",
    "theoretical_nonoptcnt_lower_bound",
    "AuditReport",
    "audit_passive_result",
    "audit_active_result",
    "conflict_matching_lower_bound",
    "BudgetedResult",
    "active_classify_budgeted",
    "choose_epsilon_for_budget",
    "explain_acceptance",
    "explain_rejection",
    "decision_boundary_1d",
    "boundary_staircase_2d",
    "CallbackOracle",
    "RepairReport",
    "repair_labels",
    "FaultSpec",
    "FaultyOracle",
    "ResilienceConfig",
    "ResilientOracle",
    "RetryPolicy",
    "RunReport",
]
