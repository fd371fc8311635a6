"""Ablations A1-A3: the design choices DESIGN.md calls out.

* A1 — the contending-point reduction (Lemma 15): solve the passive
  problem with and without restricting to ``P^con``; same optimum, very
  different flow-network sizes and runtimes;
* A2 — exact (matching) vs greedy chain decomposition inside the active
  algorithm: extra chains inflate the probing cost roughly proportionally;
* A3 — the sampling-plan constant: probes vs achieved error ratio as the
  per-level sample size scales.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..obs import Timer
from ..core.active import active_classify
from ..core.errors import error_count
from ..core.oracle import LabelOracle
from ..core.passive import solve_passive
from ..datasets.synthetic import planted_monotone, width_controlled
from ..stats.estimation import SamplingPlan

TITLE = "A1-A3 — ablations: contending, decomposition, constants"

__all__ = ["run", "run_contending", "run_decomposition", "run_constants",
           "TITLE"]


def run_contending(ns: Sequence[int] = (800, 1_600),
                   dim: int = 3, noises: Sequence[float] = (0.02, 0.15),
                   seed: int = 0) -> List[dict]:
    """A1: passive solve with vs without the Lemma 15 reduction.

    The reduction shrinks the flow instance to the contending points, so
    its payoff grows as noise falls (fewer conflicts): at 2% noise the
    instance is a small fraction of ``n``, at 15% most points contend and
    the mask computation is overhead.
    """
    rows: List[dict] = []
    for noise in noises:
        for n in ns:
            points = planted_monotone(n, dim, noise=noise, rng=seed,
                                      weights="random")
            with Timer() as with_timer:
                with_reduction = solve_passive(points,
                                               use_contending_reduction=True)
            with Timer() as without_timer:
                without_reduction = solve_passive(points,
                                                  use_contending_reduction=False)
            rows.append({
                "ablation": "A1:contending",
                "n": n,
                "noise": noise,
                "contending": with_reduction.num_contending,
                "opt_with": with_reduction.optimal_error,
                "opt_without": without_reduction.optimal_error,
                "same_optimum": bool(np.isclose(with_reduction.optimal_error,
                                                without_reduction.optimal_error)),
                "time_with_s": with_timer.elapsed,
                "time_without_s": without_timer.elapsed,
            })
    return rows


def run_decomposition(n: int = 8_000, width: int = 8, epsilon: float = 1.0,
                      noise: float = 0.05, seed: int = 0,
                      trials: int = 3) -> List[dict]:
    """A2: matching vs greedy chain decomposition in the active algorithm."""
    points = width_controlled(n, width, noise=noise, rng=seed)
    optimum = solve_passive(points).optimal_error
    rows: List[dict] = []
    for method in ("exact", "greedy"):
        probes, chains, ratios = [], [], []
        for trial in range(trials):
            oracle = LabelOracle(points)
            result = active_classify(points.with_hidden_labels(), oracle,
                                     epsilon=epsilon, decomposition=method,
                                     rng=seed + trial)
            probes.append(result.probing_cost)
            chains.append(result.num_chains)
            err = error_count(points, result.classifier)
            ratios.append(err / optimum if optimum > 0 else 1.0)
        rows.append({
            "ablation": "A2:decomposition",
            "method": method,
            "true_w": width,
            "chains_used": float(np.mean(chains)),
            "mean_probes": float(np.mean(probes)),
            "mean_error_ratio": float(np.mean(ratios)),
        })
    return rows


def run_constants(constants: Sequence[float] = (1.5, 3.0, 6.0, 12.0, 24.0),
                  n: int = 50_000, epsilon: float = 0.5, noise: float = 0.1,
                  seed: int = 0) -> List[dict]:
    """A3: per-level sample-size constant vs probes and error (1-D)."""
    from ..core.active_1d import active_classify_1d
    from ..core.passive_1d import solve_passive_1d
    from ..datasets.synthetic import planted_threshold_1d

    points = planted_threshold_1d(n, noise=noise, rng=seed)
    optimum = solve_passive_1d(points).optimal_error
    rows: List[dict] = []
    for constant in constants:
        plan = SamplingPlan(practical_constant=constant)
        oracle = LabelOracle(points)
        result = active_classify_1d(points.with_hidden_labels(), oracle,
                                    epsilon=epsilon, plan=plan, rng=seed)
        err = error_count(points, result.classifier)
        rows.append({
            "ablation": "A3:constant",
            "constant": constant,
            "probes": result.probing_cost,
            "probe_fraction": result.probing_cost / n,
            "error_ratio": err / optimum if optimum > 0 else 1.0,
            "guarantee": 1.0 + epsilon,
        })
    return rows


def run(seed: int = 0) -> List[dict]:
    """All three ablations, concatenated."""
    rows = run_contending(seed=seed)
    rows.extend(run_decomposition(seed=seed))
    rows.extend(run_constants(seed=seed))
    return rows
