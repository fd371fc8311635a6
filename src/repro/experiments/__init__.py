"""Experiment harness: one module per claim of the paper (see DESIGN.md).

Every experiment module exposes ``run(**params) -> list[dict]`` returning
table rows, plus a module-level ``TITLE``.  :mod:`.runner` registers them
all and prints the tables recorded in EXPERIMENTS.md; the pytest-benchmark
suite under ``benchmarks/`` wraps the same entry points.
"""

from . import (
    ablations,
    active_scaling,
    baseline_comparison,
    confidence,
    entity_matching_exp,
    figure1,
    lowerbound_exp,
    passive_scaling,
    poset_scaling,
    recursion_geometry,
    robustness,
    width_profile,
)
from .runner import EXPERIMENTS, run_experiment

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "figure1",
    "passive_scaling",
    "active_scaling",
    "baseline_comparison",
    "lowerbound_exp",
    "poset_scaling",
    "entity_matching_exp",
    "confidence",
    "robustness",
    "recursion_geometry",
    "width_profile",
    "ablations",
]
