#!/usr/bin/env python
"""Quickstart: passive and active monotone classification in a few lines.

Generates a noisy monotone workload, finds the exact optimum with the
Theorem 4 min-cut solver, then solves the same task actively — probing only
a fraction of the labels — with the Theorem 2 algorithm.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    LabelOracle,
    PointSet,
    active_classify,
    error_count,
    solve_passive,
)
from repro.poset import dominance_width


def main() -> None:
    rng = np.random.default_rng(7)

    # --- A labeled point set: 2-D scores, monotone ground truth + noise.
    n = 2_000
    coords = rng.random((n, 2))
    clean = (coords[:, 0] + coords[:, 1] > 1.0).astype(int)
    noisy = np.where(rng.random(n) < 0.08, 1 - clean, clean)
    points = PointSet(coords, noisy)
    print(f"input: {points!r}")
    print(f"dominance width w = {dominance_width(points)}")

    # --- Passive (Problem 2): all labels known, exact optimum via min-cut.
    passive = solve_passive(points)
    print(f"\npassive optimum k* = {passive.optimal_error:.0f} "
          f"({passive.num_contending} contending points)")

    # --- Active (Problem 1): labels hidden, pay per probe.
    oracle = LabelOracle(points)
    active = active_classify(points.with_hidden_labels(), oracle,
                             epsilon=0.5, rng=1)
    achieved = error_count(points, active.classifier)
    print(f"\nactive run (eps=0.5):")
    print(f"  probes           = {active.probing_cost} / {n} "
          f"({active.probing_cost / n:.1%})")
    print(f"  achieved error   = {achieved}")
    print(f"  guarantee        = {(1 + 0.5) * passive.optimal_error:.0f} "
          f"(1+eps) * k*")
    assert achieved <= 1.5 * passive.optimal_error

    # --- The classifier works on unseen points, too.
    fresh = rng.random((5, 2))
    verdicts = active.classifier.classify_matrix(fresh)
    print("\npredictions on new points:")
    for row, verdict in zip(fresh, verdicts):
        print(f"  ({row[0]:.2f}, {row[1]:.2f}) -> {verdict}")


if __name__ == "__main__":
    main()
