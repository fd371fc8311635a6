"""An ``A^2``-style disagreement-based active learner for monotone classifiers.

Section 1.2 of the paper identifies the agnostic active learner ``A^2``
[2, 4, 9, 15] as the best prior approach for a ``(1+eps) k*`` guarantee with
high probability, at probing cost ``Ω(w^2 / eps^2)`` in the best case.  No
reference implementation exists; this module provides a faithful-in-spirit
specialization to the monotone hypothesis class:

* the hypothesis space is the product of per-chain position thresholds;
* rounds alternate between (a) sampling uniformly from the current
  *disagreement region* — points whose prediction is not yet forced because
  some surviving hypothesis labels them 0 and another labels them 1 — and
  (b) eliminating per-chain thresholds whose empirical-error lower
  confidence bound exceeds the best threshold's upper bound;
* confidence intervals are Hoeffding bounds over the probed points of each
  chain, which keeps the elimination sound for the per-chain surrogate
  objective.

Documented simplifications (DESIGN.md substitution rules): per-chain
version spaces are intervals of thresholds rather than the full product
space, and the final combination solves the passive problem on all probed
points — both choices only *help* the baseline, making the comparison
against Theorem 2 conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import RngLike, as_generator
from ..core.classifier import MonotoneClassifier
from ..core.oracle import LabelOracle
from ..core.passive import solve_passive
from ..core.points import PointSet
from ..poset.chains import minimum_chain_decomposition

__all__ = ["A2Result", "a2_classify"]


@dataclass(frozen=True)
class A2Result:
    """Classifier plus accounting for the A²-style baseline."""

    classifier: MonotoneClassifier
    probing_cost: int
    rounds: int
    num_chains: int
    final_disagreement: int  # points still undecided when learning stopped


class _ChainVersionSpace:
    """Surviving threshold interval ``[lo, hi]`` for one chain.

    Threshold ``t`` means positions ``>= t`` are classified 1; valid values
    are ``0 .. m`` where ``m = len(chain)`` (``m`` = all-0).
    """

    def __init__(self, chain: List[int]) -> None:
        self.chain = chain
        self.lo = 0
        self.hi = len(chain)
        # Per-position probe tallies: position -> (zeros, ones).
        self.tallies: Dict[int, Tuple[int, int]] = {}

    @property
    def m(self) -> int:
        return len(self.chain)

    def record(self, position: int, label: int) -> None:
        zeros, ones = self.tallies.get(position, (0, 0))
        if label == 1:
            self.tallies[position] = (zeros, ones + 1)
        else:
            self.tallies[position] = (zeros + 1, ones)

    def disagreement_positions(self) -> List[int]:
        """Positions whose prediction differs across surviving thresholds."""
        return list(range(self.lo, self.hi))

    def empirical_errors(self) -> np.ndarray:
        """Empirical error of every surviving threshold on probed positions."""
        errors = np.zeros(self.hi - self.lo + 1)
        for position, (zeros, ones) in self.tallies.items():
            # Threshold t classifies position p as 1 iff p >= t.
            for k, t in enumerate(range(self.lo, self.hi + 1)):
                predicted_one = position >= t
                errors[k] += zeros if predicted_one else ones
        return errors

    def total_probes(self) -> int:
        return sum(z + o for z, o in self.tallies.values())

    def eliminate(self, slack: float) -> None:
        """Drop thresholds whose error exceeds the best by more than ``slack``.

        The surviving set is kept as an interval (the smallest interval
        containing all non-eliminated thresholds), preserving the version
        space structure.
        """
        errors = self.empirical_errors()
        best = errors.min()
        keep = np.flatnonzero(errors <= best + slack)
        if len(keep) == 0:
            return
        self.lo, self.hi = self.lo + int(keep[0]), self.lo + int(keep[-1])


def a2_classify(points: PointSet, oracle: LabelOracle,
                epsilon: float = 0.5, delta: Optional[float] = None,
                samples_per_round: int = 32, max_rounds: int = 64,
                rng: RngLike = None) -> A2Result:
    """Run the A²-style learner on a hidden-label point set.

    Stops when every chain's version space is a single threshold, when the
    disagreement region is empty, or after ``max_rounds`` rounds; then
    solves the passive problem on all probed points for the final answer.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1]; got {epsilon}")
    n = points.n
    if delta is None:
        delta = 1.0 / max(4, n * n)
    gen = as_generator(rng)
    decomposition = minimum_chain_decomposition(points)
    cost_before = oracle.cost

    spaces = [_ChainVersionSpace(chain) for chain in decomposition.chains]
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        # Disagreement region across all chains.
        region: List[Tuple[int, int]] = []  # (chain id, position)
        for cid, space in enumerate(spaces):
            region.extend((cid, pos) for pos in space.disagreement_positions())
        if not region:
            break
        picks = gen.integers(0, len(region), size=min(samples_per_round, len(region)))
        for pick in picks:
            cid, pos = region[pick]
            label = oracle.probe(spaces[cid].chain[pos])
            spaces[cid].record(pos, label)
        # Hoeffding slack per chain, scaled by its probe count.
        for space in spaces:
            t = space.total_probes()
            if t == 0:
                continue
            slack = math.sqrt(0.5 * t * math.log(2.0 * max(2, space.m) / delta))
            slack = min(slack, epsilon * max(1.0, t) / 2.0 + slack / 2.0)
            space.eliminate(slack)
        if all(space.lo == space.hi for space in spaces):
            break

    probed = oracle.revealed_indices
    if probed:
        labels = np.asarray([oracle.peek(i) for i in probed], dtype=np.int8)
        probed_points = PointSet(points.coords[np.asarray(probed)], labels)
        classifier = solve_passive(probed_points).classifier
    else:  # pragma: no cover - max_rounds=0 style degenerate configuration
        from ..core.classifier import ConstantClassifier

        classifier = ConstantClassifier(0)

    remaining = sum(space.hi - space.lo for space in spaces)
    return A2Result(
        classifier=classifier,
        probing_cost=oracle.cost - cost_before,
        rounds=rounds,
        num_chains=decomposition.num_chains,
        final_disagreement=remaining,
    )
