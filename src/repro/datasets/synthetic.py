"""Synthetic workload generators.

Three families drive the experiments:

* :func:`planted_threshold_1d` — 1-D values with a planted threshold and
  label noise (the Lemma 9 setting);
* :func:`planted_monotone` — ``d``-dimensional points labeled by a random
  monotone ground-truth function, then flipped with probability ``noise``;
  the flip count upper-bounds ``k*``, so error ratios are measurable;
* :func:`width_controlled` — point sets whose dominance width is *exactly*
  a requested ``w``, which the Theorem 2 probing-cost sweeps need.  The
  construction places ``w`` parallel diagonal chains in 2-D with offsets
  large enough that points on different chains are never comparable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._util import RngLike, as_generator
from ..core.classifier import UpsetClassifier
from ..core.pairwise import pairwise_weak_dominance
from ..core.points import PointSet

__all__ = [
    "planted_threshold_1d",
    "planted_monotone",
    "width_controlled",
    "adversarial_points",
    "staircase",
    "correlated_monotone",
]


def planted_threshold_1d(n: int, threshold: float = 0.5, noise: float = 0.0,
                         rng: RngLike = None,
                         weights: Optional[str] = None) -> PointSet:
    """1-D uniform values in [0, 1) labeled by ``x > threshold`` plus noise.

    ``noise`` is the independent label-flip probability; the expected
    optimal error is at most ``noise * n``.  ``weights='random'`` draws
    Exp(1)-distributed weights for weighted-problem workloads.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5); got {noise}")
    gen = as_generator(rng)
    values = gen.random(n)
    labels = (values > threshold).astype(np.int8)
    flips = gen.random(n) < noise
    labels = np.where(flips, 1 - labels, labels)
    weight_arr = None
    if weights == "random":
        weight_arr = gen.exponential(1.0, size=n) + 1e-3
    elif weights is not None:
        raise ValueError(f"weights must be None or 'random'; got {weights!r}")
    return PointSet(values.reshape(-1, 1), labels, weight_arr)


def _random_monotone_truth(dim: int, num_anchors: int,
                           gen: np.random.Generator) -> UpsetClassifier:
    """A random monotone ground-truth function: the upset of random anchors."""
    anchors = gen.random((num_anchors, dim)) * 0.8 + 0.1
    return UpsetClassifier(anchors)


def planted_monotone(n: int, dim: int, noise: float = 0.0,
                     num_anchors: int = 4, rng: RngLike = None,
                     weights: Optional[str] = None) -> PointSet:
    """``d``-dim points labeled by a random monotone function plus noise.

    The ground truth is the indicator of the upward closure of
    ``num_anchors`` random anchor points — a genuinely multi-dimensional
    monotone boundary (not a linear one), matching the paper's model where
    only monotonicity is assumed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5); got {noise}")
    gen = as_generator(rng)
    coords = gen.random((n, dim))
    truth = _random_monotone_truth(dim, num_anchors, gen)
    labels = truth.classify_matrix(coords)
    flips = gen.random(n) < noise
    labels = np.where(flips, 1 - labels, labels).astype(np.int8)
    weight_arr = None
    if weights == "random":
        weight_arr = gen.exponential(1.0, size=n) + 1e-3
    elif weights is not None:
        raise ValueError(f"weights must be None or 'random'; got {weights!r}")
    return PointSet(coords, labels, weight_arr)


def width_controlled(n: int, width: int, noise: float = 0.0,
                     boundary: float = 0.5, rng: RngLike = None) -> PointSet:
    """A 2-D point set with dominance width *exactly* ``width``.

    Construction: chain ``j`` consists of points
    ``(t + j * D, t - j * D)`` for ``t = 1 .. m_j`` where ``D > max m_j``.
    Within a chain, larger ``t`` dominates smaller ``t``.  Across chains
    ``j > j'``, the first coordinate is strictly larger but the second is
    strictly smaller, so no two points on different chains are comparable —
    the ``width`` chain-starts form an anti-chain and Dilworth gives width
    exactly ``width`` (assuming every chain is non-empty, i.e.
    ``n >= width``).

    Labels: within chain ``j``, positions above ``boundary * m_j`` get
    label 1, then flipped with probability ``noise``.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if n < width:
        raise ValueError(f"need n >= width; got n={n}, width={width}")
    if not 0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5); got {noise}")
    gen = as_generator(rng)
    base = n // width
    remainder = n % width
    sizes = [base + (1 if j < remainder else 0) for j in range(width)]
    offset = float(max(sizes) + 2)

    coords = np.empty((n, 2))
    labels = np.empty(n, dtype=np.int8)
    row = 0
    for j, m in enumerate(sizes):
        ts = np.arange(1, m + 1, dtype=float)
        coords[row:row + m, 0] = ts + j * offset
        coords[row:row + m, 1] = ts - j * offset
        clean = (ts > boundary * m).astype(np.int8)
        flips = gen.random(m) < noise
        labels[row:row + m] = np.where(flips, 1 - clean, clean)
        row += m
    # Shuffle so algorithms cannot exploit construction order.
    perm = gen.permutation(n)
    return PointSet(coords[perm], labels[perm])


def adversarial_points(n: int, kind: str = "00", anomaly_pair: int = 1) -> PointSet:
    """Convenience re-export of the Section 6 adversarial inputs."""
    from ..core.lowerbound import adversarial_input

    return adversarial_input(n, anomaly_pair, kind)


def staircase(n: int, steps: int, noise: float = 0.0,
              rng: RngLike = None) -> PointSet:
    """A 2-D staircase boundary: the hardest shape for axis thresholds.

    The positive region is the upset of ``steps`` anchor points arranged
    on an anti-diagonal staircase, so any single-coordinate threshold
    misclassifies a constant fraction while the monotone optimum is
    ``~ noise * n``.  Useful for showing why genuinely multi-dimensional
    monotone classifiers (Theorem 4 / Theorem 2 outputs) beat per-feature
    cutoffs.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5); got {noise}")
    gen = as_generator(rng)
    coords = gen.random((n, 2))
    # Anchors (a_k, b_k): a ascending, b descending across [0.1, 0.9].
    ks = np.arange(steps)
    anchors = np.stack([
        0.1 + 0.8 * ks / max(1, steps - 1) if steps > 1 else np.array([0.5]),
        0.9 - 0.8 * ks / max(1, steps - 1) if steps > 1 else np.array([0.5]),
    ], axis=1)
    labels = pairwise_weak_dominance(coords, anchors).any(axis=1).astype(np.int8)
    flips = gen.random(n) < noise
    labels = np.where(flips, 1 - labels, labels).astype(np.int8)
    return PointSet(coords, labels)


def correlated_monotone(n: int, dim: int, correlation: float = 0.8,
                        noise: float = 0.05, rng: RngLike = None) -> PointSet:
    """Points with correlated coordinates — narrow-width workloads.

    Coordinates share a latent factor with weight ``correlation``; as the
    correlation rises the points concentrate around the diagonal, most
    pairs become comparable, and the dominance width falls — the regime
    where the Theorem 2 algorithm is at its best.  Labels come from a
    threshold on the latent factor plus flip noise.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= correlation <= 1:
        raise ValueError(f"correlation must be in [0, 1]; got {correlation}")
    if not 0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5); got {noise}")
    gen = as_generator(rng)
    latent = gen.random(n)
    independent = gen.random((n, dim))
    coords = correlation * latent[:, None] + (1 - correlation) * independent
    labels = (latent > 0.5).astype(np.int8)
    flips = gen.random(n) < noise
    labels = np.where(flips, 1 - labels, labels).astype(np.int8)
    return PointSet(coords, labels)
