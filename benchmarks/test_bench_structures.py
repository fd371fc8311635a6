"""Micro-benchmarks for the supporting data structures and fast paths.

Not tied to a single paper table; they quantify the engineering choices
called out in DESIGN.md (patience vs matching decomposition, sweepline vs
matrix contending mask, the prefix-sum batch 1-D threshold solver).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet
from repro.core.passive import contending_mask
from repro.core.passive_1d import best_threshold
from repro.datasets.synthetic import width_controlled
from repro.poset.chains import matching_chain_decomposition, patience_chain_decomposition
from repro.poset.dominance2d import contending_mask_low_dim


@pytest.mark.parametrize("method", ["patience", "matching"])
def test_decomposition_methods_head_to_head(benchmark, method):
    points = width_controlled(4_000, 8, noise=0.05, rng=0)
    runner = (patience_chain_decomposition if method == "patience"
              else matching_chain_decomposition)
    decomposition = benchmark(runner, points)
    assert decomposition.num_chains == 8
    benchmark.extra_info.update({"method": method, "n": 4_000})


@pytest.mark.parametrize("path", ["sweepline", "matrix"])
def test_contending_mask_fast_path(benchmark, path):
    gen = np.random.default_rng(1)
    coords = gen.random((6_000, 2))
    labels = gen.integers(0, 2, size=6_000)
    points = PointSet(coords, labels)
    if path == "sweepline":
        mask = benchmark(contending_mask_low_dim, points)
    else:
        mask = benchmark(contending_mask, points)
    benchmark.extra_info.update({"path": path, "contending": int(mask.sum())})


def test_batch_threshold_resolve(benchmark):
    """The numpy prefix-sum solver the 1-D recursion evaluates thresholds with."""
    gen = np.random.default_rng(2)
    values = gen.random(5_000)
    labels = (values > 0.5).astype(int)
    _tau, err = benchmark(best_threshold, values, labels)
    benchmark.extra_info["n"] = 5_000
