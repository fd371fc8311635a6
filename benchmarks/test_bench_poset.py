"""Benchmark E9: chain decomposition exactness and runtime (Lemma 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.poset.chains import (
    greedy_chain_decomposition,
    matching_chain_decomposition,
    patience_chain_decomposition,
)
from repro.poset.width import is_antichain, maximum_antichain


@pytest.mark.parametrize("n,width", [(2_000, 4), (2_000, 32), (8_000, 8)])
def test_matching_decomposition(benchmark, n, width):
    points = width_controlled(n, width, noise=0.05, rng=0)
    decomposition = benchmark(matching_chain_decomposition, points)
    assert decomposition.num_chains == width
    benchmark.extra_info.update({"n": n, "true_w": width,
                                 "chains": decomposition.num_chains})


@pytest.mark.parametrize("n", [20_000, 100_000])
def test_patience_decomposition_large(benchmark, n):
    points = width_controlled(n, 16, noise=0.05, rng=1)
    decomposition = benchmark(patience_chain_decomposition, points)
    assert decomposition.num_chains == 16
    benchmark.extra_info.update({"n": n, "chains": decomposition.num_chains})


@pytest.mark.parametrize("shape", ["antichain_20k", "planted_200k"])
def test_patience_decomposition_worst(benchmark, shape):
    """The hybrid's worst shapes: an antichain (no chain peels, first fit
    places every point) and planted_monotone (w in the hundreds)."""
    if shape == "antichain_20k":
        t = np.arange(20_000, dtype=float)
        points = PointSet(np.c_[t, -t], [0] * len(t))
    else:
        points = planted_monotone(200_000, 2, noise=0.1, rng=2)
    decomposition = benchmark(patience_chain_decomposition, points)
    if shape == "antichain_20k":
        assert decomposition.num_chains == points.n
    benchmark.extra_info.update({"n": points.n,
                                 "chains": decomposition.num_chains})


def test_greedy_vs_exact_chain_count(benchmark):
    points = planted_monotone(3_000, 3, noise=0.1, rng=2)
    exact = matching_chain_decomposition(points).num_chains
    greedy = benchmark(greedy_chain_decomposition, points)
    assert greedy.num_chains >= exact
    benchmark.extra_info.update({"exact_w": exact,
                                 "greedy_chains": greedy.num_chains})


def test_antichain_certificate(benchmark):
    points = planted_monotone(1_500, 3, noise=0.1, rng=3)
    antichain = benchmark(maximum_antichain, points)
    assert is_antichain(points, antichain)
    assert len(antichain) == matching_chain_decomposition(points).num_chains
    benchmark.extra_info["width"] = len(antichain)
