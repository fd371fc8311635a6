"""Kernel benchmarks: packed-bitset engine vs the loop/dense reference.

Gated in the ``bench-smoke`` CI job alongside the pipeline smoke
benchmarks: each kernel is measured in *both* engines at two sizes, so a
regression in either substrate (or an accidental de-vectorization) trips
``compare.py`` against ``baseline.json``.  The bitset/loop ratio is the
speedup the engine buys; the measured numbers are recorded in
``BENCH_kernels.json`` at the repo root.

The loop variants deliberately re-implement the pre-bitset code paths
(dense order-matrix consumers, adjacency-list Hopcroft–Karp, per-pair
``add_edge``) so the comparison stays meaningful after the library
defaults switched to the packed engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet
from repro.datasets.synthetic import width_controlled
from repro.flow import FlowNetwork
from repro.poset import (
    dominance_pair_count,
    hopcroft_karp,
    hopcroft_karp_bitset,
    maximal_points,
    minimal_points,
    packed_order,
)

DOMINANCE_SIZES = [1024, 4096]
MATCHING_SIZES = [2048, 4096]
FLOW_SIZES = [1024, 4096]


def _points(n: int, dim: int = 3) -> PointSet:
    gen = np.random.default_rng(n)
    return PointSet(gen.uniform(size=(n, dim)), [0] * n)


@pytest.mark.parametrize("n", DOMINANCE_SIZES)
def test_kernel_dominance_loop(benchmark, n):
    """Dense reference: order matrix + row/column ``any`` + pair count."""
    points = _points(n)

    def job():
        # Re-derive from coordinates: construction is the kernel.  Both
        # caches must be dropped, otherwise order_matrix() reuses the
        # weak-dominance matrix after round one and skips the pairwise work.
        points._order = None
        points._weak_dom = None
        order = points.order_matrix()
        mins = np.flatnonzero(~order.any(axis=1))
        maxs = np.flatnonzero(~order.any(axis=0))
        return len(mins), len(maxs), int(order.sum())

    num_min, num_max, pairs = benchmark(job)
    benchmark.extra_info["order_pairs"] = pairs


@pytest.mark.parametrize("n", DOMINANCE_SIZES)
def test_kernel_dominance_bitset(benchmark, n):
    """Packed engine: blockwise pack + byte-wise ``any`` + popcount."""
    points = _points(n)

    def job():
        points._packed_order = None  # re-pack: construction is the kernel
        mins = minimal_points(points)
        maxs = maximal_points(points)
        return len(mins), len(maxs), dominance_pair_count(points)

    num_min, num_max, pairs = benchmark(job)
    benchmark.extra_info["order_pairs"] = pairs


def _matching_instance(n: int):
    points = width_controlled(n, 24, rng=0)
    order = PointSet(points.coords.copy(), points.labels.copy(),
                     points.weights.copy()).order_matrix()
    adjacency = [np.flatnonzero(order[:, u]).tolist() for u in range(n)]
    return adjacency, packed_order(points).above


@pytest.mark.parametrize("n", MATCHING_SIZES)
def test_kernel_matching_loop(benchmark, n):
    """Reference Hopcroft–Karp over prebuilt adjacency lists."""
    adjacency, _ = _matching_instance(n)
    result = benchmark(lambda: hopcroft_karp(adjacency, n))
    benchmark.extra_info["matching_size"] = result.size


@pytest.mark.parametrize("n", MATCHING_SIZES)
def test_kernel_matching_bitset(benchmark, n):
    """Bitset-frontier Hopcroft–Karp over the packed adjacency."""
    _, above = _matching_instance(n)
    result = benchmark(lambda: hopcroft_karp_bitset(above, n))
    benchmark.extra_info["matching_size"] = result.size


def _flow_edges(n: int):
    gen = np.random.default_rng(1)
    m = 30 * n
    return (gen.integers(0, n, m), gen.integers(0, n, m), gen.random(m))


@pytest.mark.parametrize("n", FLOW_SIZES)
def test_kernel_flow_build_loop(benchmark, n):
    """Per-edge ``add_edge`` network construction (the pre-bitset path)."""
    tails, heads, caps = _flow_edges(n)

    def job():
        network = FlowNetwork(n)
        for u, v, c in zip(tails, heads, caps):
            network.add_edge(int(u), int(v), float(c))
        return network

    network = benchmark(job)
    benchmark.extra_info["edges"] = network.num_edges


@pytest.mark.parametrize("n", FLOW_SIZES)
def test_kernel_flow_build_bulk(benchmark, n):
    """Vectorized ``add_edges`` construction of the identical network."""
    tails, heads, caps = _flow_edges(n)

    def job():
        network = FlowNetwork(n)
        network.add_edges(tails, heads, caps)
        return network

    network = benchmark(job)
    benchmark.extra_info["edges"] = network.num_edges
