"""Benchmark E3: passive solver CPU time vs n and d (Theorem 4).

The paper claims ``O(d n^2) + T_maxflow(n)``; these benchmarks chart the
empirical curve and certify optimality on the 1-D instances against the
prefix-sum solver.
"""

from __future__ import annotations

import pytest

from repro import solve_passive, solve_passive_1d
from repro.datasets.synthetic import planted_monotone, planted_threshold_1d


@pytest.mark.parametrize("n", [250, 500, 1_000, 2_000])
def test_passive_scaling_n_d2(benchmark, n):
    points = planted_monotone(n, 2, noise=0.1, rng=0, weights="random")
    result = benchmark(solve_passive, points)
    benchmark.extra_info.update({
        "n": n, "d": 2,
        "contending": result.num_contending,
        "optimal_error": result.optimal_error,
    })


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_passive_scaling_d_n1000(benchmark, d):
    if d == 1:
        points = planted_threshold_1d(1_000, noise=0.1, rng=1, weights="random")
    else:
        points = planted_monotone(1_000, d, noise=0.1, rng=1, weights="random")
    result = benchmark(solve_passive, points)
    if d == 1:
        exact = solve_passive_1d(points).optimal_error
        assert result.optimal_error == pytest.approx(exact)
    benchmark.extra_info.update({"n": 1_000, "d": d,
                                 "optimal_error": result.optimal_error})


def test_passive_d3_n1500(benchmark):
    points = planted_monotone(1_500, 3, noise=0.15, rng=2, weights="random")
    result = benchmark(solve_passive, points)
    benchmark.extra_info.update({"optimal_error": result.optimal_error})


def test_passive_1d_fast_path(benchmark):
    """The O(n log n) 1-D exact solver, for contrast with the flow path."""
    points = planted_threshold_1d(200_000, noise=0.1, rng=3, weights="random")
    result = benchmark(solve_passive_1d, points)
    benchmark.extra_info.update({"n": 200_000,
                                 "optimal_error": result.optimal_error})
