"""CI smoke benchmarks: tiny inputs, every pipeline layer, fast enough to gate.

This file is what the ``bench-smoke`` CI job runs (with ``--benchmark-json``)
and compares against ``benchmarks/baseline.json`` via ``compare.py``.  The
sizes are deliberately small — the job exists to catch order-of-magnitude
performance regressions (an accidental O(n^2) loop, a lost cache), not to
measure scaling; the full-size suite in the sibling files does that.

Keep the set small and stable: every benchmark here must have a matching
entry in ``baseline.json``, and the baseline must be refreshed (locally,
``pytest benchmarks/test_bench_smoke.py --benchmark-json=benchmarks/baseline.json``)
whenever a benchmark is added or its workload changes.
"""

from __future__ import annotations

import numpy as np

from repro import LabelOracle, PointSet, active_classify, solve_passive
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.parallel import GridConfig, run_grid
from repro.poset import dominance_pair_count, maximal_points, minimal_points


def _calibration_work(data):
    total = 0
    for i in range(100_000):
        total += i & 7
    return total + float(np.sort(data)[0])


def test_smoke_calibration(benchmark):
    """Host-speed yardstick: fixed work that runs no repro code.

    ``compare.py`` divides every benchmark's slowdown by this one's, so
    the gate compares code and not the hosts the two files came from.
    It mixes an interpreter loop with a numpy sort, as the pipeline
    does.  Changing it invalidates the baseline: refresh both together.
    """
    data = np.random.default_rng(0).random(100_000)
    benchmark(_calibration_work, data)


def test_smoke_passive_flow(benchmark):
    """Passive optimum via min-cut on a small planted instance."""
    points = planted_monotone(400, 2, noise=0.1, rng=0)
    result = benchmark(lambda: solve_passive(points))
    benchmark.extra_info["optimal_error"] = result.optimal_error


def test_smoke_active_serial(benchmark):
    """Full active pipeline, serial path (workers=1)."""
    points = width_controlled(800, 4, noise=0.05, rng=0)
    hidden = points.with_hidden_labels()

    def job():
        return active_classify(hidden, LabelOracle(points), epsilon=1.0, rng=1)

    result = benchmark(job)
    benchmark.extra_info["probes"] = result.probing_cost


def test_smoke_active_parallel_path(benchmark):
    """Active pipeline through the chain-dispatch path (workers=2).

    Times the sharding/absorb/merge machinery itself on a small input; the
    point is catching overhead regressions in the parallel layer, not
    demonstrating speedup (see BENCH_parallel.json for that).
    """
    points = width_controlled(800, 4, noise=0.05, rng=0)
    hidden = points.with_hidden_labels()

    def job():
        return active_classify(hidden, LabelOracle(points), epsilon=1.0,
                               rng=1, workers=2)

    result = benchmark(job)
    benchmark.extra_info["probes"] = result.probing_cost


def test_smoke_poset_sparse_large(benchmark):
    """Poset order queries at n = 4096, d = 3: the memory-bounded hot path.

    Minimal/maximal extraction plus the order-pair count over the packed
    order, which is built in one blockwise O(d n^2) dominance sweep in
    O(block * n) scratch memory.  Guards the per-dimension accumulation
    kernels against an accidental return to (rows, n, d) broadcast
    intermediates (a memory *and* time cliff).
    """
    gen = np.random.default_rng(0)
    points = PointSet(gen.uniform(size=(4096, 3)), [0] * 4096)

    def job():
        points._packed_order = None  # re-pack: construction is the kernel
        mins = minimal_points(points)
        maxs = maximal_points(points)
        pairs = dominance_pair_count(points)
        return len(mins), len(maxs), pairs

    num_min, num_max, pairs = benchmark(job)
    benchmark.extra_info["minimal"] = num_min
    benchmark.extra_info["maximal"] = num_max
    benchmark.extra_info["order_pairs"] = pairs


def _smoke_rows(n=200, seed=0):
    points = planted_monotone(n, 2, noise=0.1, rng=seed)
    result = active_classify(points.with_hidden_labels(), LabelOracle(points),
                             epsilon=1.0, rng=seed)
    return [{"n": n, "probes": result.probing_cost}]


def test_smoke_grid_fanout(benchmark):
    """Config-grid fan-out machinery (2 configs, 2 workers)."""
    configs = [
        GridConfig(name=f"smoke{i}", func=_smoke_rows, params={"seed": i})
        for i in range(2)
    ]

    def job():
        return run_grid(configs, workers=2)

    results = benchmark(job)
    assert all(r.ok for r in results)
