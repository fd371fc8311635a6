"""Serving-layer smoke benchmarks: query latency must stay flat.

Part of the CI ``bench-smoke`` gate: each benchmark has a matching entry
in ``benchmarks/baseline.json`` and the gate fails when the best round
regresses by >30%.  Tiny inputs on purpose — this catches order-of-magnitude
slips (a digest recomputed per query, a journal fsync per point), not
scaling behavior.  The end-to-end serve numbers (``serve_p50_us``,
``serve_p99_us``, ``serve_points_per_s``) come from the repository
benchmark's ``serve_fleet`` workload::

    python3 perfbench/run.py --workload serve_fleet --seed 1 --seconds 20
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.points import PointSet
from repro.serve import (
    ModelFleet,
    ServeEngine,
    fit_artifact,
    load_artifact,
    save_artifact,
)


@pytest.fixture(scope="module")
def deployed(tmp_path_factory):
    rng = np.random.default_rng(17)
    coords = rng.random((300, 2))
    labels = (coords.sum(axis=1) > 1.0).astype(int)
    labels[:20] ^= 1
    artifact = fit_artifact(PointSet(coords, labels), "passive")
    path = tmp_path_factory.mktemp("bench-serve") / "model.json"
    save_artifact(artifact, path)
    return path


def test_bench_serve_batch_queries(benchmark, deployed):
    """Batched query throughput through the full engine path (queue +
    journal off): 64 batches of 512 points per round."""
    engine = ServeEngine(deployed)
    engine.reload()
    rng = np.random.default_rng(3)
    batches = [rng.random((512, 2)) for _ in range(64)]

    def job():
        answered = 0
        for coords in batches:
            result = engine.classify_batch(coords)
            assert result.ok
            answered += result.n
        return answered

    answered = benchmark(job)
    benchmark.extra_info["points_per_round"] = answered


def test_bench_serve_single_queries(benchmark, deployed):
    """Single-point query latency (the per-request overhead floor)."""
    engine = ServeEngine(deployed)
    engine.reload()
    rng = np.random.default_rng(4)
    points = [tuple(p) for p in rng.random((256, 2))]

    def job():
        labels = 0
        for point in points:
            result = engine.classify(point)
            labels += result.label or 0
        return labels

    benchmark(job)
    benchmark.extra_info["queries_per_round"] = len(points)


def test_bench_serve_artifact_load(benchmark, deployed):
    """Artifact load + digest verification (the reload path's cost)."""

    def job():
        return load_artifact(deployed)

    artifact = benchmark(job)
    benchmark.extra_info["digest"] = (artifact.digest or "")[:12]


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    rng = np.random.default_rng(23)
    directory = tmp_path_factory.mktemp("bench-fleet")
    for k in range(4):
        coords = rng.random((120, 2))
        labels = (coords.sum(axis=1) > 1.0).astype(int)
        labels[:8] ^= 1
        artifact = fit_artifact(PointSet(coords, labels), "passive")
        save_artifact(artifact, directory / f"m{k}.json")
    return directory


def test_bench_fleet_dispatch(benchmark, fleet_dir):
    """Fleet dispatch overhead vs a bare engine: 64 batches of 256 points
    round-robined across 4 resident models (bulkhead gate + breaker + LRU
    bookkeeping on every call)."""
    fleet = ModelFleet.from_directory(fleet_dir)
    names = fleet.models
    rng = np.random.default_rng(5)
    batches = [rng.random((256, 2)) for _ in range(64)]

    def job():
        answered = 0
        for i, coords in enumerate(batches):
            result = fleet.dispatch(names[i % len(names)], coords)
            assert result.ok
            answered += result.n
        return answered

    answered = benchmark(job)
    fleet.close()
    benchmark.extra_info["points_per_round"] = answered


def test_bench_fleet_single_dispatch(benchmark, fleet_dir):
    """Single-point ``ModelFleet.dispatch``, the call ``serve_p50_us``
    times: 256 one-row requests round-robined across 4 resident models.

    Fixed rounds after one warm-up (the four cold loads): a round is only
    ~3 ms, so the default 0.2 s budget can fall wholly inside a slow spell
    of a shared host, and the gate reads the best round."""
    fleet = ModelFleet.from_directory(fleet_dir)
    names = fleet.models
    points = np.random.default_rng(8).random((256, 2))
    rows = [points[i:i + 1] for i in range(len(points))]

    def job():
        labels = 0
        for i, row in enumerate(rows):
            result = fleet.dispatch(names[i % len(names)], row)
            assert result.ok
            labels += result.label
        return labels

    benchmark.pedantic(job, rounds=200, warmup_rounds=1)
    fleet.close()
    benchmark.extra_info["requests_per_round"] = len(rows)


def test_bench_fleet_lru_churn(benchmark, fleet_dir):
    """Worst-case residency thrash: resident_limit=1 over 4 models, so
    every dispatch pays an eviction plus a digest-verified cold load."""
    fleet = ModelFleet.from_directory(fleet_dir, resident_limit=1)
    names = fleet.models
    rng = np.random.default_rng(6)
    batches = [rng.random((32, 2)) for _ in range(16)]

    def job():
        for i, coords in enumerate(batches):
            assert fleet.dispatch(names[i % len(names)], coords).ok
        return len(batches)

    benchmark(job)
    fleet.close()
    benchmark.extra_info["cold_loads_per_round"] = len(batches)
