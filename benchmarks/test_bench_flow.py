"""Max-flow benchmarks: the loop-Dinic reference against the production
array Dinic, and the min-cut stage (Lemmas 7-8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.passive import SINK, SOURCE, greedy_preflow, passive_network
from repro.datasets import planted_monotone
from repro.flow import (
    dinic_array_max_flow,
    dinic_max_flow,
    min_cut_from_residual,
    solve_min_cut,
)
from repro.fuzz.generators import random_flow_network

#: The loop-Dinic reference plus the production engine, keyed by function
#: name.
_ENGINES = {
    "dinic": dinic_max_flow,
    "dinic_array": dinic_array_max_flow,
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("size", [200, 600])
def test_flow_backend_runtime(benchmark, engine, size):
    reference = dinic_max_flow(random_flow_network(size, 0.08, seed=7),
                               0, size - 1)
    for solver in _ENGINES.values():
        net = random_flow_network(size, 0.08, seed=7)
        value = solver(net, 0, size - 1)
        assert value == pytest.approx(reference, rel=1e-9)

    def job():
        net = random_flow_network(size, 0.08, seed=7)
        return _ENGINES[engine](net, 0, size - 1)

    value = benchmark(job)
    assert value == pytest.approx(reference, rel=1e-9)
    benchmark.extra_info.update({"V": size, "flow_value": round(value, 4)})


def test_flow_against_networkx(benchmark):
    nx = pytest.importorskip("networkx")
    size = 300
    net = random_flow_network(size, 0.08, seed=8)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(size))
    for _arc, arc in net.forward_arcs():
        if graph.has_edge(arc.tail, arc.head):
            graph[arc.tail][arc.head]["capacity"] += arc.capacity
        else:
            graph.add_edge(arc.tail, arc.head, capacity=arc.capacity)
    expected = nx.maximum_flow_value(graph, 0, size - 1)

    def job():
        fresh = random_flow_network(size, 0.08, seed=8)
        return dinic_array_max_flow(fresh, 0, size - 1)

    value = benchmark(job)
    assert value == pytest.approx(expected, rel=1e-9)
    benchmark.extra_info["networkx_value"] = round(expected, 4)


def test_min_cut_extraction(benchmark):
    size = 400

    def job():
        net = random_flow_network(size, 0.08, seed=9)
        return solve_min_cut(net, 0, size - 1)

    cut = benchmark(job)
    benchmark.extra_info.update({
        "cut_value": round(cut.value, 4),
        "cut_edges": len(cut.cut_arcs),
    })


# ---------------------------------------------------------------------------
# Reference-vs-production pairs.
#
# Same instance, same seed: the loop-Dinic reference vs the production
# engine behind solve_min_cut, at a size below the kernels' full-scale
# runs so the pairs fit the bench-smoke gate.  Max-flow plus cut
# extraction is benchmarked, not bare max-flow, to match the passive
# solver's min-cut stage.
# ---------------------------------------------------------------------------

_PAIR_SIZES = [512, 1024]
_PAIR_DENSITY = 0.05
_pair_reference: dict = {}


def _pair_value(size: int) -> float:
    """Loop-dinic reference value for the paired instance of ``size``."""
    if size not in _pair_reference:
        net = random_flow_network(size, _PAIR_DENSITY, seed=13)
        _pair_reference[size] = dinic_max_flow(net, 0, size - 1)
    return _pair_reference[size]


@pytest.mark.parametrize("engine", ["dinic"])
@pytest.mark.parametrize("size", _PAIR_SIZES)
def test_flow_solver_loop(benchmark, engine, size):
    def job():
        net = random_flow_network(size, _PAIR_DENSITY, seed=13)
        value = dinic_max_flow(net, 0, size - 1)
        return min_cut_from_residual(net, 0, size - 1, value)

    cut = benchmark(job)
    assert cut.value == pytest.approx(_pair_value(size), rel=1e-9, abs=1e-12)
    benchmark.extra_info.update({"V": size, "flow_value": round(cut.value, 4)})


@pytest.mark.parametrize("engine", ["dinic"])
@pytest.mark.parametrize("size", _PAIR_SIZES)
def test_flow_solver_array(benchmark, engine, size):
    def job():
        net = random_flow_network(size, _PAIR_DENSITY, seed=13)
        return solve_min_cut(net, 0, size - 1)

    cut = benchmark(job)
    assert cut.value == _pair_value(size)  # bit-identical by contract
    benchmark.extra_info.update({"V": size, "flow_value": round(cut.value, 4)})


def test_min_cut_preflowed_passive(benchmark):
    """``solve_min_cut`` alone on a prebuilt, preflowed passive network.

    The other flow benchmarks build a random network inside every timed
    job, and that build (20–120 ms) hides a 2–25 ms solve.  Here the d = 3,
    n = 2048 passive network is built and seeded with the greedy preflow
    once; each round restores the seeded flows outside the timer and times
    only max flow plus cut readout, as ``solve_passive``'s ``min_cut``
    stage runs them.
    """
    points = planted_monotone(2048, 3, noise=0.1, weights="random",
                              rng=np.random.default_rng([0, 0]))
    passive = passive_network(points)
    greedy_preflow(passive)
    network = passive.network
    seeded = network.flows.copy()

    def setup():
        network.flows[:] = seeded
        return (network, SOURCE, SINK), {}

    cut = benchmark.pedantic(solve_min_cut, setup=setup, rounds=30,
                             warmup_rounds=1)
    assert cut.weight(network) == pytest.approx(cut.value, rel=1e-9)
    benchmark.extra_info.update({
        "V": network.num_nodes,
        "arcs": len(network.heads),
        "cut_edges": len(cut.cut_arcs),
    })
