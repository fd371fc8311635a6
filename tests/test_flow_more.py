"""Additional max-flow coverage: degenerate networks, structural stress
cases (a saturating bridge, long paths, the passive-reduction shape)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.flow import FlowNetwork, solve_min_cut
from repro.fuzz.generators import random_flow_network

from .conftest import FLOW_ENGINES


@pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
class TestDegenerateNetworks:
    """Tiny and degenerate networks: the engines run at every size."""

    def test_zero_capacity_network(self, engine):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 0.0)
        net.add_edge(1, 2, 0.0)
        value = FLOW_ENGINES[engine](net, 0, 2)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_no_edges(self, engine):
        net = FlowNetwork(2)
        value = FLOW_ENGINES[engine](net, 0, 1)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_extreme_capacity_ratio(self, engine):
        """One tiny and one huge parallel path: both fully used."""
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1e9)
        net.add_edge(1, 3, 1e9)
        net.add_edge(0, 2, 1e-6)
        net.add_edge(2, 3, 1e-6)
        assert FLOW_ENGINES[engine](net, 0, 3) == pytest.approx(1e9 + 1e-6)

    def test_rejects_same_source_sink(self, engine):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            FLOW_ENGINES[engine](net, 0, 0)


class TestStructuralStress:
    def _long_path(self, length: int) -> FlowNetwork:
        net = FlowNetwork(length + 1)
        for i in range(length):
            net.add_edge(i, i + 1, float(i % 3 + 1))
        return net

    @pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
    def test_long_path(self, engine):
        """Hundreds of vertices in series: exercises BFS depth."""
        net = self._long_path(300)
        assert FLOW_ENGINES[engine](net, 0, 300) == 1.0

    @pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
    def test_wide_bipartite(self, engine):
        """The passive-reduction shape: source -> L -> R -> sink."""
        gen = np.random.default_rng(0)
        left, right = 40, 40
        net = FlowNetwork(2 + left + right)
        source, sink = 0, 1
        for i in range(left):
            net.add_edge(source, 2 + i, float(gen.random() + 0.1))
        for j in range(right):
            net.add_edge(2 + left + j, sink, float(gen.random() + 0.1))
        for i in range(left):
            for j in range(right):
                if gen.random() < 0.15:
                    net.add_edge(2 + i, 2 + left + j, 1e6)
        values = {}
        for other, solver in FLOW_ENGINES.items():
            fresh = FlowNetwork(net.num_nodes)
            for _arc, arc in net.forward_arcs():
                fresh.add_edge(arc.tail, arc.head, arc.capacity)
            values[other] = solver(fresh, source, sink)
        assert values[engine] == pytest.approx(values["dinic"])

    def test_gap_heuristic_network(self):
        """A network whose middle layer disconnects mid-run (the bridge)."""
        net = FlowNetwork(8)
        # Two layers with a single fragile bridge.
        net.add_edge(0, 1, 5.0)
        net.add_edge(0, 2, 5.0)
        net.add_edge(1, 3, 1.0)
        net.add_edge(2, 3, 1.0)
        net.add_edge(3, 4, 1.5)  # bridge saturates early
        net.add_edge(4, 5, 5.0)
        net.add_edge(4, 6, 5.0)
        net.add_edge(5, 7, 5.0)
        net.add_edge(6, 7, 5.0)
        for engine, solver in FLOW_ENGINES.items():
            fresh = FlowNetwork(8)
            for _arc, arc in net.forward_arcs():
                fresh.add_edge(arc.tail, arc.head, arc.capacity)
            assert solver(fresh, 0, 7) == pytest.approx(1.5), engine

    def test_min_cut_on_bridge_network(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 2.0)
        net.add_edge(2, 3, 10.0)
        cut = solve_min_cut(net, 0, 3)
        assert cut.value == pytest.approx(2.0)
        assert cut.cut_edges(net) == [(1, 2, 2.0)]


@pytest.mark.parametrize("seed", range(8))
def test_all_engines_agree(seed):
    """Both production engines agree with the loop-Dinic reference."""
    size = 35
    values = {}
    for engine, solver in FLOW_ENGINES.items():
        net = random_flow_network(size, 0.25, seed=seed)
        values[engine] = solver(net, 0, size - 1)
    reference = values["dinic"]
    for engine, value in values.items():
        assert value == pytest.approx(reference, rel=1e-9, abs=1e-9), engine
