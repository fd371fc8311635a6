"""Tests for the max-flow substrate (repro.flow)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    RESIDUAL_EPS,
    FlowNetwork,
    dinic_array_max_flow,
    dinic_max_flow,
    has_residual,
    min_cut_from_residual,
    solve_min_cut,
)
from repro.fuzz.generators import random_flow_network
from repro.obs import metrics_session

from .conftest import FLOW_ENGINES


def _diamond() -> FlowNetwork:
    """Classic 4-node diamond: max flow 2 via two disjoint paths + cross edge."""
    net = FlowNetwork(4)
    net.add_edge(0, 1, 1.0)
    net.add_edge(0, 2, 1.0)
    net.add_edge(1, 3, 1.0)
    net.add_edge(2, 3, 1.0)
    net.add_edge(1, 2, 1.0)
    return net


class TestFlowNetwork:
    def test_add_edge_and_reverse_arc(self):
        net = FlowNetwork(2)
        arc = net.add_edge(0, 1, 5.0)
        assert net.residual(arc) == 5.0
        assert net.residual(arc ^ 1) == 0.0

    def test_push_updates_both_directions(self):
        net = FlowNetwork(2)
        arc = net.add_edge(0, 1, 5.0)
        net.push(arc, 3.0)
        assert net.residual(arc) == 2.0
        assert net.residual(arc ^ 1) == 3.0

    def test_reset_flow(self):
        net = FlowNetwork(2)
        arc = net.add_edge(0, 1, 5.0)
        net.push(arc, 3.0)
        net.reset_flow()
        assert net.residual(arc) == 5.0

    def test_rejects_negative_capacity(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0)

    def test_rejects_nan_capacity(self):
        """add_edge validates like add_edges: a NaN capacity is refused."""
        net = FlowNetwork(2)
        with pytest.raises(ValueError, match="non-negative"):
            net.add_edge(0, 1, float("nan"))
        assert net.num_edges == 0

    def test_rejects_infinite_capacity_path(self):
        """An inf-capacity 0 -> 2 -> 1 path once solved to MinCut(inf)
        whose cut arc was itself infinite, with NaN residuals from
        ``inf - inf``; now the path cannot be built."""
        net = FlowNetwork(3)
        with pytest.raises(ValueError, match="finite"):
            net.add_edge(0, 2, math.inf)
        net.add_edge(0, 2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            net.add_edge(2, 1, math.inf)
        assert net.num_edges == 1

    def test_add_edges_rejects_infinite_capacity(self):
        net = FlowNetwork(3)
        with pytest.raises(ValueError, match="finite"):
            net.add_edges(np.array([0, 2]), np.array([2, 1]),
                          np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            net.add_edges(np.array([0]), np.array([2]), -np.inf)
        assert net.num_edges == 0

    def test_rejects_bad_vertex(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 2, 1.0)

    def test_add_node(self):
        net = FlowNetwork(1)
        new = net.add_node()
        assert new == 1
        net.add_edge(0, 1, 1.0)

    def test_conservation_check(self):
        net = _diamond()
        dinic_max_flow(net, 0, 3)
        assert net.check_flow_conservation(0, 3)

    def test_conservation_check_tolerance_boundaries(self):
        """Excess and capacity slack of exactly ``tol`` pass; more fails."""
        tol = 2.0 ** -20
        net = FlowNetwork(3)
        a = net.add_edge(0, 1, 1.0)
        b = net.add_edge(1, 2, 1.0)
        net.push(a, 0.5)
        net.push(b, 0.5 + tol)  # vertex 1 is short by exactly tol
        assert net.check_flow_conservation(0, 2, tol=tol)
        assert not net.check_flow_conservation(0, 2, tol=tol / 2)
        net.reset_flow()
        net.push(a, 1.0 + tol)  # over capacity by exactly tol
        net.push(b, 1.0 + tol)
        assert net.check_flow_conservation(0, 2, tol=tol)
        assert not net.check_flow_conservation(0, 2, tol=tol / 2)

    def test_flow_value_sums_left_to_right(self):
        """flow_value keeps the scalar loop's summation order.

        numpy's pairwise sum rounds these flows differently, and both
        Dinic engines start their reported value from ``flow_value``, so
        the order is part of their bit-for-bit contract.
        """
        amounts = [1.0] + [2.0 ** -53] * 16
        net = FlowNetwork(len(amounts) + 1)
        for leaf, amount in enumerate(amounts, start=1):
            net.push(net.add_edge(0, leaf, 2.0), amount)
        sequential = 0.0
        for amount in amounts:
            sequential += amount
        assert float(np.sum(amounts)) != sequential  # the sums do differ
        assert net.flow_value(0) == sequential

    def test_tail_accessor(self):
        """Public tail()/tails: the arc-origin counterpart of heads."""
        net = FlowNetwork(3)
        arc = net.add_edge(0, 1, 2.0)
        other = net.add_edge(1, 2, 3.0)
        assert net.tail(arc) == 0 and net.heads[arc] == 1
        assert net.tail(arc ^ 1) == 1  # reverse arc runs backwards
        assert net.tail(other) == 1
        assert tuple(net.tails.tolist()) == (0, 1, 1, 2)
        # Every forward arc's materialized tail agrees with the accessor.
        assert all(a.tail == net.tail(arc_id) for arc_id, a in net.forward_arcs())


@pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
class TestBackends:
    def test_diamond(self, engine):
        net = _diamond()
        assert FLOW_ENGINES[engine](net, 0, 3) == pytest.approx(2.0)

    def test_single_edge(self, engine):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 7.5)
        assert FLOW_ENGINES[engine](net, 0, 1) == pytest.approx(7.5)

    def test_disconnected(self, engine):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 4.0)
        value = FLOW_ENGINES[engine](net, 0, 2)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_parallel_edges_accumulate(self, engine):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 2.0)
        net.add_edge(0, 1, 3.5)
        assert FLOW_ENGINES[engine](net, 0, 1) == pytest.approx(5.5)

    def test_bottleneck_path(self, engine):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 0.5)
        net.add_edge(2, 3, 10.0)
        assert FLOW_ENGINES[engine](net, 0, 3) == pytest.approx(0.5)

    def test_source_equals_sink_rejected(self, engine):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            FLOW_ENGINES[engine](net, 0, 0)

    def test_flow_is_feasible(self, engine):
        net = random_flow_network(40, 0.2, seed=3)
        FLOW_ENGINES[engine](net, 0, 39)
        assert net.check_flow_conservation(0, 39)

    def test_clrs_figure_example(self, engine):
        """The CLRS flow-network example: known max flow 23."""
        net = FlowNetwork(6)
        s, v1, v2, v3, v4, t = range(6)
        net.add_edge(s, v1, 16)
        net.add_edge(s, v2, 13)
        net.add_edge(v1, v3, 12)
        net.add_edge(v2, v1, 4)
        net.add_edge(v2, v4, 14)
        net.add_edge(v3, v2, 9)
        net.add_edge(v3, t, 20)
        net.add_edge(v4, v3, 7)
        net.add_edge(v4, t, 4)
        assert FLOW_ENGINES[engine](net, s, t) == pytest.approx(23.0)


@pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
class TestWarmNetwork:
    """Max flow on a network that already carries flow reports the total:
    the flow it started from plus its own augmentation."""

    def test_solved_network_reports_full_value(self, engine):
        net = _diamond()
        first = FLOW_ENGINES[engine](net, 0, 3)
        assert FLOW_ENGINES[engine](net, 0, 3) == first == pytest.approx(2.0)

    def test_partial_flow_is_counted(self, engine):
        net = _diamond()
        net.push(0, 1.0)  # 0 -> 1
        net.push(4, 1.0)  # 1 -> 3
        assert FLOW_ENGINES[engine](net, 0, 3) == pytest.approx(2.0)
        assert net.check_flow_conservation(0, 3)


class TestMinCut:
    def test_cut_weight_equals_flow(self):
        cut = solve_min_cut(_diamond(), 0, 3)
        assert cut.value == pytest.approx(2.0)

    def test_cut_separates(self):
        net = _diamond()
        cut = solve_min_cut(net, 0, 3)
        assert 0 in cut.source_side
        assert 3 not in cut.source_side

    def test_cut_edges_materialized(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 4.0)
        cut = solve_min_cut(net, 0, 1)
        assert cut.cut_edges(net) == [(0, 1, 4.0)]
        assert cut.weight(net) == 4.0

    def test_on_a_network_that_already_carries_flow(self):
        """The certificate compares the cut with the whole flow, not with
        the augmentation on top of the flow the network started with."""
        net = FlowNetwork(4)
        net.add_edge(0, 1, 2.0)
        net.add_edge(0, 2, 2.0)
        net.add_edge(1, 3, 2.0)
        net.add_edge(2, 3, 2.0)
        net.push(0, 1.0)
        net.push(4, 1.0)
        cut = solve_min_cut(net, 0, 3)
        assert cut.value == cut.weight(net) == 4.0

    def test_residual_extraction_rejects_non_max_flow(self):
        net = _diamond()  # zero flow: sink still reachable
        with pytest.raises(AssertionError):
            min_cut_from_residual(net, 0, 3, 0.0)


class TestEpsilonBoundary:
    """Regressions for the shared ``RESIDUAL_EPS`` admissibility contract."""

    def test_has_residual_boundary_semantics(self):
        assert not has_residual(0.0)
        assert not has_residual(RESIDUAL_EPS)
        assert has_residual(2 * RESIDUAL_EPS)

    def test_sub_epsilon_push_skipped_on_warm_start(self):
        """No engine pushes a sub-epsilon residual on a warm start.

        Every production solve is warm-started (the passive solver's
        greedy preflow), and a warm start can leave a source arc with
        capacity above the tolerance but *residual* below it.  A push of
        that residual would move no usable flow, count a push, and, in
        an engine with per-vertex excess, strand the amount at the
        interior node, breaking exact conservation.
        """
        tiny = RESIDUAL_EPS / 2
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = FlowNetwork(3)
            a = net.add_edge(0, 1, 1.0)
            b = net.add_edge(1, 2, 1.0)
            # Warm start with a feasible flow leaving sub-epsilon residual
            # on the source arc.
            net.push(a, 1.0 - tiny)
            net.push(b, 1.0 - tiny)
            with metrics_session() as reg:
                value = solver(net, 0, 2)
            assert value == 1.0 - tiny, engine
            # No usable augmenting path exists, so not a single push
            # happens.
            assert reg.counter_value(f"flow.{engine}.pushes") == 0, engine
            # Conservation holds *exactly*, not merely within the default
            # 1e-9 slack.
            assert net.check_flow_conservation(0, 2, tol=0.0), engine

    def test_unreachable_sink_reads_positive_zero(self):
        """Sub-epsilon residual around the source must not count as flow.

        With the sink unreachable the max flow is exactly 0, although the
        source's arcs carry residual just above the tolerance.  The zero
        must also be +0.0: ``json.dumps`` emits -0.0 as ``-0.0``.
        """
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = FlowNetwork(3)
            net.add_edge(0, 1, 2 * RESIDUAL_EPS)
            net.add_edge(1, 0, 1.0000000000000002e-12)  # nextafter(eps, 1)
            value = solver(net, 0, 2)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, engine

    def test_backends_agree_at_exact_epsilon_capacity(self):
        """A capacity of exactly ``RESIDUAL_EPS`` is unusable for everyone.

        Historically a capacity-scaling backend's exactness pass admitted
        residuals ``>= delta`` with ``delta == 0``, so it alone pushed the
        1e-12 and returned a nonzero value while every other backend
        returned 0.0.
        """
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = FlowNetwork(2)
            net.add_edge(0, 1, RESIDUAL_EPS)
            value = solver(net, 0, 1)
            assert value == 0.0, f"{engine} admitted an epsilon-capacity arc"
            assert math.copysign(1.0, value) == 1.0, engine


class TestCutCertificate:
    """Regressions for the Lemma 8 cut-edge certificate."""

    def test_zero_capacity_crossing_arc_excluded(self):
        """Zero-capacity arcs crossing the cut are storage artifacts.

        Pre-fix, ``min_cut_from_residual`` listed every crossing forward
        arc whose residual was below tolerance — which includes capacity-0
        arcs that carry no flow and no weight.
        """
        net = FlowNetwork(3)
        real = net.add_edge(0, 1, 1.0)
        phantom = net.add_edge(0, 1, 0.0)
        net.add_edge(1, 2, 5.0)
        cut = solve_min_cut(net, 0, 2)
        assert cut.value == pytest.approx(1.0)
        assert real in cut.cut_arcs
        assert phantom not in cut.cut_arcs

    def test_every_certificate_arc_is_saturated_and_positive(self):
        """Each certificate arc individually witnesses the cut (Lemma 8)."""
        for seed in range(25):
            net = random_flow_network(20, 0.25, seed=seed)
            cut = solve_min_cut(net, 0, 19, check=False)
            for arc_id in cut.cut_arcs:
                cap = net.caps[arc_id]
                assert cap > 0.0
                assert not has_residual(cap - net.flows[arc_id])
                assert net.tail(arc_id) in cut.source_side
                assert net.heads[arc_id] not in cut.source_side
            assert cut.weight(net) == pytest.approx(cut.value,
                                                    rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 30), st.floats(0.05, 0.5), st.integers(0, 100_000))
def test_backends_agree_with_each_other(size, density, seed):
    """Property (Lemma 7): every engine matches the loop-Dinic reference."""
    values = {}
    for engine, solver in FLOW_ENGINES.items():
        net = random_flow_network(size, density, seed)
        values[engine] = solver(net, 0, size - 1)
    for engine, value in values.items():
        assert value == pytest.approx(values["dinic"], rel=1e-9,
                                      abs=1e-9), engine


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 25), st.floats(0.1, 0.5), st.integers(0, 100_000))
def test_backends_agree_with_networkx(size, density, seed):
    """Property: the production engine matches networkx's preflow-push."""
    nx = pytest.importorskip("networkx")
    net = random_flow_network(size, density, seed)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.num_nodes))
    for _arc, arc in net.forward_arcs():
        if graph.has_edge(arc.tail, arc.head):
            graph[arc.tail][arc.head]["capacity"] += arc.capacity
        else:
            graph.add_edge(arc.tail, arc.head, capacity=arc.capacity)
    expected = nx.maximum_flow_value(graph, 0, size - 1)
    ours = dinic_array_max_flow(net, 0, size - 1)
    assert ours == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 25), st.floats(0.1, 0.5), st.integers(0, 100_000))
def test_min_cut_weight_equals_max_flow(size, density, seed):
    """Property (Lemmas 7+8): extracted cut-edge weight equals flow value."""
    net = random_flow_network(size, density, seed)
    cut = solve_min_cut(net, 0, size - 1, check=False)
    assert cut.weight(net) == pytest.approx(cut.value, rel=1e-9, abs=1e-9)
