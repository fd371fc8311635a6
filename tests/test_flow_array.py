"""Tests for the array-native flow engines (repro.flow.array).

Covers the CSR snapshot contract, bit-identity of ``dinic_array`` with
the loop-Dinic reference, the solver-equivalence suite of both production
engines against that reference (random and epsilon-boundary instances
plus the replayable corpus), and the cut readout — from its own sweep or
from array Dinic's last BFS — against a scalar reference BFS.
"""

from __future__ import annotations

from collections import deque
from typing import Set

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.passive import (
    SINK,
    SOURCE,
    greedy_preflow,
    passive_network,
    solve_passive,
)
from repro.datasets import planted_monotone
from repro.experiments.flow_backends import random_flow_network
from repro.flow import (
    FLOW_BACKENDS,
    RESIDUAL_EPS,
    CSRFlowSnapshot,
    FlowNetwork,
    MinCut,
    dinic_array_max_flow,
    dinic_max_flow,
    has_residual,
    min_cut_from_residual,
    push_relabel_array_max_flow,
    solve_max_flow,
    solve_min_cut,
)
from repro.flow.array import dinic_array_solve
from repro.fuzz.corpus import iter_corpus, load_reproducer
from repro.obs import metrics_session
from tests.conftest import FLOW_ENGINES
from tests.strategies import (
    boundary_flow_networks,
    flow_networks,
    multigraph_flow_networks,
    network_build_scripts,
    pruning_flow_networks,
)

CORPUS_DIR = "tests/corpus"


def _clone(network: FlowNetwork) -> FlowNetwork:
    """Fresh zero-flow network with identical topology and capacities."""
    other = FlowNetwork(network.num_nodes)
    for _arc_id, arc in network.forward_arcs():
        other.add_edge(arc.tail, arc.head, arc.capacity)
    return other


def _scalar_min_cut(network: FlowNetwork, source: int, sink: int,
                    flow_value: float) -> MinCut:
    """Reference cut extraction: scalar residual BFS over adjacency lists."""
    adjacency = network.adjacency
    reachable: Set[int] = {source}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        for arc in adjacency[u]:
            v = network.heads[arc]
            if v not in reachable and has_residual(network.residual(arc)):
                reachable.add(v)
                queue.append(v)
    if sink in reachable:
        raise AssertionError("sink reachable in residual graph: flow is not maximum")
    cut_arcs = [
        arc_id
        for arc_id, arc in network.forward_arcs()
        if arc.tail in reachable and arc.head not in reachable
        and arc.capacity > 0.0
        and not has_residual(arc.capacity - arc.flow)
    ]
    return MinCut(flow_value, reachable, cut_arcs)


class TestCSRFlowSnapshot:
    def test_indptr_matches_adjacency(self):
        net = random_flow_network(12, 0.3, seed=0)
        snap = CSRFlowSnapshot(net)
        assert snap.indptr[0] == 0
        assert snap.indptr[-1] == snap.num_arcs == len(net.heads)
        for u in range(net.num_nodes):
            sl = snap.csr_arcs[snap.indptr[u]:snap.indptr[u + 1]]
            assert sl.tolist() == net.adjacency[u]

    def test_position_mirrors_consistent(self):
        net = random_flow_network(10, 0.4, seed=1)
        snap = CSRFlowSnapshot(net)
        assert snap.csr_heads.tolist() == [net.heads[a] for a in snap.csr_arcs]
        assert snap.csr_tails.tolist() == [net.tail(a) for a in snap.csr_arcs]

    def test_reverse_arc_pairing_preserved(self):
        net = random_flow_network(10, 0.4, seed=2)
        snap = CSRFlowSnapshot(net)
        arcs = np.arange(snap.num_arcs, dtype=np.int64)
        # arc ^ 1 still addresses the paired reverse arc on the arrays:
        # each pair's heads are swapped tails and capacities of reverse
        # arcs are zero.
        assert (snap.caps[arcs[1::2]] == 0.0).all()
        for a in range(0, snap.num_arcs, 2):
            assert snap.arc_heads[a ^ 1] == net.tail(a)

    @settings(max_examples=60, deadline=None)
    @given(network_build_scripts())
    def test_csr_matches_sequential_reference(self, steps):
        """Any mix of add_node / add_edge / add_edges derives the CSR a
        per-vertex list of sequential appends would hold."""
        net = FlowNetwork(steps[0][1])
        adjacency = [[] for _ in range(steps[0][1])]
        heads, tails, caps = [], [], []

        def append(u, v, cap):
            adjacency[u].append(len(heads))
            adjacency[v].append(len(heads) + 1)
            heads.extend([v, u])
            tails.extend([u, v])
            caps.extend([float(cap), 0.0])

        for step in steps[1:]:
            if step[0] == "node":
                assert net.add_node() == len(adjacency)
                adjacency.append([])
            elif step[0] == "edge":
                assert net.add_edge(*step[1:]) == len(heads)
                append(*step[1:])
            elif step[0] == "edges":
                ids = net.add_edges(np.asarray(step[1], dtype=np.int64),
                                    np.asarray(step[2], dtype=np.int64),
                                    np.asarray(step[3], dtype=float))
                assert ids.tolist() == list(
                    range(len(heads), len(heads) + 2 * len(step[1]), 2))
                for edge in zip(*step[1:]):
                    append(*edge)
            else:
                net.csr()  # flush and memoize mid-build
        expected = [arc for arcs in adjacency for arc in arcs]
        snap = CSRFlowSnapshot(net)
        assert snap.csr_arcs.tolist() == expected
        assert snap.indptr.tolist() == np.cumsum(
            [0] + [len(arcs) for arcs in adjacency]).tolist()
        assert snap.csr_tails.tolist() == [tails[a] for a in expected]
        assert snap.csr_heads.tolist() == [heads[a] for a in expected]
        assert net.adjacency == adjacency
        assert net.heads.tolist() == heads
        assert net.tails.tolist() == tails
        assert net.caps.tolist() == caps
        assert net.num_edges == len(heads) // 2

    def test_empty_network(self):
        net = FlowNetwork(3)
        snap = CSRFlowSnapshot(net)
        assert snap.num_arcs == 0
        assert snap.indptr.tolist() == [0, 0, 0, 0]
        assert dinic_array_max_flow(net, 0, 2) == 0.0


class TestDinicArrayBitIdentity:
    """dinic_array replays the loop engine's float operations exactly."""

    @settings(max_examples=60, deadline=None)
    @given(flow_networks())
    def test_value_and_flows_bit_identical(self, case):
        network, source, sink = case
        loop_net, array_net = _clone(network), _clone(network)
        loop_value = dinic_max_flow(loop_net, source, sink)
        array_value = dinic_array_max_flow(array_net, source, sink)
        assert array_value == loop_value  # exact, no tolerance
        assert array_net.flows.tolist() == loop_net.flows.tolist()

    @settings(max_examples=25, deadline=None)
    @given(boundary_flow_networks())
    def test_bit_identical_at_epsilon_boundary(self, case):
        network, source, sink = case
        loop_net, array_net = _clone(network), _clone(network)
        assert dinic_array_max_flow(array_net, source, sink) == \
            dinic_max_flow(loop_net, source, sink)
        assert array_net.flows.tolist() == loop_net.flows.tolist()

    @settings(max_examples=80, deadline=None)
    @given(pruning_flow_networks())
    def test_bit_identical_where_the_prune_drops_arcs(self, case):
        """Dead ends, vertices past the sink's level and epsilon-boundary
        capacities: the shortest-path prune changes no push."""
        network, source, sink = case
        loop_net, array_net = _clone(network), _clone(network)
        with metrics_session() as reg:
            loop_value = dinic_max_flow(loop_net, source, sink)
            array_value = dinic_array_max_flow(array_net, source, sink)
        assert np.float64(array_value).tobytes() == \
            np.float64(loop_value).tobytes()
        assert array_net.flows.tobytes() == loop_net.flows.tobytes()
        for counter in ("phases", "augmenting_paths", "pushes"):
            assert reg.counter_value(f"flow.dinic_array.{counter}") == \
                reg.counter_value(f"flow.dinic.{counter}"), counter

    def test_prune_counters(self):
        """A dead-end branch and a detour are pruned from the first phase."""
        net = FlowNetwork(7)
        net.add_edge(0, 1, 1.0)  # 0 -> 1 -> 6: the shortest path
        net.add_edge(1, 6, 1.0)
        net.add_edge(0, 2, 1.0)  # 2 -> 3: a dead end
        net.add_edge(2, 3, 1.0)
        net.add_edge(0, 4, 1.0)  # 0 -> 4 -> 5 -> 6: a longer detour
        net.add_edge(4, 5, 1.0)
        net.add_edge(5, 6, 1.0)
        loop_net = _clone(net)
        with metrics_session() as reg:
            value = dinic_array_max_flow(net, 0, 6)
        assert value == dinic_max_flow(loop_net, 0, 6) == 2.0
        assert net.flows.tolist() == loop_net.flows.tolist()
        counters = reg.counters
        assert counters["flow.dinic_array.phases"].value == 2
        # Phase 1 (sink at depth 2): the level graph is 0->1, 0->2, 0->4,
        # 1->6, 2->3, 4->5; only 0->1 and 1->6 reach the sink, and the BFS
        # never looks past depth 2 (5->6).  Phase 2 (depth 3): 0->2, 0->4,
        # 2->3, 4->5, 5->6, of which 0->2 and 2->3 are pruned.
        assert counters["flow.dinic_array.survivor_arcs"].value == 6 + 5
        assert counters["flow.dinic_array.pruned_arcs"].value == 4 + 2

    def test_bit_identical_on_larger_random_networks(self):
        for seed in range(20):
            net = random_flow_network(60, 0.15, seed=seed)
            loop_net, array_net = _clone(net), _clone(net)
            assert dinic_array_max_flow(array_net, 0, 59) == \
                dinic_max_flow(loop_net, 0, 59)
            assert array_net.flows.tolist() == loop_net.flows.tolist()


class TestPushRelabelArray:
    def test_agrees_and_is_feasible(self):
        for seed in range(15):
            net = random_flow_network(40, 0.2, seed=seed)
            expected = dinic_max_flow(_clone(net), 0, 39)
            value = push_relabel_array_max_flow(net, 0, 39)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert net.check_flow_conservation(0, 39)

    def test_global_relabel_counter_recorded(self):
        net = random_flow_network(30, 0.2, seed=7)
        with metrics_session() as reg:
            push_relabel_array_max_flow(net, 0, 29)
        counters = reg.counters
        assert counters["flow.push_relabel_array.calls"].value == 1
        # The initial sweep after source saturation always runs.
        assert counters["flow.push_relabel_array.global_relabels"].value >= 1
        assert counters["flow.array.snapshots"].value == 1

    def test_warm_start_sub_epsilon_residual_skipped(self):
        """The sub-epsilon push guard also holds behind the backend name.

        Same warm start as the engine-level regression in test_flow, run
        through ``solve_max_flow(backend="push_relabel")``.
        """
        tiny = RESIDUAL_EPS / 2
        net = FlowNetwork(3)
        a = net.add_edge(0, 1, 1.0)
        b = net.add_edge(1, 2, 1.0)
        net.push(a, 1.0 - tiny)
        net.push(b, 1.0 - tiny)
        with metrics_session() as reg:
            value = solve_max_flow(net, 0, 2, backend="push_relabel")
        assert value == 1.0 - tiny
        assert reg.counters["flow.push_relabel_array.pushes"].value == 0
        assert net.check_flow_conservation(0, 2, tol=0.0)

class TestSolverEquivalence:
    """Both production engines agree with the loop-Dinic reference on
    value, feasibility and cuts."""

    @settings(max_examples=40, deadline=None)
    @given(flow_networks())
    def test_all_backends_equivalent(self, case):
        network, source, sink = case
        values = {}
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = _clone(network)
            values[engine] = solver(net, source, sink)
            assert net.check_flow_conservation(source, sink)
        reference = values["dinic"]
        for engine, value in values.items():
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9), \
                engine

    # Augmenting-path engines move per-path bottlenecks, so their values
    # are sums of identical > RESIDUAL_EPS augmentations and must agree
    # below the tolerance itself.  Push-relabel aggregates excess per node
    # and may legitimately deliver up to ~RESIDUAL_EPS more per saturating
    # arc than a bottleneck-at-a-time search admits, so its slack scales
    # with the instance.
    PATH_ENGINES = ("dinic", "dinic_array")

    @settings(max_examples=40, deadline=None)
    @given(boundary_flow_networks())
    def test_boundary_capacities_differential(self, case):
        """Epsilon-boundary differential.

        The path-engine tolerance is *below* ``RESIDUAL_EPS``: the
        historical bug was a disagreement of exactly 1e-12, invisible to
        the usual 1e-9 slack.
        """
        network, source, sink = case
        values = {}
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = _clone(network)
            values[engine] = solver(net, source, sink)
            assert net.check_flow_conservation(source, sink)
        reference = values["dinic"]
        for engine in self.PATH_ENGINES:
            assert values[engine] == pytest.approx(
                reference, rel=1e-9, abs=RESIDUAL_EPS / 2), engine
        loose = (network.num_edges + 2) * RESIDUAL_EPS
        for engine, value in values.items():
            assert value == pytest.approx(reference, rel=1e-9,
                                          abs=loose), engine

    @settings(max_examples=25, deadline=None)
    @given(flow_networks())
    def test_cut_certificates_equivalent(self, case):
        network, source, sink = case
        cuts = {}
        for engine, solver in sorted(FLOW_ENGINES.items()):
            net = _clone(network)
            value = solver(net, source, sink)
            cut = min_cut_from_residual(net, source, sink, value)
            cuts[engine] = cut
            assert cut.weight(net) == pytest.approx(cut.value,
                                                    rel=1e-9, abs=1e-9)
            for arc_id in cut.cut_arcs:
                assert net.caps[arc_id] > 0.0
        reference = cuts["dinic"]
        for engine, cut in cuts.items():
            # The residual-reachable source side is the same for every
            # maximum flow, so the certificates coincide arc for arc.
            assert cut.source_side == reference.source_side, engine
            assert cut.cut_arcs == reference.cut_arcs, engine

    def test_corpus_replay_machine_precision(self):
        """Every corpus entry solves identically under both backends.

        Values match within float tolerance and the assignments are
        identical.
        """
        paths = list(iter_corpus(CORPUS_DIR))
        assert paths, "replay corpus is empty"
        solved_one = False
        for path in paths:
            points, _meta = load_reproducer(path)
            results = {}
            rejected = {}
            for backend in sorted(FLOW_BACKENDS):
                try:
                    results[backend] = solve_passive(points, backend=backend)
                except ValueError as exc:
                    rejected[backend] = str(exc)
            if rejected:
                # Input validation happens before any backend runs, so a
                # rejected instance must be rejected for every backend.
                assert not results, (path.name, sorted(results))
                continue
            solved_one = True
            reference = results["dinic"]
            for backend, result in results.items():
                assert result.optimal_error == pytest.approx(
                    reference.optimal_error, rel=1e-9, abs=1e-12), \
                    (path.name, backend)
                assert np.array_equal(result.assignment,
                                      reference.assignment), \
                    (path.name, backend)
        assert solved_one, "every corpus entry was rejected"


class TestArrayMinCutExtraction:
    """The CSR min_cut_from_residual matches the scalar reference BFS."""

    def test_identical_to_scalar_path(self):
        for seed in range(10):
            net = random_flow_network(25, 0.25, seed=seed)
            value = dinic_max_flow(net, 0, 24)
            scalar = _scalar_min_cut(net, 0, 24, value)
            fast = min_cut_from_residual(net, 0, 24, value)
            assert fast.source_side == scalar.source_side
            assert fast.cut_arcs == scalar.cut_arcs
            assert fast.value == scalar.value

    def test_rejects_non_max_flow(self):
        net = random_flow_network(10, 0.5, seed=3)  # zero flow
        with pytest.raises(AssertionError):
            min_cut_from_residual(net, 0, 9, 0.0)


class TestSplitAdjacency:
    """Array Dinic over the split residual adjacency: per-arc flows equal
    loop Dinic's, and its last BFS is the residual-reachable set."""

    @staticmethod
    def _assert_parity(network: FlowNetwork, source: int, sink: int) -> None:
        loop_net, array_net = _clone(network), _clone(network)
        loop_value = dinic_max_flow(loop_net, source, sink)
        cut = solve_min_cut(array_net, source, sink)
        assert cut.value == loop_value  # exact, no tolerance
        assert array_net.flows.tobytes() == loop_net.flows.tobytes()
        reference = _scalar_min_cut(loop_net, source, sink, loop_value)
        assert cut.source_side == reference.source_side
        assert cut.cut_arcs == reference.cut_arcs

    @settings(max_examples=80, deadline=None)
    @given(multigraph_flow_networks())
    def test_parity_with_antiparallel_parallel_zero_and_self_loops(self, case):
        self._assert_parity(*case)

    def test_parity_beyond_16_bit_vertex_ids(self):
        """More than 65,536 vertices: tails group by an int64 sort, not
        the uint16 radix sort, and ids wrap if the key is narrowed."""
        gen = np.random.default_rng(5)
        n = 70_000
        # A sparse random core among ids on both sides of 65,536.
        core = np.unique(np.concatenate((gen.integers(1, 65_536, 60),
                                         gen.integers(65_536, n - 1, 60))))
        net = FlowNetwork(n)
        for v in core[:40]:
            net.add_edge(0, int(v), float(gen.random() * 5))
        for u in core[-40:]:
            net.add_edge(int(u), n - 1, float(gen.random() * 5))
        for _ in range(600):
            u, v = gen.choice(core, 2, replace=False)
            net.add_edge(int(u), int(v), float(gen.random() * 5))
        self._assert_parity(net, 0, n - 1)

    @pytest.mark.parametrize("size,density,seed", [
        (200, 0.08, 7), (600, 0.08, 7), (300, 0.08, 8), (400, 0.08, 9),
        (512, 0.05, 13), (1024, 0.05, 13)])
    def test_parity_on_benchmark_networks(self, size, density, seed):
        """The networks ``benchmarks/test_bench_flow.py`` times."""
        self._assert_parity(random_flow_network(size, density, seed),
                            0, size - 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_source_side_matches_reference_bfs(self, seed):
        """After the greedy preflow the reverse adjacency starts full; the
        source side read off the last BFS is the reference BFS's."""
        points = planted_monotone(300, 3, noise=0.2, weights="random",
                                  rng=np.random.default_rng([seed, 1]))
        passive = passive_network(points)
        greedy_preflow(passive)
        net = passive.network
        cut = solve_min_cut(net, SOURCE, SINK)
        reference = _scalar_min_cut(net, SOURCE, SINK, cut.value)
        assert cut.source_side == reference.source_side
        assert cut.cut_arcs == reference.cut_arcs

    def test_last_bfs_is_the_residual_reachable_set(self):
        net = random_flow_network(40, 0.2, seed=4)
        value, reached = dinic_array_solve(net, 0, 39)
        reference = _scalar_min_cut(net, 0, 39, value)
        assert set(np.flatnonzero(reached).tolist()) == reference.source_side

    def test_readout_rejects_a_set_missing_a_usable_arc_head(self):
        """The closure check does not trust the engine: dropping any vertex
        that a usable arc joins to the reached set is caught."""
        net = random_flow_network(30, 0.25, seed=2)
        value, reached = dinic_array_solve(net, 0, 29)
        assert min_cut_from_residual(net, 0, 29, value, reached).value == value
        residual = net.caps - net.flows
        usable = residual > RESIDUAL_EPS
        inner = reached[net.tails] & reached[net.heads] & usable
        joined = {int(v) for v in net.heads[inner]} - {0}
        assert joined
        for vertex in sorted(joined):
            partial = reached.copy()
            partial[vertex] = False
            with pytest.raises(AssertionError, match="flow is not maximum"):
                min_cut_from_residual(net, 0, 29, value, partial)

    def test_readout_rejects_a_set_holding_the_sink(self):
        net = random_flow_network(12, 0.4, seed=3)
        value, reached = dinic_array_solve(net, 0, 11)
        reached[11] = True
        with pytest.raises(AssertionError, match="flow is not maximum"):
            min_cut_from_residual(net, 0, 11, value, reached)
