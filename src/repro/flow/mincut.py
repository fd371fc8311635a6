"""Minimum cuts and cut-edge sets (paper Lemmas 7 and 8).

After a max-flow computation, the source side of a minimum cut is the set of
vertices reachable from the source in the residual graph; the cut-edge set
is exactly the saturated forward arcs crossing to the sink side.  Lemma 8
(and the max-flow min-cut theorem) guarantee its weight equals the max-flow
value, which :func:`solve_min_cut` asserts numerically.

:func:`solve_min_cut` takes the reachable set from array Dinic's last
BFS; :func:`min_cut_from_residual` called without one sweeps the residual
graph itself.  Either way the readout checks the set is closed under
usable residual arcs before trusting it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..obs import recorder
from .array import _frontier_positions, dinic_array_solve
from .graph import RESIDUAL_EPS, FlowNetwork

__all__ = ["MinCut", "min_cut_from_residual", "solve_min_cut"]


class MinCut:
    """A minimum source-sink cut.

    Attributes
    ----------
    value:
        Max-flow value = minimum cut capacity (Lemma 7).
    source_side:
        Vertices reachable from the source in the residual graph.
    cut_arcs:
        Forward arc ids crossing from the source side to the sink side —
        a minimum-weight cut-edge set in the sense of Lemma 8.
    """

    __slots__ = ("value", "source_side", "cut_arcs")

    def __init__(self, value: float, source_side: Set[int], cut_arcs: List[int]) -> None:
        self.value = value
        self.source_side = source_side
        self.cut_arcs = cut_arcs

    def cut_edges(self, network: FlowNetwork) -> List[Tuple[int, int, float]]:
        """Materialize the cut-edge set as ``(tail, head, capacity)`` triples."""
        arcs = self.cut_arcs
        return list(zip(network.tails[arcs].tolist(),
                        network.heads[arcs].tolist(),
                        network.caps[arcs].tolist()))

    def weight(self, network: FlowNetwork) -> float:
        """Total capacity of the cut-edge set (eq. (5) of the paper)."""
        return float(sum(network.caps[self.cut_arcs].tolist()))

    def __repr__(self) -> str:
        return (f"MinCut(value={self.value:g}, source_side={len(self.source_side)}, "
                f"cut_arcs={len(self.cut_arcs)})")


def _residual_reach(network: FlowNetwork, source: int) -> np.ndarray:
    """Boolean mask of the vertices reachable from ``source`` over usable
    residual arcs: vectorized frontier sweeps over the network's CSR."""
    indptr, csr_arcs, _csr_tails, csr_heads = network.csr()
    usable = network.caps - network.flows > RESIDUAL_EPS
    seen = np.zeros(network.num_nodes, dtype=bool)
    seen[source] = True
    slot = np.empty(network.num_nodes, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        positions = _frontier_positions(indptr, frontier)
        if positions.size == 0:
            break
        admissible = positions[usable[csr_arcs[positions]]]
        candidates = csr_heads[admissible]
        candidates = candidates[~seen[candidates]]
        if candidates.size == 0:
            break
        # Deduplicate in O(k) with a last-writer-wins scatter; the
        # frontier's order does not matter to reachability.
        order = np.arange(candidates.size)
        slot[candidates] = order
        frontier = candidates[slot[candidates] == order]
        seen[frontier] = True
    return seen


def min_cut_from_residual(network: FlowNetwork, source: int, sink: int,
                          flow_value: float,
                          reached: Optional[np.ndarray] = None) -> MinCut:
    """Extract a minimum cut from a network holding a maximum flow.

    ``reached`` is the residual-reachable vertex mask when the max-flow
    engine already holds it (array Dinic's last BFS); without it, a
    vectorized residual BFS computes it.  Either way the set then passes
    an engine-independent closure check over every arc, forward and
    reverse: it must not contain the sink, and no usable residual arc may
    leave it.  A closed set excluding the sink is an s-t
    cut whose crossing arcs are all saturated, so the flow is maximum and
    the set is the residual-reachable one; anything else raises.
    Admissibility uses the shared ``RESIDUAL_EPS`` comparison, so the
    source side is the same for every maximum flow.
    """
    if reached is None:
        reached = _residual_reach(network, source)
    if reached[sink]:
        raise AssertionError("sink reachable in residual graph: flow is not maximum")
    caps, flows = network.caps, network.flows
    heads = network.heads
    # Forward arc 2k runs tails[2k] -> heads[2k]; its reverse 2k + 1 runs
    # the other way, so one pass over the pairs sees every crossing arc.
    tail_in = reached[heads[1::2]]
    head_in = reached[heads[0::2]]
    leaving = np.flatnonzero(tail_in & ~head_in)  # forward arcs out of S
    entering = np.flatnonzero(head_in & ~tail_in)  # their reverses leave S
    forward = 2 * leaving
    backward = 2 * entering + 1
    if ((caps[forward] - flows[forward] > RESIDUAL_EPS).any()
            or (caps[backward] - flows[backward] > RESIDUAL_EPS).any()):
        raise AssertionError("sink reachable in residual graph: flow is not maximum")
    # The Lemma 8 certificate lists only *positive-capacity* forward arcs
    # crossing the cut, all saturated by the check above.  Zero-capacity
    # crossing arcs carry no weight but are not edges of the instance in
    # any meaningful sense — including them hands downstream consumers
    # (e.g. the Theorem 4 label-flip readout) arcs that exist only as
    # storage artifacts.
    cut_arcs = forward[caps[forward] > 0.0].tolist()
    source_side = set(np.flatnonzero(reached).tolist())
    return MinCut(flow_value, source_side, cut_arcs)


def solve_min_cut(network: FlowNetwork, source: int, sink: int,
                  check: bool = True) -> MinCut:
    """Run max-flow and return a minimum cut, verifying Lemma 7/8 numerically.

    Array Dinic hands its last BFS's reached set to the cut readout, which
    checks it rather than sweeping the residual graph again.
    ``check=True`` asserts that the cut-edge weight matches the flow value
    up to floating-point tolerance — a cheap certificate of optimality.
    """
    rec = recorder()
    if rec.enabled:
        rec.gauge("flow.network.nodes", network.num_nodes)
        rec.gauge("flow.network.edges", network.num_edges)
    with rec.span("max_flow"):
        value, reached = dinic_array_solve(network, source, sink)
    with rec.span("extract_cut"):
        cut = min_cut_from_residual(network, source, sink, value, reached)
    if rec.enabled:
        rec.gauge("flow.cut_edges", len(cut.cut_arcs))
        rec.gauge("flow.value", value)
    if check:
        weight = cut.weight(network)
        scale = max(1.0, abs(value))
        if abs(weight - value) > 1e-6 * scale:
            raise AssertionError(
                f"min-cut weight {weight!r} != max-flow value {value!r}"
            )
    return cut
