"""Minimum cuts and cut-edge sets (paper Lemmas 7 and 8).

After a max-flow computation, the source side of a minimum cut is the set of
vertices reachable from the source in the residual graph; the cut-edge set
is exactly the saturated forward arcs crossing to the sink side.  Lemma 8
(and the max-flow min-cut theorem) guarantee its weight equals the max-flow
value, which :func:`solve_min_cut` asserts numerically.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from ..obs import recorder
from .array import CSRFlowSnapshot, _frontier_positions
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


def min_cut_from_residual(network: FlowNetwork, source: int, sink: int,
                          flow_value: float) -> MinCut:
    """Extract a minimum cut from a network holding a maximum flow.

    Runs the residual reachability BFS as vectorized frontier sweeps over
    a CSR snapshot and extracts the certificate with one mask over the
    forward arcs.  Admissibility uses the shared ``RESIDUAL_EPS``
    comparison and BFS reachability is order-independent, so the source
    side is the same for every maximum flow.
    """
    snap = CSRFlowSnapshot(network)
    residual = snap.caps - snap.flows
    usable = residual > RESIDUAL_EPS
    seen = np.zeros(snap.num_nodes, dtype=bool)
    seen[source] = True
    slot = np.empty(snap.num_nodes, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        positions = _frontier_positions(snap.indptr, frontier)
        if positions.size == 0:
            break
        admissible = positions[usable[snap.csr_arcs[positions]]]
        candidates = snap.csr_heads[admissible]
        candidates = candidates[~seen[candidates]]
        if candidates.size == 0:
            break
        # Deduplicate in O(k) with the scatter ``_level_graph`` uses; the
        # frontier's order does not matter to reachability.
        order = np.arange(candidates.size)
        slot[candidates] = order
        frontier = candidates[slot[candidates] == order]
        seen[frontier] = True
    if seen[sink]:
        raise AssertionError("sink reachable in residual graph: flow is not maximum")
    # The Lemma 8 certificate lists only *saturated, positive-capacity*
    # forward arcs crossing the cut.  Zero-capacity crossing arcs carry no
    # weight but are not edges of the instance in any meaningful sense —
    # including them hands downstream consumers (e.g. the Theorem 4
    # label-flip readout) arcs that exist only as storage artifacts.  The
    # saturation conjunct is implied by the residual BFS above for any
    # positive-capacity crossing arc; it is asserted here so the
    # certificate is self-evidently sound.
    forward = np.arange(0, snap.num_arcs, 2, dtype=np.int64)
    tails = snap.arc_heads[forward + 1]  # reverse arc's head == forward tail
    heads = snap.arc_heads[forward]
    crossing = (
        seen[tails]
        & ~seen[heads]
        & (snap.caps[forward] > 0.0)
        & ~usable[forward]
    )
    cut_arcs = forward[crossing].tolist()
    source_side = set(np.flatnonzero(seen).tolist())
    return MinCut(flow_value, source_side, cut_arcs)


def solve_min_cut(network: FlowNetwork, source: int, sink: int,
                  backend: str = "dinic", check: bool = True) -> MinCut:
    """Run max-flow and return a minimum cut, verifying Lemma 7/8 numerically.

    ``check=True`` asserts that the cut-edge weight matches the flow value up
    to floating-point tolerance — a cheap certificate of optimality.
    """
    from . import solve_max_flow  # local import to avoid a cycle

    rec = recorder()
    if rec.enabled:
        rec.gauge("flow.network.nodes", network.num_nodes)
        rec.gauge("flow.network.edges", network.num_edges)
    with rec.span("max_flow"):
        value = solve_max_flow(network, source, sink, backend=backend)
    with rec.span("extract_cut"):
        cut = min_cut_from_residual(network, source, sink, value)
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
