"""Array-native max-flow engine.

A loop engine spends almost all of its time iterating Python adjacency
lists arc by arc; above a few thousand vertices that per-arc interpreter
cost dominates the whole passive solve.  :func:`dinic_array_max_flow`,
the production engine, is Dinic with a *vectorized frontier BFS* over a
split residual adjacency: a static CSR of the forward arcs, built once
per solve, plus a per-phase CSR of just the reverse arcs with usable
residual, so the dead zero-capacity reverse arcs are never gathered.  A
scaled-down Python DFS then walks only the level-graph *survivors* (arcs
on shortest source-sink paths), merged into (tail, arc id) order.  The
survivor DFS replays the reference engine's traversal exactly — same
levels, same per-node candidate order, same pointer/retreat semantics —
and the per-push writeback applies the identical ``+b`` / ``-b``
sequences with ``np.ufunc.at`` (unbuffered, in index order), so values
*and* final flows are bit-identical to the loop reference
:func:`~repro.flow.dinic.dinic_max_flow`.  Its last BFS, the one that
cannot reach the sink, is the residual-reachable set:
:func:`dinic_array_solve` returns it for the cut readout.

The engine shares the epsilon-boundary contract of
:data:`~repro.flow.graph.RESIDUAL_EPS` with the reference and leaves its
flow in the mutable network, so
:func:`~repro.flow.mincut.min_cut_from_residual` reads the residual graph
of the maximum flow.  It runs at every network size; see
``docs/algorithms.md`` for the small-network cost.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np

from ..obs import recorder
from .graph import RESIDUAL_EPS, FlowNetwork, tail_order

__all__ = ["dinic_array_max_flow", "dinic_array_solve"]

_EPS = RESIDUAL_EPS


def _frontier_positions(
    indptr: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """CSR positions of every arc leaving a frontier vertex (ragged gather).

    ``frontier`` must be non-empty.  Array methods rather than the ``np.*``
    wrappers: this runs once per BFS level and CSR part, so on small
    networks the wrappers' dispatch is a visible share of a solve.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    inclusive = counts.cumsum()
    total = int(inclusive[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = (starts - (inclusive - counts)).repeat(counts)
    return np.arange(total, dtype=np.int64) + offsets


def _tail_csr(
    network: FlowNetwork, arcs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of the given arcs (ascending ids), grouped by tail.

    Returns ``(indptr, arcs, heads)``: ``arcs[indptr[u]:indptr[u + 1]]``
    are the given arcs leaving ``u``, still in ascending arc-id order, and
    ``heads`` mirrors them per position.
    """
    n = network.num_nodes
    tails = network.tails[arcs]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    arcs = arcs[tail_order(tails, n)]
    return indptr, arcs, network.heads[arcs]


def _reverse_adjacency(
    network: FlowNetwork, pairs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of one phase's usable reverse arcs, grouped by tail.

    ``pairs`` are the ascending edge indices ``k`` whose reverse arc
    ``2k + 1`` has usable residual (``caps - flows > RESIDUAL_EPS``).  On
    a cold network there are none; after the passive solver's greedy
    preflow they are the few edges that carry flow.
    """
    return _tail_csr(network, 2 * pairs + 1)


#: One CSR part of a residual adjacency: ``(indptr, arcs, heads, usable)``.
#: ``usable`` masks the positions with usable residual, or is ``None`` when
#: every arc of the part is usable.
Part = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]

#: The level-graph arcs of one depth, per part: ``(arcs, positions, heads)``
#: with ``arcs[positions]`` the arc ids and ``heads`` their heads.
Layer = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _level_graph(
    parts: List[Part], num_nodes: int, source: int, sink: int
) -> Tuple[np.ndarray, List[Layer]]:
    """Vectorized BFS level graph over usable residual arcs, up to the sink.

    Together the ``parts`` must hold every usable residual arc.  Returns
    ``(level, layers)``.  ``level[v]`` is the exact shortest residual
    distance from ``source`` — the value the reference engine's scalar BFS
    computes, independent of visit order — for every ``v`` no deeper than
    the sink, and ``-1`` otherwise: the sweep stops at the sink's depth,
    since no vertex past it lies on a shortest path.  When the sink is
    unreachable the sweep runs out, and ``level >= 0`` is the whole
    residual-reachable set.  ``layers[d]`` holds the level-graph arcs
    leaving depth ``d`` (usable residual, head at depth ``d + 1``) as
    positions into each part, in no particular order.
    """
    level = np.full(num_nodes, -1, dtype=np.int64)
    level[source] = 0
    slot = np.empty(num_nodes, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    layers: List[Layer] = []
    depth = 0
    while level[sink] < 0:
        # The usable arcs into unvisited vertices all land one level
        # deeper, so they are exactly this depth's layer.
        layer: Layer = []
        for indptr, arcs, heads, usable in parts:
            positions = _frontier_positions(indptr, frontier)
            if usable is not None:
                positions = positions[usable[positions]]
            ends = heads[positions]
            into = level[ends] < 0
            layer.append((arcs, positions[into], ends[into]))
        fresh = np.concatenate([ends for _arcs, _positions, ends in layer])
        if fresh.size == 0:
            break
        # Deduplicate in O(k) instead of np.unique's sort: whichever
        # occurrence of a vertex the scatter keeps, exactly one matches.
        order = np.arange(fresh.size)
        slot[fresh] = order
        frontier = fresh[slot[fresh] == order]
        depth += 1
        level[frontier] = depth
        layers.append(layer)
    return level, layers


def _sink_reaching(
    tails: np.ndarray, layers: List[Layer], num_nodes: int, sink: int
) -> List[np.ndarray]:
    """Keep the level-graph arcs ``(u, v)`` with
    ``level[u] + 1 + dist_t(v) == level[sink]``.

    ``dist_t`` is the residual distance to the sink; an arc passes iff its
    head reaches the sink inside the level graph.  One backward sweep over
    the layers, deepest first, marks those heads: the sink is live, and a
    tail at depth ``d`` is live iff one of its arcs enters a live vertex at
    depth ``d + 1``.  The parts of one layer read only marks made by
    deeper layers, so their order does not matter.  ``tails`` is the
    network's per-arc tail array.  Returns the surviving arc ids, one
    array per layer part, deepest layer first.
    """
    live = np.zeros(num_nodes, dtype=bool)
    live[sink] = True
    kept: List[np.ndarray] = []
    for layer in reversed(layers):
        for arcs, positions, heads in layer:
            hits = arcs[positions[live[heads]]]
            live[tails[hits]] = True
            kept.append(hits)
    return kept


def dinic_array_solve(
    network: FlowNetwork, source: int, sink: int
) -> Tuple[float, np.ndarray]:
    """Array Dinic returning ``(value, reached)``.

    ``reached`` is the boolean vertex mask of the final BFS, the one that
    finds the sink unreachable: the residual-reachable set of the maximum
    flow, which :func:`~repro.flow.mincut.solve_min_cut` hands to the cut
    readout instead of sweeping the residual graph a second time.  See
    :func:`dinic_array_max_flow` for the engine.
    """
    network._check_node(source)
    network._check_node(sink)
    if source == sink:
        raise ValueError("source and sink must differ")

    rec = recorder()
    n = network.num_nodes
    caps = network.caps
    flows = network.flows
    arc_heads = network.heads
    arc_tails = network.tails
    with rec.span("csr_snapshot"):
        # The forward arcs never change, so their CSR is built once.
        # Reverse arcs carry no capacity and most carry no flow either;
        # each phase gathers just the usable ones (_reverse_adjacency).
        f_indptr, f_arcs, f_heads = _tail_csr(
            network, np.arange(0, len(arc_heads), 2, dtype=np.int64)
        )
        # Usable residual per forward position and per reverse arc (by
        # edge index).  Only pushed arcs change residual, so after each
        # phase the masks are re-evaluated just there.
        f_slot = np.empty(len(f_arcs), dtype=np.int64)
        f_slot[f_arcs >> 1] = np.arange(len(f_arcs), dtype=np.int64)
        f_usable = (caps[0::2] - flows[0::2] > _EPS)[f_arcs >> 1]
        r_usable = caps[1::2] - flows[1::2] > _EPS

    # Count the flow the network already carries: 0.0 on a cold network.
    total = network.flow_value(source)
    phases = 0
    paths = 0
    pushes = 0
    survivors = 0
    pruned = 0
    reverse_arcs = 0

    while True:
        r_indptr, r_arcs, r_heads = _reverse_adjacency(
            network, np.flatnonzero(r_usable)
        )
        reverse_arcs += len(r_arcs)
        parts = [(f_indptr, f_arcs, f_heads, f_usable)]
        if r_arcs.size:
            parts.append((r_indptr, r_arcs, r_heads, None))
        level, layers = _level_graph(parts, n, source, sink)
        if level[sink] < 0:
            break
        phases += 1

        # Survivors in (tail, arc id) order — the loop DFS candidate
        # order: sort by arc id, then group stably by tail.
        kept = _sink_reaching(arc_tails, layers, n, sink)
        kept_arcs = np.sort(np.concatenate(kept))
        kept_tails = arc_tails[kept_arcs]
        order = tail_order(kept_tails, n)
        kept_arcs = kept_arcs[order]
        if rec.enabled:
            found = sum(len(part[1]) for layer in layers for part in layer)
            survivors += found
            pruned += found - len(kept_arcs)
        sub_bounds = np.searchsorted(
            kept_tails[order], np.arange(n + 1, dtype=np.int64)
        ).tolist()
        # Survivor mirrors are stdlib arrays: their items read and write as
        # plain Python ints/floats, without the ndarray scalar boxing the
        # DFS would pay on every arc touch, at 8 bytes per entry (Python
        # lists would cost ~4x the memory on large networks).  The doubles
        # are IEEE, identical to the loop reference's floats, so per-arc
        # flows stay bit-identical.
        sub_heads = array("q", arc_heads[kept_arcs].tobytes())
        sub_caps = array("d", caps[kept_arcs].tobytes())
        sub_flow = array("d", flows[kept_arcs].tobytes())
        ptr: List[int] = sub_bounds[:n]
        lv: List[int] = level.tolist()

        push_seq: List[int] = []  # survivor indices, in push order
        amount_seq: List[float] = []

        while True:
            # Walk a path of admissible survivor arcs from source to sink,
            # tracking the vertex stack so retreats need no tail lookup.
            path: List[int] = []
            nodes: List[int] = [source]
            u = source
            while u != sink:
                advanced = False
                bound = sub_bounds[u + 1]
                while ptr[u] < bound:
                    p = ptr[u]
                    v = sub_heads[p]
                    if sub_caps[p] - sub_flow[p] > _EPS and lv[v] == lv[u] + 1:
                        path.append(p)
                        nodes.append(v)
                        u = v
                        advanced = True
                        break
                    ptr[u] += 1
                if not advanced:
                    if u == source:
                        break
                    # Retreat: prune u from the level graph for this phase.
                    lv[u] = -1
                    path.pop()
                    nodes.pop()
                    u = nodes[-1]
                    ptr[u] += 1
            if u != sink:
                break  # no more augmenting paths in this phase
            bottleneck = min(sub_caps[p] - sub_flow[p] for p in path)
            for p in path:
                sub_flow[p] += bottleneck
                push_seq.append(p)
                amount_seq.append(bottleneck)
            total += bottleneck
            paths += 1
            pushes += len(path)

        if not push_seq:
            break  # defensive: a leveled sink guarantees >= 1 path
        # Replay the phase's pushes on the network's flows in order.
        # ufunc.at is unbuffered and applies repeated indices in sequence,
        # so each arc receives the identical rounding sequence the loop
        # reference's per-push updates produce.
        arcs_seq = kept_arcs[np.asarray(push_seq, dtype=np.int64)]
        amounts = np.asarray(amount_seq, dtype=np.float64)
        np.add.at(flows, arcs_seq, amounts)
        np.subtract.at(flows, arcs_seq ^ 1, amounts)
        edges = arcs_seq >> 1
        forward = 2 * edges
        f_usable[f_slot[edges]] = caps[forward] - flows[forward] > _EPS
        r_usable[edges] = caps[forward + 1] - flows[forward + 1] > _EPS

    if rec.enabled:
        rec.incr("flow.dinic_array.calls")
        rec.incr("flow.dinic_array.phases", phases)
        rec.incr("flow.dinic_array.augmenting_paths", paths)
        rec.incr("flow.dinic_array.pushes", pushes)
        rec.incr("flow.dinic_array.survivor_arcs", survivors)
        rec.incr("flow.dinic_array.pruned_arcs", pruned)
        rec.incr("flow.dinic_array.reverse_arcs", reverse_arcs)
        rec.observe("flow.dinic_array.paths_per_call", paths)
    return float(total), level >= 0


def dinic_array_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Array-native Dinic; bit-identical flows/value to the loop reference.

    Per phase: one vectorized BFS over the split residual adjacency (the
    solve's static forward CSR, filtered to usable arcs, plus the phase's
    usable reverse arcs) builds the level graph up to the sink's depth;
    one backward sweep prunes it to the arcs on shortest source-sink paths
    (:func:`_sink_reaching`); and the blocking-flow DFS runs over
    compacted mirrors of just those *survivors*, merged into (tail, arc
    id) order.  Within a phase no reverse arc of a level-graph arc can
    become admissible (its level points backwards), so the level graph
    holds every arc the loop DFS could use.  An arc the prune drops leads
    into a subtree that cannot reach the sink: the loop DFS enters it,
    retreats, pushes nothing and marks only vertices that are dead
    anyway.  The augmenting sequence, and hence every float operation, is
    identical.

    On a network that already carries flow, Dinic augments from it and
    reports the total: the flow it started from plus its augmentations.
    """
    return dinic_array_solve(network, source, sink)[0]
