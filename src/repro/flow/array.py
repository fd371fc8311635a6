"""Array-native max-flow engine.

A loop engine spends almost all of its time iterating Python adjacency
lists arc by arc; above a few thousand vertices that per-arc interpreter
cost dominates the whole passive solve.  :func:`dinic_array_max_flow`,
the production engine, is Dinic with a *vectorized frontier BFS* over a
split residual adjacency: a static CSR of the forward arcs, built once
per solve, plus a per-phase CSR of just the reverse arcs with usable
residual, so the dead zero-capacity reverse arcs are never gathered.  A
forward arc without usable residual keeps its CSR slot but points at a
sentinel vertex ``num_nodes`` that the BFS treats as visited, so each BFS
depth is one gather per part and a mark of the heads it reaches; after a
phase just the pushed arcs are re-pointed.  A backward prune over those
gathers keeps the level-graph *survivors* (arcs on shortest source-sink
paths), and a scaled-down Python DFS walks them, merged into (tail, arc
id) order.  The survivor DFS replays the reference engine's traversal
exactly — same levels, same per-node candidate order, same
pointer/retreat semantics — and the per-push writeback applies the
identical ``+b`` / ``-b`` sequences with ``np.ufunc.at`` (unbuffered, in
index order), so values *and* final flows are bit-identical to the loop
reference :func:`~repro.flow.dinic.dinic_max_flow`.  Its last BFS, the
one that cannot reach the sink, is the residual-reachable set:
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
from typing import List, Tuple

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


def _forward_positions(
    indptr: np.ndarray, arcs: np.ndarray, tails: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Positions of the forward arcs ``targets`` in the forward CSR.

    Each tail's slice ``arcs[indptr[u]:indptr[u + 1]]`` is in ascending
    arc-id order, so one vectorized binary search over the targets' tail
    slices finds them, in ``O(log(max out-degree))`` passes over just the
    targets.  ``tails`` is the network's per-arc tail array.
    """
    owners = tails[targets]
    lo = indptr[owners]
    hi = indptr[owners + 1]
    while (lo < hi).any():
        # Where lo == hi the search has ended on the target itself, so
        # ``mid`` stays in range and leaves both bounds where they are.
        mid = (lo + hi) >> 1
        below = arcs[mid] < targets
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _refresh_heads(
    network: FlowNetwork,
    indptr: np.ndarray,
    arcs: np.ndarray,
    heads: np.ndarray,
    forward: np.ndarray,
) -> None:
    """Re-point the forward CSR positions of the arcs ``forward``.

    An arc with usable residual (``caps - flows > RESIDUAL_EPS``) gets its
    real head back; one without is parked on the sentinel vertex
    ``num_nodes``, which the BFS treats as visited.  Only pushed arcs
    change residual, so after each phase the engine refreshes just those:
    a saturated arc is parked, and one a reverse push freed is restored.
    """
    caps, flows = network.caps, network.flows
    heads[_forward_positions(indptr, arcs, network.tails, forward)] = np.where(
        caps[forward] - flows[forward] > _EPS,
        network.heads[forward],
        network.num_nodes,
    )


#: One CSR part of a residual adjacency: ``(indptr, arcs, heads)``.  A
#: position whose arc has no usable residual holds the sentinel head
#: ``num_nodes``.
Part = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Everything one BFS depth gathered, per part: ``(arcs, positions, ends)``
#: with ``arcs[positions]`` the arc ids and ``ends`` their heads
#: (sentinel included), unfiltered.
Layer = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _level_graph(
    parts: List[Part], num_nodes: int, source: int, sink: int
) -> Tuple[np.ndarray, List[Layer]]:
    """Vectorized BFS level graph over usable residual arcs, up to the sink.

    Together the ``parts`` must hold every usable residual arc, and only
    usable arcs may point at a real vertex.  Returns ``(level, layers)``.
    ``level`` has ``num_nodes + 1`` entries: ``level[v]`` is the exact
    shortest residual distance from ``source`` — the value the reference
    engine's scalar BFS computes, independent of visit order — for every
    ``v`` no deeper than the sink, and ``-1`` otherwise: the sweep stops at
    the sink's depth, since no vertex past it lies on a shortest path.
    When the sink is unreachable the sweep runs out, and
    ``level[:num_nodes] >= 0`` is the whole residual-reachable set.  The
    last entry is the sentinel's: visited, at a depth no real vertex has.

    Each depth takes one gather per part and marks the heads it reaches;
    the marked vertices not yet visited are the next frontier, in
    ascending order.  ``layers[d]`` keeps depth ``d``'s gathers as they
    are; the level-graph arcs among them are those whose head has
    ``level == d + 1`` (:func:`_sink_reaching`).
    """
    level = np.full(num_nodes + 1, -1, dtype=np.int64)
    level[num_nodes] = num_nodes
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    layers: List[Layer] = []
    depth = 0
    while level[sink] < 0:
        layer: Layer = []
        marked = np.zeros(num_nodes + 1, dtype=bool)
        for indptr, arcs, heads in parts:
            positions = _frontier_positions(indptr, frontier)
            ends = heads[positions]
            marked[ends] = True
            layer.append((arcs, positions, ends))
        marked &= level < 0
        frontier = marked.nonzero()[0]
        if frontier.size == 0:
            break
        depth += 1
        level[frontier] = depth
        layers.append(layer)
    return level, layers


def _sink_reaching(
    tails: np.ndarray, level: np.ndarray, layers: List[Layer], sink: int
) -> List[np.ndarray]:
    """Keep the level-graph arcs ``(u, v)`` with
    ``level[u] + 1 + dist_t(v) == level[sink]``.

    ``dist_t`` is the residual distance to the sink; an arc passes iff its
    head reaches the sink inside the level graph.  One backward sweep over
    the layers, deepest first, marks those heads: the sink is live, and a
    tail at depth ``d`` is live iff one of its gathered arcs enters a live
    vertex at depth ``d + 1``.  A live head at any other depth, or the
    never-live sentinel, drops the arc.  Marks made at depth ``d`` sit on
    depth-``d`` vertices, which no arc of that layer keeps, so the order of
    a layer's parts does not matter.  ``tails`` is the network's per-arc
    tail array.  Returns the surviving arc ids, one array per layer part,
    deepest layer first.
    """
    live = np.zeros(len(level), dtype=bool)
    live[sink] = True
    kept: List[np.ndarray] = []
    for depth in range(len(layers) - 1, -1, -1):
        for arcs, positions, ends in layers[depth]:
            into = live[ends].nonzero()[0]
            into = into[level[ends[into]] == depth + 1]
            hits = arcs[positions[into]]
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
        # The forward arcs never move, so their CSR is built once; an arc
        # without usable residual is parked on the sentinel head n.
        # Reverse arcs carry no capacity and most carry no flow either;
        # each phase gathers just the usable ones (_reverse_adjacency).
        f_indptr, f_arcs, f_heads = _tail_csr(
            network, np.arange(0, len(arc_heads), 2, dtype=np.int64)
        )
        dead = np.flatnonzero(~(caps[0::2] - flows[0::2] > _EPS))
        f_heads[_forward_positions(f_indptr, f_arcs, arc_tails, 2 * dead)] = n
        # Usable residual per reverse arc, by edge index.
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
        parts = [(f_indptr, f_arcs, f_heads)]
        if r_arcs.size:
            parts.append((r_indptr, r_arcs, r_heads))
        level, layers = _level_graph(parts, n, source, sink)
        if level[sink] < 0:
            break
        phases += 1

        # Survivors in (tail, arc id) order — the loop DFS candidate
        # order: sort by arc id, then group stably by tail.
        kept = _sink_reaching(arc_tails, level, layers, sink)
        kept_arcs = np.sort(np.concatenate(kept))
        kept_tails = arc_tails[kept_arcs]
        order = tail_order(kept_tails, n)
        kept_arcs = kept_arcs[order]
        if rec.enabled:
            found = sum(
                int(np.count_nonzero(level[ends] == depth + 1))
                for depth, layer in enumerate(layers)
                for _arcs, _positions, ends in layer
            )
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
        _refresh_heads(network, f_indptr, f_arcs, f_heads, forward)
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
    return float(total), level[:n] >= 0


def dinic_array_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Array-native Dinic; bit-identical flows/value to the loop reference.

    Per phase: one vectorized BFS over the split residual adjacency (the
    solve's static forward CSR, its unusable arcs parked on the sentinel
    head, plus the phase's usable reverse arcs) levels the vertices up to
    the sink's depth; one backward sweep over its gathers prunes them to
    the arcs on shortest source-sink paths (:func:`_sink_reaching`); and
    the blocking-flow DFS runs over
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
