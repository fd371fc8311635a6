"""Dinic's max-flow algorithm (blocking flows over BFS level graphs).

Worst case ``O(V^2 E)``, but on the shallow three-layer networks produced by
the passive reduction (source -> label-0 -> label-1 -> sink) it behaves like
bipartite matching, ``O(E sqrt(V))``.  The blocking-flow DFS is iterative to
avoid recursion limits.

This plain-loop engine is the *reference*, not a production engine: the
differential tests and the fuzzer require the production engine
(:func:`~repro.flow.array.dinic_array_max_flow`) to reproduce its values
and per-arc flows bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import List

from ..obs import recorder
from .graph import RESIDUAL_EPS, FlowNetwork

__all__ = ["dinic_max_flow"]

_EPS = RESIDUAL_EPS


def dinic_max_flow(network: FlowNetwork, source: int, sink: int) -> float:
    """Compute a maximum flow from ``source`` to ``sink`` in place.

    Augments from whatever flow the network carries and returns the
    value of the final flow, that starting flow included.
    """
    network._check_node(source)
    network._check_node(sink)
    if source == sink:
        raise ValueError("source and sink must differ")

    # Python-list mirrors of the arc arrays, taken once; the flows are
    # written back once at the end.
    n = network.num_nodes
    heads, caps, flows = network.list_mirrors()
    adjacency = network.adjacency

    # Count the flow the network already carries: 0.0 on a cold network.
    total = network.flow_value(source)
    level: List[int] = [-1] * n
    phases = 0
    paths = 0
    pushes = 0

    while True:
        # --- BFS: build the level graph over residual arcs.
        for i in range(n):
            level[i] = -1
        level[source] = 0
        queue: deque = deque([source])
        while queue:
            u = queue.popleft()
            for arc in adjacency[u]:
                v = heads[arc]
                if level[v] == -1 and caps[arc] - flows[arc] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] == -1:
            break
        phases += 1

        # --- Blocking flow: iterative DFS with per-node arc pointers.
        pointer = [0] * n
        while True:
            # Walk a path of admissible arcs from source to sink.
            path: List[int] = []  # arc ids along the current path
            u = source
            while u != sink:
                advanced = False
                adj = adjacency[u]
                while pointer[u] < len(adj):
                    arc = adj[pointer[u]]
                    v = heads[arc]
                    if caps[arc] - flows[arc] > _EPS and level[v] == level[u] + 1:
                        path.append(arc)
                        u = v
                        advanced = True
                        break
                    pointer[u] += 1
                if not advanced:
                    if u == source:
                        break
                    # Retreat: the arc into u is saturated-for-this-phase.
                    level[u] = -1  # prune u from the level graph
                    last_arc = path.pop()
                    u = heads[last_arc ^ 1]
                    pointer[u] += 1
            if u != sink:
                break  # no more augmenting paths in this phase
            bottleneck = min(caps[arc] - flows[arc] for arc in path)
            for arc in path:
                flows[arc] += bottleneck
                flows[arc ^ 1] -= bottleneck
            total += bottleneck
            paths += 1
            pushes += len(path)

    network.flows[:] = flows
    rec = recorder()
    if rec.enabled:
        rec.incr("flow.dinic.calls")
        rec.incr("flow.dinic.phases", phases)
        rec.incr("flow.dinic.augmenting_paths", paths)
        rec.incr("flow.dinic.pushes", pushes)
        rec.observe("flow.dinic.paths_per_call", paths)
    return total
