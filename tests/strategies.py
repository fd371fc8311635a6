"""Shared Hypothesis strategies for property-based tests.

Centralizes the instance generators that several test modules (and the
fuzz self-tests) need: labeled point sets of bounded size/dimension and
small capacitated flow networks.  Keeping them here means a strategy
tweak (say, widening the weight range) immediately propagates to every
property test instead of drifting per-file.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import strategies as st

from repro import PointSet
from repro.flow import RESIDUAL_EPS, FlowNetwork

__all__ = [
    "point_sets",
    "flow_networks",
    "multigraph_flow_networks",
    "boundary_flow_networks",
    "pruning_flow_networks",
    "network_build_scripts",
]


@st.composite
def point_sets(draw, max_n: int = 16, max_dim: int = 3,
               weighted: bool = True) -> PointSet:
    """A labeled :class:`~repro.PointSet` on a small integer grid.

    Integer coordinates keep dominance decisions exact (no float-ordering
    surprises) while still producing duplicates, chains and antichains;
    weights are bounded well inside the float64 conditioning guard.
    """
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, max_dim))
    coords = draw(st.lists(
        st.tuples(*[st.integers(0, 4) for _ in range(dim)]),
        min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if weighted:
        weights = draw(st.lists(
            st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
    else:
        weights = [1.0] * n
    return PointSet(np.asarray(coords, dtype=float).reshape(n, dim),
                    labels, weights)


@st.composite
def flow_networks(draw, max_nodes: int = 10, max_edges: int = 25
                  ) -> Tuple[FlowNetwork, int, int]:
    """A small capacitated digraph plus a (source, sink) pair.

    Capacities mix zeros, ties and a large-but-finite value so residual
    bookkeeping, tie-breaking and saturation paths all get exercised.
    """
    n = draw(st.integers(2, max_nodes))
    network = FlowNetwork(n)
    edges: List[Tuple[int, int]] = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    for u, v in edges:
        if u == v:
            continue
        capacity = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e6]))
        network.add_edge(u, v, capacity)
    return network, 0, n - 1


@st.composite
def multigraph_flow_networks(draw, max_nodes: int = 8, max_edges: int = 14
                             ) -> Tuple[FlowNetwork, int, int]:
    """Networks with antiparallel and parallel edges, zero capacities and
    self-loops, which :func:`flow_networks` leaves out or only hits by
    chance.

    Each drawn edge may be followed by its antiparallel twin and by a
    parallel copy, so a vertex's adjacency interleaves forward and reverse
    arcs of the same pair of vertices.
    """
    n = draw(st.integers(2, max_nodes))
    network = FlowNetwork(n)
    capacity = st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e6])
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.booleans(), st.booleans()),
        max_size=max_edges))
    for u, v, antiparallel, parallel in edges:
        network.add_edge(u, v, draw(capacity))
        if antiparallel:
            network.add_edge(v, u, draw(capacity))
        if parallel:
            network.add_edge(u, v, draw(capacity))
    return network, 0, n - 1


#: Capacities straddling the shared residual tolerance: exactly at the
#: epsilon boundary, one ulp to either side, sub-epsilon, and a couple of
#: ordinary values so boundary arcs interact with real flow.
_BOUNDARY_CAPACITIES = [
    0.0,
    RESIDUAL_EPS,
    float(np.nextafter(RESIDUAL_EPS, 0.0)),
    float(np.nextafter(RESIDUAL_EPS, 1.0)),
    RESIDUAL_EPS / 2,
    2 * RESIDUAL_EPS,
    1e-9,
    1.0,
]


@st.composite
def boundary_flow_networks(draw, max_nodes: int = 8, max_edges: int = 20
                           ) -> Tuple[FlowNetwork, int, int]:
    """Networks whose capacities sit at the ``RESIDUAL_EPS`` boundary.

    Regression strategy for the epsilon-boundary unification: every
    backend must make the *same* admissibility decision on residuals at
    exactly ``RESIDUAL_EPS`` (historically capacity-scaling's exactness
    pass admitted them while the other backends rejected them).
    """
    n = draw(st.integers(2, max_nodes))
    network = FlowNetwork(n)
    edges: List[Tuple[int, int]] = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    for u, v in edges:
        if u == v:
            continue
        network.add_edge(u, v, draw(st.sampled_from(_BOUNDARY_CAPACITIES)))
    return network, 0, n - 1


@st.composite
def pruning_flow_networks(draw, max_core: int = 8, max_extra: int = 6
                          ) -> Tuple[FlowNetwork, int, int]:
    """Networks that give Dinic's shortest-path prune something to drop.

    A random core digraph (source ``0``, sink ``n - 1``) around a short
    source-sink backbone, plus:

    * dead-end branches: extra vertices entered from the core whose arcs
      lead only to other dead ends, so they sit in the level graph
      without reaching the sink;
    * a detour: a chain from the source to the sink longer than the
      backbone, whose vertices lie past the sink's level until the short
      paths saturate;
    * capacities at the ``RESIDUAL_EPS`` boundary mixed with ordinary
      values, so arcs drop in and out of the level graph on ties.

    Vertex ids and edge order are shuffled so the pruned arcs interleave
    with live ones in every adjacency list.
    """
    core = draw(st.integers(3, max_core))
    dead = draw(st.integers(0, max_extra))
    detour = draw(st.integers(0, max_extra))
    n = core + dead + detour
    inner = draw(st.permutations(range(1, n - 1)))
    # Logical roles -> vertex ids: source 0, sink n - 1, the rest shuffled.
    core_ids = [0, *inner[:core - 2], n - 1]
    dead_ids = inner[core - 2:core - 2 + dead]
    detour_ids = inner[core - 2 + dead:]
    ordinary = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    mixed = st.sampled_from(_BOUNDARY_CAPACITIES + [0.5, 2.0, 3.0])
    vertex = st.sampled_from(core_ids)

    middle = draw(st.sampled_from(core_ids[1:-1]))
    edges: List[Tuple[int, int, float]] = [
        (0, middle, draw(ordinary)), (middle, n - 1, draw(ordinary))]
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=16)):
        if u != v:
            edges.append((u, v, draw(mixed)))
    for index, d in enumerate(dead_ids):
        entry = draw(st.sampled_from([*core_ids[:-1], *dead_ids[:index]]))
        edges.append((entry, d, draw(ordinary)))
        if index:
            edges.append((d, draw(st.sampled_from(dead_ids[:index])),
                          draw(mixed)))
    if detour:
        chain = [0, *detour_ids, n - 1]
        for u, v in zip(chain, chain[1:]):
            edges.append((u, v, draw(st.one_of(ordinary, mixed))))
    order = draw(st.permutations(range(len(edges))))
    network = FlowNetwork(n)
    for index in order:
        network.add_edge(*edges[index])
    return network, 0, n - 1


@st.composite
def network_build_scripts(draw, max_ops: int = 12) -> List[tuple]:
    """A random mix of ``add_node`` / ``add_edge`` / ``add_edges`` calls.

    Each step is ``("node",)``, ``("edge", u, v, cap)`` or ``("edges",
    tails, heads, caps)``; vertex ids are valid at the step they appear,
    and a ``("read",)`` step forces the buffered edges into storage
    mid-build.
    """
    num_nodes = draw(st.integers(1, 5))
    steps: List[tuple] = [("init", num_nodes)]
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(["node", "edge", "edges", "read"]))
        vertex = st.integers(0, num_nodes - 1)
        cap = st.floats(0.0, 10.0, allow_nan=False)
        if kind == "node":
            num_nodes += 1
            steps.append(("node",))
        elif kind == "edge":
            steps.append(("edge", draw(vertex), draw(vertex), draw(cap)))
        elif kind == "edges":
            m = draw(st.integers(0, 6))
            steps.append(("edges",
                          draw(st.lists(vertex, min_size=m, max_size=m)),
                          draw(st.lists(vertex, min_size=m, max_size=m)),
                          draw(st.lists(cap, min_size=m, max_size=m))))
        else:
            steps.append(("read",))
    return steps
