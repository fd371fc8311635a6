"""Max-flow / min-cut substrate (paper Section 2).

The passive solver (Theorem 4) needs a max-flow algorithm and a minimum
cut-edge set (Lemmas 7 and 8).  Everything is implemented from scratch:

* :class:`.graph.FlowNetwork` — mutable residual-graph representation,
  plus the shared epsilon-boundary contract (``RESIDUAL_EPS`` /
  ``has_residual``) every backend routes admissibility through;
* :mod:`.array` — the two production engines: Dinic (vectorized
  frontier BFS over a split residual adjacency) and Goldberg–Tarjan FIFO
  push-relabel with gap and global relabeling over a frozen CSR snapshot,
  the ``O(V^3)`` algorithm the paper cites [14];
* :mod:`.dinic` — loop Dinic, the reference the differential tests and
  the fuzzer compare the production engines against (not a backend);
* :mod:`.mincut` — the cut readout: a closure-checked residual source
  side and its cut-edge set (Lemma 8).

A ``networkx`` backend is available for cross-checking in tests.
"""

from .array import (
    CSRFlowSnapshot,
    dinic_array_max_flow,
    push_relabel_array_max_flow,
)
from .dinic import dinic_max_flow
from .graph import RESIDUAL_EPS, FlowNetwork, has_residual
from .mincut import MinCut, min_cut_from_residual, solve_min_cut

__all__ = [
    "FlowNetwork",
    "RESIDUAL_EPS",
    "has_residual",
    "dinic_max_flow",
    "CSRFlowSnapshot",
    "dinic_array_max_flow",
    "push_relabel_array_max_flow",
    "MinCut",
    "min_cut_from_residual",
    "solve_min_cut",
    "solve_max_flow",
    "FLOW_BACKENDS",
]


def solve_max_flow(network: FlowNetwork, source: int, sink: int,
                   backend: str = "dinic") -> float:
    """Run the selected max-flow backend on ``network`` in place.

    Returns the maximum flow value; the network's internal flow state is
    updated so a minimum cut can be read off the residual graph.
    """
    try:
        solver = FLOW_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {sorted(FLOW_BACKENDS)}"
        ) from None
    return solver(network, source, sink)


FLOW_BACKENDS = {
    "dinic": dinic_array_max_flow,
    "push_relabel": push_relabel_array_max_flow,
}
