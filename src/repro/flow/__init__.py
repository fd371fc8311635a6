"""Max-flow / min-cut substrate (paper Section 2).

The passive solver (Theorem 4) needs a max-flow algorithm and a minimum
cut-edge set (Lemmas 7 and 8).  Any exact max-flow leaves the same
minimal minimum cut, so one engine serves.  Everything is implemented
from scratch:

* :class:`.graph.FlowNetwork` — mutable residual-graph representation,
  plus the shared epsilon-boundary contract (``RESIDUAL_EPS`` /
  ``has_residual``) every engine routes admissibility through;
* :mod:`.array` — the production engine: Dinic with a vectorized
  frontier BFS over a split residual adjacency;
* :mod:`.dinic` — loop Dinic, the reference the differential tests and
  the fuzzer compare the production engine against;
* :mod:`.mincut` — the cut readout: a closure-checked residual source
  side and its cut-edge set (Lemma 8).
"""

from .array import dinic_array_max_flow
from .dinic import dinic_max_flow
from .graph import RESIDUAL_EPS, FlowNetwork, has_residual
from .mincut import MinCut, min_cut_from_residual, solve_min_cut

__all__ = [
    "FlowNetwork",
    "RESIDUAL_EPS",
    "has_residual",
    "dinic_max_flow",
    "dinic_array_max_flow",
    "MinCut",
    "min_cut_from_residual",
    "solve_min_cut",
]
