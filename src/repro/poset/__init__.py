"""Partial-order (dominance) substrate.

Implements the combinatorial machinery the paper relies on:

* dominance digraph construction in ``O(d n^2)`` (:mod:`.dominance`);
* Hopcroft–Karp maximum bipartite matching in ``O(E sqrt(V))``
  (:mod:`.matching`), the engine behind Lemma 6;
* minimum chain decomposition via Dilworth's theorem (:mod:`.chains`);
* dominance width and maximum-antichain certificates (:mod:`.width`);
* the sparse engine (:mod:`.sparse`): block-streamed dominance in
  ``O(block * n)`` memory and packed-bitset transitive reduction, sharing
  the order-matrix cache on :class:`~repro.core.points.PointSet`
  (see ``docs/poset.md``);
* the packed-bitset order engine (:mod:`.bitset`): the whole order matrix
  as ``uint8`` bitset rows and a Hopcroft–Karp whose BFS layering is
  bitset frontier expansion — the one substrate of the order queries,
  chains, antichains and heights at every size.
"""

from .bitset import (
    PackedOrder,
    hopcroft_karp_bitset,
    packed_order,
    popcount,
)
from .chains import (
    ChainDecomposition,
    greedy_chain_decomposition,
    is_valid_chain_decomposition,
    matching_chain_decomposition,
    minimum_chain_decomposition,
    patience_chain_decomposition,
)
from .dominance import (
    dominance_digraph,
    dominance_pair_count,
    maximal_points,
    minimal_points,
    topological_order,
)
from .hasse import covers, hasse_edges
from .matching import hopcroft_karp, maximum_bipartite_matching
from .mirsky import heights, longest_chain_length, mirsky_antichain_partition
from .sparse import (
    order_matrix_blocks,
    transitive_reduction,
    weak_dominance_blocks,
)
from .width import (
    brute_force_width,
    dominance_width,
    maximum_antichain,
)

__all__ = [
    "ChainDecomposition",
    "minimum_chain_decomposition",
    "matching_chain_decomposition",
    "patience_chain_decomposition",
    "greedy_chain_decomposition",
    "is_valid_chain_decomposition",
    "dominance_digraph",
    "topological_order",
    "maximal_points",
    "minimal_points",
    "dominance_pair_count",
    "hopcroft_karp",
    "maximum_bipartite_matching",
    "dominance_width",
    "maximum_antichain",
    "brute_force_width",
    "hasse_edges",
    "covers",
    "heights",
    "longest_chain_length",
    "mirsky_antichain_partition",
    "weak_dominance_blocks",
    "order_matrix_blocks",
    "transitive_reduction",
    "PackedOrder",
    "packed_order",
    "popcount",
    "hopcroft_karp_bitset",
]
