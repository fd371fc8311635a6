"""Partial-order (dominance) substrate.

Implements the combinatorial machinery the paper relies on:

* order queries over the dominance digraph (:mod:`.dominance`);
* Hopcroft–Karp maximum bipartite matching in ``O(E sqrt(V))``
  (:mod:`.matching`), the engine behind Lemma 6;
* minimum chain decomposition via Dilworth's theorem (:mod:`.chains`);
* dominance width and maximum-antichain certificates (:mod:`.width`);
* the sparse engine (:mod:`.sparse`): block-streamed order panels in
  ``O(block * n)`` memory (see ``docs/poset.md``);
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
    dominance_pair_count,
    maximal_points,
    minimal_points,
    topological_order,
)
from .matching import hopcroft_karp, maximum_bipartite_matching
from .mirsky import heights, longest_chain_length
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
    "topological_order",
    "maximal_points",
    "minimal_points",
    "dominance_pair_count",
    "hopcroft_karp",
    "maximum_bipartite_matching",
    "dominance_width",
    "maximum_antichain",
    "brute_force_width",
    "heights",
    "longest_chain_length",
    "PackedOrder",
    "packed_order",
    "popcount",
    "hopcroft_karp_bitset",
]
