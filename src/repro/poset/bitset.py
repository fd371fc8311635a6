"""Packed-bitset order engine: the one substrate of the poset queries.

Every load-bearing consumer of the dominance order — minimal/maximal
extraction, heights, chain decomposition via Hopcroft–Karp, the König
antichain — reduces to row/column operations on the boolean order matrix.
This module packs that matrix into ``uint8`` bitset rows (``np.packbits``)
and re-expresses the hot loops as bitwise kernels:

* :class:`PackedOrder` — both orientations of the tie-broken strict order
  packed 8 points per byte, each built on first use **blockwise** from the
  coordinates (:func:`repro.poset.sparse.coordinate_order_blocks`) so
  scratch memory beyond the packed output stays ``O(block * n)`` booleans
  and the dense ``(n, n)`` caches are never forced;
* the order queries of :mod:`repro.poset.dominance` (minimal/maximal
  points, pair count) read it with byte-wise ``any``/popcount
  instead of per-point Python;
* :func:`hopcroft_karp_bitset` — Hopcroft–Karp whose BFS layering is a
  *bitset frontier expansion*: one ``np.bitwise_or.reduce`` over the packed
  adjacency rows of the frontier per layer, instead of a Python loop over
  every edge, and whose DFS scans only the neighbors the reference would
  accept, read off incrementally maintained bitsets.  Its output (not
  just the matching size) is identical to the reference
  :func:`repro.poset.matching.hopcroft_karp`, which the parity tests
  assert vertex-for-vertex.

Popcounts use the hardware ``np.bitwise_count`` ufunc when available
(numpy >= 2.0) and fall back to a 256-entry lookup table otherwise.

Padding bits: with ``n`` not a multiple of 8 the final byte of every packed
row carries ``8 - n % 8`` zero padding bits.  All kernels here either
preserve zeros (AND/OR/popcount) or re-mask after complement; the
``n = 258``-style regression tests pin this.  See ``docs/poset.md`` for the
memory model.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.pairwise import DEFAULT_BLOCK_SIZE
from ..core.points import PointSet
from ..obs import recorder
from .matching import MatchingResult
from .sparse import coordinate_order_blocks

__all__ = [
    "PackedOrder",
    "packed_order",
    "popcount",
    "hopcroft_karp_bitset",
]

if hasattr(np, "bitwise_count"):

    def _popcount_bytes(packed: np.ndarray) -> np.ndarray:
        """Per-byte popcount via the hardware ufunc (numpy >= 2.0)."""
        return np.bitwise_count(packed)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_LUT = (
        np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        .sum(axis=1)
        .astype(np.uint8)
    )

    def _popcount_bytes(packed: np.ndarray) -> np.ndarray:
        """Per-byte popcount via a 256-entry lookup table."""
        return _POPCOUNT_LUT[packed]


#: Set-bit offsets of every byte value in ``np.packbits`` order (offset
#: ``k`` is the bit ``0x80 >> k``), ascending.
_BYTE_BITS = tuple(tuple(k for k in range(8) if byte & (0x80 >> k))
                   for byte in range(256))


def popcount(packed: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Number of set bits in a packed ``uint8`` bitset array.

    With ``axis=None`` returns the scalar total; with ``axis=1`` the
    per-row counts (an ``int64`` array), etc.  Padding bits are zero by
    construction, so they never contribute.
    """
    return _popcount_bytes(packed).sum(axis=axis, dtype=np.int64)


def _unpack_indices(row: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the set bits of one packed row."""
    return np.flatnonzero(np.unpackbits(row, count=n))


class PackedOrder:
    """Both orientations of the tie-broken strict order as packed bitsets.

    Attributes
    ----------
    n:
        Number of points.
    below:
        ``(n, ceil(n/8))`` ``uint8`` array; bit ``j`` of row ``i`` is set
        iff ``i`` is above ``j`` (``j`` lies below ``i``) — the packed
        rows of ``PointSet.order_matrix()``.
    above:
        The packed columns: bit ``i`` of row ``j`` is set iff ``i`` is
        above ``j``.  Row ``j`` is exactly the Lemma 6 bipartite adjacency
        of left vertex ``j``.

    Each orientation is packed on first access, straight from the
    coordinates in one streamed blockwise pass
    (:func:`repro.poset.sparse.coordinate_order_blocks`), so a consumer
    pays only for the orientation it reads: the minimal/maximal/height
    consumers never build ``above`` and the matching never builds
    ``below``.  Both together hold 2 bits per ordered pair — still 4x
    smaller than one boolean matrix.

    Rows are write-protected; the final byte of every row carries zero
    padding bits when ``n`` is not a multiple of 8.
    """

    __slots__ = ("n", "_block_size", "_coords", "_below", "_above")

    def __init__(self, coords: np.ndarray,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.n = coords.shape[0]
        self._block_size = block_size
        self._coords = coords
        self._below: Optional[np.ndarray] = None
        self._above: Optional[np.ndarray] = None

    @property
    def below(self) -> np.ndarray:
        below = self._below
        return below if below is not None else self._pack(transposed=False)

    @property
    def above(self) -> np.ndarray:
        above = self._above
        return above if above is not None else self._pack(transposed=True)

    def _pack(self, transposed: bool) -> np.ndarray:
        """Row-pack each streamed ``(block, n)`` panel as it is produced,
        so scratch beyond the packed output stays one boolean panel."""
        n = self.n
        packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        rec = recorder()
        with rec.span("bitset_pack"):
            for start, stop, block in coordinate_order_blocks(
                    self._coords, self._block_size, transposed):
                packed[start:stop] = np.packbits(block, axis=1)
                if rec.enabled:
                    rec.incr("poset.bitset_pack_blocks")
        packed.setflags(write=False)
        if transposed:
            self._above = packed
        else:
            self._below = packed
        if rec.enabled:
            rec.incr("poset.bitset_packs")
            rec.gauge("poset.bitset_bytes", self.num_bytes)
        return packed

    @property
    def num_bytes(self) -> int:
        """Total bytes of the orientations built so far."""
        return sum(m.nbytes for m in (self._below, self._above)
                   if m is not None)

    def below_indices(self, i: int) -> np.ndarray:
        """Ascending indices of the points below ``i`` (``i`` above them)."""
        return _unpack_indices(self.below[i], self.n)

    def pair_count(self) -> int:
        """Number of ordered pairs (edges of the dominance DAG).

        Popcounts whichever orientation is already built, so reporting the
        count never forces the other one.
        """
        built = self._above if self._above is not None else self.below
        return int(popcount(built))

    def __repr__(self) -> str:
        return f"PackedOrder(n={self.n}, num_bytes={self.num_bytes})"


def packed_order(points: PointSet, block_size: int = DEFAULT_BLOCK_SIZE) -> PackedOrder:
    """Fetch (or create) the cached :class:`PackedOrder` of a point set.

    Creation packs nothing: each orientation is packed when first read.
    The result is cached on the ``PointSet`` (like the dense order-matrix
    cache, which this path deliberately does **not** populate): repeat
    calls are free and counted by ``poset.bitset_cache_hits``.
    """
    cached = points._packed_order
    if cached is None:
        cached = points._packed_order = PackedOrder(points.coords, block_size)
    else:
        rec = recorder()
        if rec.enabled:
            rec.incr("poset.bitset_cache_hits")
    return cached


def _set_bits(packed: np.ndarray) -> List[int]:
    """Ascending indices of the set bits of a packed row, read off its
    nonzero bytes through :data:`_BYTE_BITS` (no full-row unpack)."""
    nonzero = packed.nonzero()[0]
    return [8 * b + k
            for b, byte in zip(nonzero.tolist(), packed[nonzero].tolist())
            for k in _BYTE_BITS[byte]]


def _greedy_first_phase(adjacency_packed: np.ndarray, free: np.ndarray,
                        left_match: List[int], right_match: List[int]) -> int:
    """Phase 1 of Hopcroft–Karp: match each left, in order, to its first
    free right; clears the taken bits of ``free``; returns the count."""
    size = 0
    for u, row in enumerate(adjacency_packed):
        hits = row & free
        nonzero = hits.nonzero()[0]
        if len(nonzero):
            byte = int(nonzero[0])
            k = _BYTE_BITS[int(hits[byte])][0]
            free[byte] &= 0xFF ^ (0x80 >> k)
            left_match[u] = 8 * byte + k
            right_match[8 * byte + k] = u
            size += 1
    return size


def hopcroft_karp_bitset(adjacency_packed: np.ndarray,
                         n_right: int) -> MatchingResult:
    """Hopcroft–Karp over a packed-bitset adjacency matrix.

    Parameters
    ----------
    adjacency_packed:
        ``(n_left, ceil(n_right/8))`` ``uint8`` array; bit ``v`` of row
        ``u`` set iff the bipartite edge ``u -> v`` exists (for the
        Lemma 6 reduction this is :attr:`PackedOrder.above`).  Padding
        bits past ``n_right`` are ignored.
    n_right:
        Number of right-side vertices.

    Output — not just the matching size — equals the reference
    :func:`repro.poset.matching.hopcroft_karp` vertex-for-vertex, which
    downstream chain decompositions rely on and the parity tests assert:

    * the BFS layering ORs the packed rows of each left frontier into one
      reachable-rights bitset (``O(n^2 / 8)`` bytes of work per phase);
    * phase 1 starts with every left free at layer 0 and no right owned,
      so the reference DFS takes each left's first free neighbor — run
      here as a first-free greedy over the packed ``free`` bitset;
    * later phases replay the reference DFS with each visit's scan list
      cut to ``adj[u] & (free | owned[dist[u] + 1])``, where ``owned[k]``
      packs the rights whose owner sits on layer ``k``.  Every path flip
      and dead end updates those bits, so the list is exactly the
      neighbors the reference would accept, in ascending order.
    """
    n_left = adjacency_packed.shape[0]
    n_bytes = (n_right + 7) // 8
    if adjacency_packed.shape[1] != n_bytes:
        raise ValueError(
            f"packed adjacency has {adjacency_packed.shape[1]} byte columns; "
            f"expected {n_bytes} for n_right = {n_right}"
        )
    left_match: List[int] = [-1] * n_left
    right_match: List[int] = [-1] * n_right
    free = np.packbits(np.ones(n_right, dtype=bool))  # zero padding bits
    padding = np.zeros(n_bytes, dtype=np.uint8)
    if n_right % 8:
        padding[-1] = 0xFF >> (n_right % 8)
    dist: List[int] = []
    owned: List[np.ndarray] = []
    rec = recorder()
    layers = 0

    def bfs() -> bool:
        """Layered frontier expansion; fills ``dist`` (``-1`` when
        unreachable) and ``owned``, returns whether a free right is
        reachable."""
        nonlocal dist, owned, layers
        right_owner = np.asarray(right_match, dtype=np.int64)
        frontier = np.asarray(left_match) == -1
        dist_np = np.where(frontier, 0, -1)
        owned = [np.zeros(n_bytes, dtype=np.uint8)]  # free lefts own nothing
        seen = padding.copy()
        found = False
        while frontier.any():
            reach = np.bitwise_or.reduce(adjacency_packed[frontier], axis=0)
            fresh = reach & ~seen
            if not fresh.any():
                break
            seen |= fresh
            layers += 1
            found = found or bool((fresh & free).any())
            fresh &= ~free
            owners = right_owner[_unpack_indices(fresh, n_right)]
            dist_np[owners] = len(owned)
            owned.append(fresh)
            frontier = np.zeros(n_left, dtype=bool)
            frontier[owners] = True
        owned.append(np.zeros(n_bytes, dtype=np.uint8))
        dist = dist_np.tolist()
        return found

    def candidates(u: int) -> List[int]:
        return _set_bits(adjacency_packed[u] & (free | owned[dist[u] + 1]))

    def augment_from(root: int) -> bool:
        """Iterative DFS for one augmenting path, mirroring the reference
        engine step-for-step (see ``repro.poset.matching``)."""
        stack = [[root, 0, candidates(root)]]
        path = []
        while stack:
            frame = stack[-1]
            u, ptr, row = frame
            if ptr < len(row):
                v = row[ptr]
                frame[1] = ptr + 1
                w = right_match[v]
                path.append((u, v))
                if w == -1:
                    for pu, pv in path:
                        byte, bit = pv >> 3, 0x80 >> (pv & 7)
                        old = right_match[pv]
                        if old == -1:
                            free[byte] &= 0xFF ^ bit
                        else:
                            owned[dist[old]][byte] &= 0xFF ^ bit
                        owned[dist[pu]][byte] |= bit
                        left_match[pu] = pv
                        right_match[pv] = pu
                    return True
                # Exact masks: w sits on layer dist[u] + 1, so descend.
                stack.append([w, 0, candidates(w)])
                continue
            # Dead end: drop u (and the right it owns) from the layering.
            v = left_match[u]
            if v != -1:
                owned[dist[u]][v >> 3] &= 0xFF ^ (0x80 >> (v & 7))
            dist[u] = -1
            stack.pop()
            if stack:
                path.pop()
        return False

    size = 0
    phases = 0
    with rec.span("bitset_matching"):
        while bfs():
            phases += 1
            if phases == 1:
                size += _greedy_first_phase(adjacency_packed, free,
                                            left_match, right_match)
                continue
            for root in [u for u in range(n_left) if left_match[u] == -1]:
                if augment_from(root):
                    size += 1
    if rec.enabled:
        rec.incr("poset.bitset_matching_layers", layers)
        rec.incr("poset.matching.phases", phases)
        rec.incr("poset.matching.augmentations", size)
        rec.incr("poset.matching.edges",
                 int(popcount(adjacency_packed & ~padding)))
        rec.incr("poset.bitset_matchings")
    return MatchingResult(size, left_match, right_match)
