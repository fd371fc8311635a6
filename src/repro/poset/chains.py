"""Chain decompositions of a dominance poset (paper Section 2, Lemma 6).

A *chain* is a subset of points that can be arranged into a sequence where
each point is dominated by the next; an *anti-chain* contains no comparable
pair.  Dilworth's theorem says the minimum number of chains that partition
``P`` equals the size of the largest anti-chain — the *dominance width* ``w``.

:func:`minimum_chain_decomposition` implements Lemma 6: build the dominance
DAG in ``O(d n^2)``, reduce minimum path cover to maximum bipartite matching
(the split-graph construction), and solve the matching with Hopcroft–Karp in
``O(n^{2.5})``.  Because dominance is transitive, a vertex-disjoint path
cover of the DAG is exactly a chain decomposition.

:func:`greedy_chain_decomposition` is the cheap heuristic used in the A2
ablation: it needs no matching but may emit more than ``w`` chains for
``d >= 2``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from ..core.points import PointSet
from ..obs import recorder
from .bitset import hopcroft_karp_bitset, packed_order
from .dominance import topological_order

__all__ = [
    "ChainDecomposition",
    "minimum_chain_decomposition",
    "matching_chain_decomposition",
    "patience_chain_decomposition",
    "greedy_chain_decomposition",
    "is_valid_chain_decomposition",
]


class ChainDecomposition:
    """A partition of point indices into chains.

    Each chain is stored as a list of indices sorted from the most dominated
    point to the most dominating one (ascending in the partial order), which
    is the orientation Section 4.1 needs when it treats a chain as a 1-D
    instance.
    """

    __slots__ = ("chains", "n", "method")

    def __init__(self, chains: Sequence[Sequence[int]], n: int, method: str) -> None:
        self.chains: List[List[int]] = [list(c) for c in chains]
        self.n = n
        self.method = method

    @property
    def num_chains(self) -> int:
        """Number of chains; equals the width ``w`` for the optimal method."""
        return len(self.chains)

    def chain_of(self) -> np.ndarray:
        """Array mapping each point index to its chain id."""
        owner = np.full(self.n, -1, dtype=int)
        for cid, chain in enumerate(self.chains):
            for idx in chain:
                owner[idx] = cid
        return owner

    def sizes(self) -> List[int]:
        """Chain sizes (sorted descending)."""
        return sorted((len(c) for c in self.chains), reverse=True)

    def __iter__(self):
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)

    def __repr__(self) -> str:
        return (f"ChainDecomposition(num_chains={self.num_chains}, n={self.n}, "
                f"method={self.method!r})")


def _record_decomposition(decomp: ChainDecomposition) -> ChainDecomposition:
    """Report a finished decomposition to the active metrics session."""
    rec = recorder()
    if rec.enabled:
        rec.incr("poset.decompositions")
        rec.gauge("poset.num_chains", decomp.num_chains)
        if decomp.method in ("matching", "patience"):
            # Exact methods: the chain count IS the dominance width w.
            rec.gauge("poset.width", decomp.num_chains)
    return decomp


def minimum_chain_decomposition(points: PointSet) -> ChainDecomposition:
    """Decompose ``P`` into exactly ``w`` chains (Lemma 6).

    The input's dimension picks the algorithm: for ``d <= 2`` the
    ``O(n log n)`` :func:`patience_chain_decomposition` (sorting for
    ``d = 1``, best fit for ``d = 2``), otherwise the Lemma 6 reduction
    :func:`matching_chain_decomposition` (``O(d n^2 + n^{2.5})`` time).

    Both return a minimum decomposition; they may differ in which one.
    Tests call each directly and cross-check the chain *counts* against
    each other and against brute-force width.
    """
    rec = recorder()
    if points.dim <= 2:
        with rec.span("patience"):
            return patience_chain_decomposition(points)
    with rec.span("matching"):
        return matching_chain_decomposition(points)


#: Peeling continues while a pass removes at least ``1 / _PEEL_DIVISOR``
#: of the points left; the accepted passes then cost at most
#: ``_PEEL_DIVISOR * n`` vectorised element operations in total.
_PEEL_DIVISOR = 64


def _peel_mask(ys: np.ndarray) -> np.ndarray:
    """First fit's first chain over ``ys``: each ``y`` at least the running max."""
    return ys >= np.maximum.accumulate(ys)


def _first_fit_chains(ys: Sequence[float], indices: Sequence[int]) -> List[List[int]]:
    """First fit over a sequence already in ``(x asc, y asc)`` order.

    Each point joins the first chain, in creation order, whose top ``y``
    is at most its own, and opens a new chain when none qualifies.
    Returns the chains in creation order.  Tops strictly decrease in
    creation order, so their negations are a sorted list and the first
    qualifying chain is one ``bisect_left`` away: ``O(n log w)``.
    """
    neg_tops: List[float] = []
    chains: List[List[int]] = []
    for idx, y in zip(indices, ys):
        pos = bisect_left(neg_tops, -y)
        if pos == len(chains):
            neg_tops.append(-y)
            chains.append([idx])
        else:
            neg_tops[pos] = -y
            chains[pos].append(idx)
    return chains


def _xy_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``np.lexsort((ys, xs))``: ascending ``x``, then ``y``, then index.

    An unstable ``argsort`` of ``xs`` alone, with only the runs of tied
    ``x`` re-sorted by ``(y, index)``.  On continuous coordinates few
    points tie, so this costs one single-key sort where ``lexsort`` pays
    an indirect stable sort per key.  ``-0.0`` ties with ``0.0`` and
    ``±inf`` with itself, as in ``lexsort``; NaN is not allowed.
    """
    order = np.argsort(xs)
    sorted_xs = xs[order]
    tied = sorted_xs[1:] == sorted_xs[:-1]
    if not tied.any():
        return order
    # Positions inside a run of equal x: tied with a neighbour either side.
    in_run = np.zeros(len(xs), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    spots = np.flatnonzero(in_run)
    # A run starts where x differs from the previous sorted x.  Runs number
    # upwards along the sorted order, so sorting by run first leaves every
    # run where it was.
    starts = np.ones(len(spots), dtype=bool)
    starts[1:] = ~tied[spots[1:] - 1]
    runs = np.cumsum(starts)
    members = order[spots]
    order[spots] = members[np.lexsort((members, ys[members], runs))]
    return order


def patience_chain_decomposition(points: PointSet) -> ChainDecomposition:
    """Exact minimum chain decomposition for ``d <= 2``.

    Points are processed by ascending ``(x, y)``; each joins the chain
    whose current top has the largest ``y`` not exceeding its own (best
    fit), opening a new chain when no top qualifies.  Every earlier top
    has ``x <=`` the current point's ``x``, so placement keeps chains
    valid; a patience-sorting argument shows that when the k-th chain
    opens there is an anti-chain of size k, so the count is minimum
    (Dilworth).  For ``d = 1`` the points are totally ordered and the
    result is a single chain.

    Chain tops strictly decrease in creation order, so best fit is first
    fit, and first fit's first chain is exactly the points whose ``y`` is
    at least the running maximum.  The chains are therefore *peeled* one
    vectorised pass at a time while a pass removes at least 1/64 of the
    points left (``O(n)`` element operations in all), and
    :func:`_first_fit_chains` places the rest — a peeled chain takes none
    of the points left, so first fit over them alone builds the same
    later chains.  Chains are listed in reverse creation order.  Time
    ``O(n log n)``.

    Raises ``ValueError`` naming the first point with a NaN coordinate
    (reachable through ``PointSet(validate=False)``); ``±inf`` is accepted.
    """
    n = points.n
    if points.dim > 2:
        raise ValueError(f"patience decomposition requires d <= 2; got d = {points.dim}")
    points.require_no_nan("patience_chain_decomposition")
    if n == 0:
        return ChainDecomposition([], 0, method="patience")
    if points.dim == 1:
        order = np.argsort(points.coords[:, 0], kind="stable")
        return ChainDecomposition([order.tolist()], n, method="patience")

    xs = points.coords[:, 0]
    ys = points.coords[:, 1]
    order = _xy_order(xs, ys)  # ascending x, ties by ascending y
    rest_ys = ys[order]
    peeled: List[List[int]] = []
    while len(order):
        keep = _peel_mask(rest_ys)
        taken = int(np.count_nonzero(keep))
        if taken * _PEEL_DIVISOR < len(order):
            break
        peeled.append(order[keep].tolist())
        order = order[~keep]
        rest_ys = rest_ys[~keep]
    rec = recorder()
    if rec.enabled:
        rec.incr("poset.patience.peel_passes", len(peeled))
        rec.incr("poset.patience.peeled_points", n - len(order))
    chains = _first_fit_chains(rest_ys.tolist(), order.tolist())
    chains.reverse()
    peeled.reverse()
    return _record_decomposition(
        ChainDecomposition(chains + peeled, n, method="patience"))


def matching_chain_decomposition(points: PointSet) -> ChainDecomposition:
    """The Lemma 6 reduction: minimum path cover via Hopcroft–Karp.

    Split every point ``v`` into a left copy ``v_out`` and a right copy
    ``v_in``; add an edge ``(u_out, v_in)`` whenever ``v`` is above ``u``.
    A maximum matching ``M`` yields a minimum path cover with ``n - |M|``
    paths: follow matched successors.  Transitivity of dominance makes
    every such path a chain, and Dilworth guarantees ``n - |M| = w``.

    The matching is the packed-bitset Hopcroft–Karp, whose DFS replays
    the reference :func:`repro.poset.matching.hopcroft_karp` vertex for
    vertex; parity tests assert the chains against that reference.
    """
    n = points.n
    if n == 0:
        return ChainDecomposition([], 0, method="matching")
    rec = recorder()
    packed = packed_order(points)
    # Row u of the packed columns is exactly the Lemma 6 adjacency of
    # left copy u: every v above u.  Read it before counting pairs so
    # the count comes from it and the row orientation is never built.
    above = packed.above
    if rec.enabled:
        rec.incr("poset.dominance_pairs", packed.pair_count())
    matching = hopcroft_karp_bitset(above, n)

    successor = matching.left_match  # successor[u] = next point up the chain
    has_predecessor = [False] * n
    for u in range(n):
        if successor[u] != -1:
            has_predecessor[successor[u]] = True

    chains: List[List[int]] = []
    for start in range(n):
        if has_predecessor[start]:
            continue
        chain = [start]
        cur = successor[start]
        while cur != -1:
            chain.append(cur)
            cur = successor[cur]
        chains.append(chain)
    return _record_decomposition(
        ChainDecomposition(chains, n, method="matching"))


def greedy_chain_decomposition(points: PointSet,
                               order_hint: Optional[Sequence[int]] = None) -> ChainDecomposition:
    """Greedy chain decomposition: fast, but may use more than ``w`` chains.

    Scans points in topological order and appends each point to the first
    chain whose current top it dominates, opening a new chain otherwise.
    For ``d = 1`` this is exact (a single chain); for higher dimensions it is
    a heuristic whose chain count the A2 ablation compares against ``w``.
    """
    n = points.n
    if n == 0:
        return ChainDecomposition([], 0, method="greedy")
    order = list(order_hint) if order_hint is not None else topological_order(points)
    coords = points.coords
    chains: List[List[int]] = []
    tops: List[np.ndarray] = []
    for idx in order:
        placed = False
        for cid, top in enumerate(tops):
            if np.all(coords[idx] >= top):
                chains[cid].append(idx)
                tops[cid] = coords[idx]
                placed = True
                break
        if not placed:
            chains.append([idx])
            tops.append(coords[idx])
    return _record_decomposition(ChainDecomposition(chains, n, method="greedy"))


def is_valid_chain_decomposition(points: PointSet,
                                 decomposition: ChainDecomposition) -> bool:
    """Check that a decomposition partitions all indices into genuine chains.

    Validates (i) every index appears exactly once and (ii) within each
    chain, consecutive points satisfy weak dominance in ascending order.
    """
    seen = np.zeros(points.n, dtype=bool)
    for chain in decomposition.chains:
        if not chain:
            return False
        for idx in chain:
            if not 0 <= idx < points.n or seen[idx]:
                return False
            seen[idx] = True
        for lower, upper in zip(chain, chain[1:]):
            if not points.weakly_dominates(upper, lower):
                return False
    return bool(seen.all())
