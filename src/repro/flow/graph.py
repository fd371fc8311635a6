"""Residual flow-network representation shared by all max-flow backends.

Arcs are stored in flat numpy arrays where each arc and its reverse arc
occupy adjacent slots (``arc ^ 1`` is the reverse), the classic competitive-
programming layout that keeps residual updates O(1) and cache-friendly.
Capacities are finite floats because Problem 2 weights are positive reals;
the passive reduction's "infinite" edges use a finite effective infinity.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = ["FlowNetwork", "Arc", "RESIDUAL_EPS", "has_residual"]

#: Shared residual tolerance for every max-flow backend.  A residual
#: capacity is *usable* iff it strictly exceeds this value; anything at or
#: below it is treated as saturated.  All backends (and the min-cut
#: extraction) must route their admissibility decisions through this one
#: constant/predicate pair: a backend that admits residual exactly
#: ``RESIDUAL_EPS`` while another rejects it makes the two disagree on
#: boundary-capacity arcs, which the differential fuzzer flags as a
#: finding (historically: capacity-scaling's exactness pass used ``>=``
#: where the other backends used ``>``).
RESIDUAL_EPS = 1e-12


def _shared_zeros(values: np.ndarray) -> List[float]:
    """``values.tolist()`` with every ``+0.0`` as one shared object."""
    objects = values.astype(object)
    objects[(values == 0.0) & ~np.signbit(values)] = 0.0
    return objects.tolist()


def tail_order(tails: np.ndarray, num_nodes: int) -> np.ndarray:
    """Stable argsort of ``tails``: indices grouped by tail, in input order.

    Vertex ids that fit in 16 bits sort as ``uint16``, where numpy's
    stable sort is a radix sort (~4x the int64 timsort); larger networks
    sort the int64 ids.
    """
    keys = tails.astype(np.uint16) if num_nodes <= 0x10000 else tails
    return np.argsort(keys, kind="stable")


def has_residual(value: float) -> bool:
    """True iff ``value`` is usable residual capacity (strictly above eps).

    The single admissibility predicate shared by every backend.  Hot loops
    inline the equivalent ``value > RESIDUAL_EPS`` comparison against the
    imported constant; this function is the readable form for the
    non-critical call sites and the documentation anchor for the contract.
    """
    return value > RESIDUAL_EPS


class Arc(NamedTuple):
    """A directed arc materialized for inspection (not the storage format)."""

    tail: int
    head: int
    capacity: float
    flow: float


class FlowNetwork:
    """A directed graph with capacities, supporting residual operations.

    Parameters
    ----------
    num_nodes:
        Number of vertices, identified as ``0 .. num_nodes - 1``.

    Notes
    -----
    ``add_edge(u, v, cap)`` creates a forward arc with capacity ``cap`` and a
    reverse arc with capacity 0.  Backends mutate ``flows`` in place (or
    through :meth:`push`); :meth:`reset_flow` restores the zero flow so one
    network can be solved by several backends (used by the cross-check
    tests).

    Storage is four numpy arrays indexed by arc id: ``heads``, ``tails``
    (int64), ``caps`` and ``flows`` (float64).  Single :meth:`add_edge`
    calls buffer in Python lists that are flushed into the arrays the next
    time any of them is read.  Every append path hands each vertex its new
    arcs in ascending arc-id order, so the per-vertex adjacency is always
    a *stable* grouping of the arc ids by tail; :meth:`csr` derives it
    that way instead of storing a list per vertex.
    """

    __slots__ = ("num_nodes", "_heads", "_tails", "_caps", "_flows",
                 "_pending_tails", "_pending_heads", "_pending_caps",
                 "_csr_cache")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        self._heads = np.empty(0, dtype=np.int64)
        self._tails = np.empty(0, dtype=np.int64)
        self._caps = np.empty(0, dtype=np.float64)
        self._flows = np.empty(0, dtype=np.float64)
        # Forward edges added by add_edge since the last flush.
        self._pending_tails: List[int] = []
        self._pending_heads: List[int] = []
        self._pending_caps: List[float] = []
        # CSR arrays memoized by csr().  Arcs are append-only, so the
        # (num_nodes, num_arcs) key fully identifies the topology.
        self._csr_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self) -> int:
        """Append a new vertex and return its id."""
        self.num_nodes += 1
        return self.num_nodes - 1

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge ``u -> v``; returns the forward arc id."""
        self._check_node(u)
        self._check_node(v)
        # Also rejects NaN and inf, as add_edges does: an infinite
        # capacity makes ``caps - flows`` NaN once it carries flow.
        if not 0 <= capacity < math.inf:
            raise ValueError(
                f"capacity must be finite and non-negative; got {capacity}")
        arc_id = len(self._heads) + 2 * len(self._pending_tails)
        self._pending_tails.append(u)
        self._pending_heads.append(v)
        self._pending_caps.append(float(capacity))
        return arc_id

    def add_edges(self, tails: "np.ndarray", heads: "np.ndarray",
                  capacities: Union[float, "np.ndarray"]) -> "np.ndarray":
        """Bulk :meth:`add_edge`: append ``m`` edges in one vectorized call.

        Parameters
        ----------
        tails, heads:
            Integer arrays of length ``m`` (tail/head vertex per edge).
        capacities:
            Scalar (broadcast to every edge) or float array of length ``m``.

        Returns the ``m`` forward arc ids.  The arc arrays end up
        **exactly** as if :meth:`add_edge` had been called once per edge
        in array order, so flow backends (whose traversal order follows
        the derived adjacency) produce bit-identical results either way.
        This is the construction path the Theorem 4 solver uses; per-pair
        Python appends were the dominant cost of building dense instances.
        """
        tails_arr = np.ascontiguousarray(tails, dtype=np.int64).ravel()
        heads_arr = np.ascontiguousarray(heads, dtype=np.int64).ravel()
        m = len(tails_arr)
        if len(heads_arr) != m:
            raise ValueError(
                f"tails and heads disagree on edge count: {m} vs {len(heads_arr)}"
            )
        caps_arr = np.broadcast_to(
            np.asarray(capacities, dtype=float), (m,)
        )
        if m == 0:
            return np.empty(0, dtype=np.int64)
        for endpoint in (tails_arr, heads_arr):
            bad = (endpoint < 0) | (endpoint >= self.num_nodes)
            if bad.any():
                raise ValueError(
                    f"vertex {int(endpoint[bad][0])} outside "
                    f"[0, {self.num_nodes})"
                )
        bad = ~((caps_arr >= 0) & (caps_arr < np.inf))
        if bad.any():
            raise ValueError(
                f"capacity must be finite and non-negative; got {caps_arr[bad][0]}")
        self._flush()
        base = len(self._heads)
        self._append(tails_arr, heads_arr, caps_arr)
        return base + 2 * np.arange(m, dtype=np.int64)

    def _append(self, tails: np.ndarray, heads: np.ndarray,
                caps: np.ndarray) -> None:
        """Append validated forward edges and their reverse arcs.

        Even slots are forward arcs (tail -> head, cap), odd slots their
        reverses (head -> tail, 0), exactly as sequential add_edge calls
        lay them out.
        """
        def interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
            return np.column_stack((even, odd)).ravel()

        reverse_caps = np.zeros(len(caps), dtype=np.float64)
        self._tails = np.concatenate((self._tails, interleave(tails, heads)))
        self._heads = np.concatenate((self._heads, interleave(heads, tails)))
        self._caps = np.concatenate((self._caps, interleave(caps, reverse_caps)))
        self._flows = np.concatenate((self._flows, np.zeros(2 * len(caps))))

    def _flush(self) -> None:
        """Move the edges buffered by add_edge into the arc arrays."""
        if not self._pending_tails:
            return
        tails = np.array(self._pending_tails, dtype=np.int64)
        heads = np.array(self._pending_heads, dtype=np.int64)
        caps = np.array(self._pending_caps, dtype=np.float64)
        self._pending_tails = []
        self._pending_heads = []
        self._pending_caps = []
        self._append(tails, heads, caps)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.num_nodes:
            raise ValueError(f"vertex {u} outside [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    @property
    def heads(self) -> np.ndarray:
        """Head vertex of every arc (int64, indexed by arc id)."""
        self._flush()
        return self._heads

    @property
    def tails(self) -> np.ndarray:
        """Tail vertex of every arc (int64, indexed like ``heads``)."""
        self._flush()
        return self._tails

    @property
    def caps(self) -> np.ndarray:
        """Capacity of every arc (float64; reverse arcs hold 0)."""
        self._flush()
        return self._caps

    @property
    def flows(self) -> np.ndarray:
        """Current flow on every arc (float64, mutable in place)."""
        self._flush()
        return self._flows

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-vertex adjacency in CSR form (int64 arrays).

        Returns ``(indptr, csr_arcs, csr_tails, csr_heads)``:
        ``csr_arcs[indptr[u]:indptr[u + 1]]`` are the arcs leaving ``u``
        in ascending arc-id order — a stable argsort of the arc tails —
        and ``csr_tails`` / ``csr_heads`` give each CSR position's tail
        and head.  Memoized until the next vertex or arc is added.
        """
        tails = self.tails
        n = self.num_nodes
        key = (n, len(tails))
        cache = self._csr_cache
        if cache is None or cache[0] != key:
            csr_arcs = tail_order(tails, n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
            cache = self._csr_cache = (
                key, (indptr, csr_arcs, tails[csr_arcs], self._heads[csr_arcs])
            )
        return cache[1]

    @property
    def adjacency(self) -> List[List[int]]:
        """Arc ids leaving each vertex, as fresh Python lists.

        A view derived from :meth:`csr` for the loop engines, which index
        it once per call; the network does not store it.
        """
        indptr, csr_arcs = self.csr()[:2]
        arcs = csr_arcs.tolist()
        bounds = indptr.tolist()
        return [arcs[bounds[u]:bounds[u + 1]] for u in range(self.num_nodes)]

    def list_mirrors(self) -> Tuple[List[int], List[float], List[float]]:
        """Python-list copies of ``heads``, ``caps`` and ``flows``.

        For the loop engines, which read them arc by arc (an ndarray boxes
        every scalar read).  Repeated values share one object — one int
        per vertex, one ``0.0`` for every zero capacity and flow — so the
        scan's working set stays as small as per-arc Python lists built
        by appends; fresh objects per arc from ``tolist()`` measured ~1.5x
        slower loop Dinic on a 52k-arc network.
        """
        vertex_ids = np.arange(self.num_nodes, dtype=object)
        return (vertex_ids[self.heads].tolist(), _shared_zeros(self.caps),
                _shared_zeros(self.flows))

    # ------------------------------------------------------------------
    # Residual operations
    # ------------------------------------------------------------------

    def residual(self, arc: int) -> float:
        """Residual capacity of an arc (forward or reverse)."""
        return float(self.caps[arc] - self.flows[arc])

    def push(self, arc: int, amount: float) -> None:
        """Push ``amount`` units along ``arc``, updating the reverse arc."""
        flows = self.flows
        flows[arc] += amount
        flows[arc ^ 1] -= amount

    def reset_flow(self) -> None:
        """Zero out all flows (keeps topology and capacities)."""
        self.flows.fill(0.0)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of original (forward) edges."""
        return len(self.heads) // 2

    def tail(self, arc: int) -> int:
        """Tail vertex of an arc (forward or reverse).

        Public counterpart of ``heads[arc]`` for the arc's origin, so
        consumers (e.g. :meth:`repro.flow.mincut.MinCut.cut_edges`) need
        not reach into the storage layout.
        """
        return int(self.tails[arc])

    def forward_arcs(self) -> Iterator[Tuple[int, Arc]]:
        """Iterate ``(arc_id, Arc)`` over the original forward edges."""
        columns = (self.tails[0::2].tolist(), self.heads[0::2].tolist(),
                   self.caps[0::2].tolist(), self.flows[0::2].tolist())
        for index, (tail, head, cap, flow) in enumerate(zip(*columns)):
            yield 2 * index, Arc(tail=tail, head=head, capacity=cap, flow=flow)

    def flow_value(self, source: int) -> float:
        """Net flow leaving ``source`` (the value of the current flow).

        Sums the source's arcs left to right in arc-id order, as a scalar
        loop would: numpy's pairwise summation can round differently, and
        ``push_relabel`` reports ``0.0 - flow_value(sink)`` bit for bit.
        """
        total = 0.0
        for value in self.flows[self.tails == source].tolist():
            total += value
        return total

    def check_flow_conservation(self, source: int, sink: int,
                                tol: float = 1e-9) -> bool:
        """Verify capacity and conservation constraints of the current flow.

        Used by property tests: every flow a backend produces must be
        feasible regardless of its value.  Excess accumulates per vertex
        in arc-id order (``np.add.at`` is unbuffered), the order of a
        scalar loop over the forward arcs.
        """
        flows = self.flows[0::2]
        caps = self.caps[0::2]
        if ((flows < -tol) | (flows > caps + tol)).any():
            return False
        # Forward arc k debits its tail (slot 2k of ``tails``) and credits
        # its head (slot 2k + 1, the reverse arc's tail).
        signed = np.empty(2 * len(flows), dtype=np.float64)
        signed[0::2] = -flows
        signed[1::2] = flows
        excess = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(excess, self.tails, signed)
        excess[[source, sink]] = 0.0
        return not (np.abs(excess) > tol).any()

    def __repr__(self) -> str:
        return f"FlowNetwork(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
