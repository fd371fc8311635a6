"""Deliberately broken solver mutants for self-testing the fuzzer.

A differential engine that has never caught a bug is untested itself.
Mutation testing closes the loop: each mutant here re-introduces a real
(historical or representative) defect behind a context manager, and the
engine's self-tests assert that the campaign finds a disagreement and
shrinks it to a small reproducer.  This is the correctness-side analogue
of the fault injection in :mod:`repro.resilience.faults` — there we break
the *infrastructure* on purpose, here we break the *solver*.

Mutants patch module attributes and restore them in a ``finally`` block;
they are process-local, never nest with themselves, and are exposed on the
CLI (``repro fuzz --mutant NAME``) so the whole detect-shrink-serialize
path can be exercised end to end by hand.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator

import numpy as np

__all__ = ["MUTANTS", "apply_mutant"]


def _uint8_transitive_reduction(order: np.ndarray) -> np.ndarray:
    """The pre-PR-3 Hasse reduction with the uint8 mod-256 overflow.

    Counts the points strictly between each pair with a ``uint8`` matrix
    product; a pair with a multiple-of-256 number of intermediates wraps
    to zero and is falsely kept as a covering edge (a 258-point chain
    emits a spurious ``(0, 257)`` edge).  Kept verbatim as a mutant: the
    fuzzer's poset-structure check must flag the non-minimal reduction.
    """
    order = np.asarray(order, dtype=bool)
    small = order.astype(np.uint8)
    between_count = small @ small
    return order & (between_count == 0)


@contextmanager
def _hasse_uint8_overflow() -> Iterator[None]:
    from ..poset import sparse

    original = sparse.transitive_reduction
    sparse.transitive_reduction = _uint8_transitive_reduction  # type: ignore[assignment]
    try:
        yield
    finally:
        sparse.transitive_reduction = original  # type: ignore[assignment]


@contextmanager
def _duplicate_edges_dropped() -> Iterator[None]:
    """Make the streamed edge builder skip pairs with identical coordinates.

    Weak dominance holds both ways between equal coordinate vectors, and
    no classifier can separate them, so an opposing-label duplicate pair
    needs its infinite edge.  Without it the cut keeps both labels, the
    assignment is not monotone, and the Lemma 16 check in
    ``solve_passive`` trips — which the ``duplicates`` family must catch.
    """
    from ..core import passive

    original = passive.blocked_dominance_pair_arrays

    def strict_pairs(points, *args, **kwargs):  # type: ignore[no-untyped-def]
        srcs, tgts = original(points, *args, **kwargs)
        keep = (points.coords[srcs] != points.coords[tgts]).any(axis=1)
        return srcs[keep], tgts[keep]

    passive.blocked_dominance_pair_arrays = strict_pairs  # type: ignore[assignment]
    try:
        yield
    finally:
        passive.blocked_dominance_pair_arrays = original  # type: ignore[assignment]


@contextmanager
def _edge_box_strict() -> Iterator[None]:
    """Make the edge stream's bounding-box prefilter strict (``<``).

    A target tied with its block's per-coordinate maximum on any
    coordinate is then never compared, so its dominance edges vanish:
    with one source row in the block the box *is* that row, and even a
    duplicate pair loses its edge.  The cut can then keep a label-0
    point above a label-1 point, which trips the Lemma 16 check on the
    ``duplicates`` family.
    """
    from ..core import pairwise

    original = pairwise._box_candidates

    def strict_box(target_coords, box_max):  # type: ignore[no-untyped-def]
        return np.flatnonzero(np.all(target_coords < box_max, axis=1))

    pairwise._box_candidates = strict_box  # type: ignore[assignment]
    try:
        yield
    finally:
        pairwise._box_candidates = original  # type: ignore[assignment]


@contextmanager
def _dinic_prune_off_by_one() -> Iterator[None]:
    """Make Dinic's shortest-path prune skip the last tail of each layer.

    The backward sweep marks the tails of all but the last live arc in
    each layer (a ``[:-1]`` slip), so a vertex whose only way to the sink
    is that arc is wrongly dead and the arcs into it — which lie on a
    shortest path — are pruned.  Whenever a phase's last augmenting path
    runs through such a vertex the phase finds nothing and Dinic stops
    short of a maximum flow, its last BFS still reaching the sink; the
    cut readout's check then rejects the reached set, which the passive
    differential must catch.
    """
    from ..flow import array

    original = array._sink_reaching

    def off_by_one(tails, layers, num_nodes, sink):  # type: ignore[no-untyped-def]
        live = np.zeros(num_nodes, dtype=bool)
        live[sink] = True
        kept = []
        for layer in reversed(layers):
            hits = [arcs[positions[live[heads]]]
                    for arcs, positions, heads in layer]
            live[tails[np.concatenate(hits)[:-1]]] = True
            kept.extend(hits)
        return kept

    array._sink_reaching = off_by_one  # type: ignore[assignment]
    try:
        yield
    finally:
        array._sink_reaching = original  # type: ignore[assignment]


@contextmanager
def _dinic_reverse_arc_dropped() -> Iterator[None]:
    """Drop one flow-carrying reverse arc from Dinic's per-phase adjacency.

    The arc of the highest-numbered edge whose reverse is usable goes
    missing from every phase's BFS.  Dinic itself runs to the end without
    error, but its last BFS misses whatever only that arc reaches, so the
    reached set it hands to the cut readout is not closed: a usable arc
    leaves it.  The readout's engine-independent closure check must
    reject it; a readout that trusted the engine would return a wrong cut.
    """
    from ..flow import array

    original = array._reverse_adjacency

    def dropped(network, pairs):  # type: ignore[no-untyped-def]
        return original(network, pairs[:-1])

    array._reverse_adjacency = dropped  # type: ignore[assignment]
    try:
        yield
    finally:
        array._reverse_adjacency = original  # type: ignore[assignment]


@contextmanager
def _capacity_plus_one() -> Iterator[None]:
    """Revert the effective-infinity guard to the bare ``total + 1.0``.

    Strips *every* scale check at once: the ill-conditioning rejection, the
    overflow detection and the absorbed-``+ 1.0`` fallback — the naive
    implementation the guard replaced.  At extreme weight scales the mutant
    either feeds the backends numerically meaningless capacities (tripping
    a backend-dependent assertion where healthy code raises a uniform
    ``ValueError``) or silently makes "infinite" edges cuttable — the
    extreme-weights family exists to catch precisely this.
    """
    from ..core import passive

    original = passive._effective_infinity
    passive._effective_infinity = (  # type: ignore[assignment]
        lambda total, min_weight: total + 1.0)
    try:
        yield
    finally:
        passive._effective_infinity = original  # type: ignore[assignment]


@contextmanager
def _matching_last_free() -> Iterator[None]:
    """Make Hopcroft–Karp's first phase take each left's *last* free right.

    The matching stays maximum — later phases augment from any start — so
    sizes, chain counts and widths all still check out; only the
    vertex-for-vertex replay of the reference engine breaks, which the
    structure check must flag.
    """
    from ..poset import bitset

    original = bitset._greedy_first_phase

    def last_free(adjacency, free, lefts, rights):  # type: ignore[no-untyped-def]
        size = 0
        for u, row in enumerate(adjacency):
            hits = np.flatnonzero(np.unpackbits(row & free, count=len(rights)))
            if len(hits):
                v = int(hits[-1])
                free[v >> 3] &= 0xFF ^ (0x80 >> (v & 7))
                lefts[u] = v
                rights[v] = u
                size += 1
        return size

    bitset._greedy_first_phase = last_free  # type: ignore[assignment]
    try:
        yield
    finally:
        bitset._greedy_first_phase = original  # type: ignore[assignment]


@contextmanager
def _classify_strict_ties() -> Iterator[None]:
    """Make the classifier's dominance test strict on the last coordinate.

    Rebinds only the name :mod:`repro.core.classifier` calls, so
    ``solve_passive``'s own dominance facts stay right and the cut is
    still optimal; but a point tied with an anchor on its last coordinate
    is no longer in the anchor's upset, so the served extension disagrees
    with the assignment it was built from — which the certificate audit
    must flag.
    """
    from ..core import classifier

    original = classifier.pairwise_weak_dominance

    def strict_last(rows, cols):  # type: ignore[no-untyped-def]
        out = original(rows[:, :-1], cols[:, :-1])
        np.logical_and(out, rows[:, -1, None] > cols[None, :, -1], out=out)
        return out

    classifier.pairwise_weak_dominance = strict_last  # type: ignore[assignment]
    try:
        yield
    finally:
        classifier.pairwise_weak_dominance = original  # type: ignore[assignment]


@contextmanager
def _patience_peel_strict() -> Iterator[None]:
    """Make the patience peel strict: ``y >`` the running max of earlier ``y``.

    First fit's first chain takes every point whose ``y`` is *at least*
    the running maximum; a strict test leaves a point tied with that
    maximum (a duplicate, or a tie in ``y``) for a later chain.  The
    chains stay valid but split, so the count exceeds the width — which
    the structure check's first-fit and König comparisons must flag.
    """
    from ..poset import chains

    original = chains._peel_mask

    def strict(ys):  # type: ignore[no-untyped-def]
        earlier = np.maximum.accumulate(np.concatenate(([-np.inf], ys[:-1])))
        return ys > earlier

    chains._peel_mask = strict  # type: ignore[assignment]
    try:
        yield
    finally:
        chains._peel_mask = original  # type: ignore[assignment]


@contextmanager
def _preflow_over_accept() -> Iterator[None]:
    """Make the greedy preflow's targets accept every offer in full.

    A target then takes flow past its remaining demand: more flow enters
    it than its sink arc carries away, so the seed breaks conservation,
    which the passive differential's preflow check must flag.  The max
    flow finished from the seed also reports more than the cut's
    capacity, which trips the min-cut certificate in ``solve_passive``.
    """
    from ..core import passive

    original = passive._accept

    def over_accept(offers, before, demand):  # type: ignore[no-untyped-def]
        return offers

    passive._accept = over_accept  # type: ignore[assignment]
    try:
        yield
    finally:
        passive._accept = original  # type: ignore[assignment]


#: Named mutants: context managers that break one solver invariant each.
MUTANTS: Dict[str, Callable[[], ContextManager[None]]] = {
    "hasse_uint8_overflow": _hasse_uint8_overflow,
    "duplicate_edges_dropped": _duplicate_edges_dropped,
    "edge_box_strict": _edge_box_strict,
    "dinic_prune_off_by_one": _dinic_prune_off_by_one,
    "dinic_reverse_arc_dropped": _dinic_reverse_arc_dropped,
    "capacity_plus_one": _capacity_plus_one,
    "matching_last_free": _matching_last_free,
    "classify_strict_ties": _classify_strict_ties,
    "patience_peel_strict": _patience_peel_strict,
    "preflow_over_accept": _preflow_over_accept,
}


@contextmanager
def apply_mutant(name: str) -> Iterator[None]:
    """Activate a named mutant for the duration of the block."""
    try:
        factory = MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; available: {sorted(MUTANTS)}"
        ) from None
    with factory():
        yield
