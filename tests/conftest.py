"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import PointSet
from repro.flow import dinic_array_max_flow, dinic_max_flow
from repro.poset import hopcroft_karp, topological_order

#: Every max-flow engine under test.  ``dinic`` is the loop reference
#: (repro.flow.dinic, used only by tests and the fuzzer); ``dinic_array``
#: is the production engine.
FLOW_ENGINES = {
    "dinic": dinic_max_flow,
    "dinic_array": dinic_array_max_flow,
}


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_2d() -> PointSet:
    """A hand-checkable 4-point 2-D set.

    Layout::

        (0,0) label 1   -- dominated by everything
        (1,1) label 0   -- dominates (0,0)
        (2,0) label 0   -- incomparable with (1,1), dominates (0,0)
        (2,2) label 1   -- dominates everything

    The only conflicts are (1,1) >= (0,0) and (2,0) >= (0,0) with label
    0 over label 1, so the optimum flips one point: k* = 1.
    """
    coords = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 2.0)]
    labels = [1, 0, 0, 1]
    return PointSet(coords, labels)


@pytest.fixture
def monotone_2d() -> PointSet:
    """A 2-D set whose labeling is already monotone (k* = 0)."""
    coords = [(0.0, 0.0), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0), (3.0, 3.0)]
    labels = [0, 0, 0, 1, 1]
    return PointSet(coords, labels)


def random_labeled_points(gen: np.random.Generator, n: int, dim: int,
                          weighted: bool = False) -> PointSet:
    """A random fully-labeled point set (arbitrary labeling, may be noisy)."""
    coords = gen.random((n, dim))
    labels = gen.integers(0, 2, size=n).astype(np.int8)
    weights = None
    if weighted:
        weights = gen.random(n) + 0.1
    return PointSet(coords, labels, weights)


# Poset references: the dense order matrix plus loop Hopcroft-Karp, which
# the packed-bitset engine behind repro.poset must reproduce exactly.

def order_adjacency(points: PointSet) -> List[List[int]]:
    """Lemma 6 adjacency from the dense order: ``adj[u]`` = points above ``u``."""
    order = points.order_matrix()
    return [np.flatnonzero(order[:, u]).tolist() for u in range(points.n)]


def reference_chains(points: PointSet) -> List[List[int]]:
    """Chains read off loop Hopcroft-Karp over the dense order adjacency."""
    n = points.n
    successor = hopcroft_karp(order_adjacency(points), n).left_match
    has_predecessor = {v for v in successor if v != -1}
    chains = []
    for start in range(n):
        if start in has_predecessor:
            continue
        chain = [start]
        while successor[chain[-1]] != -1:
            chain.append(successor[chain[-1]])
        chains.append(chain)
    return chains


def reference_antichain(points: PointSet) -> List[int]:
    """König antichain by a per-edge alternating search over the loop
    matching: free lefts reach rights along edges, rights reach their
    matched lefts; the antichain is visited-left and unvisited-right."""
    n = points.n
    adjacency = order_adjacency(points)
    matching = hopcroft_karp(adjacency, n)
    visited_left = [v == -1 for v in matching.left_match]
    visited_right = [False] * n
    stack = [u for u in range(n) if visited_left[u]]
    while stack:
        for v in adjacency[stack.pop()]:
            if not visited_right[v]:
                visited_right[v] = True
                w = matching.right_match[v]
                if w != -1 and not visited_left[w]:
                    visited_left[w] = True
                    stack.append(w)
    return [v for v in range(n) if visited_left[v] and not visited_right[v]]


def reference_heights(points: PointSet) -> np.ndarray:
    """Longest-chain heights by a DP over the dense order matrix."""
    order = points.order_matrix()
    result = np.zeros(points.n, dtype=int)
    for idx in topological_order(points):
        below = np.flatnonzero(order[idx])
        result[idx] = 1 + (result[below].max() if len(below) else 0)
    return result
