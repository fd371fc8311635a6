"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import PointSet
from repro.flow import (
    dinic_array_max_flow,
    dinic_max_flow,
    push_relabel_array_max_flow,
    solve_max_flow,
)

#: Every max-flow engine under test.  ``dinic`` is the loop reference
#: (repro.flow.dinic, used only by tests and the fuzzer); ``dinic_array``
#: and ``push_relabel_array`` call the two production engines directly;
#: ``push_relabel`` reaches the push-relabel engine by its FLOW_BACKENDS
#: name through the public :func:`repro.flow.solve_max_flow` dispatcher.
FLOW_ENGINES = {
    "dinic": dinic_max_flow,
    "dinic_array": dinic_array_max_flow,
    "push_relabel": partial(solve_max_flow, backend="push_relabel"),
    "push_relabel_array": push_relabel_array_max_flow,
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
