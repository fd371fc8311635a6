"""Tests for Hasse diagrams (repro.poset.hasse)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet
from repro.poset.hasse import covers, hasse_edges, transitive_closure_from_hasse


class TestHasseEdges:
    def test_chain_has_consecutive_edges(self):
        ps = PointSet([(float(i),) for i in range(5)], [0] * 5)
        edges = set(hasse_edges(ps))
        assert edges == {(i, i + 1) for i in range(4)}

    def test_antichain_has_no_edges(self):
        ps = PointSet([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)], [0] * 3)
        assert hasse_edges(ps) == []

    def test_transitive_edge_removed(self, tiny_2d):
        edges = set(hasse_edges(tiny_2d))
        # (0,0) -> (2,2) is implied via (1,1) and via (2,0): not covering.
        assert (0, 3) not in edges
        assert (0, 1) in edges and (0, 2) in edges
        assert (1, 3) in edges and (2, 3) in edges

    def test_empty(self):
        assert hasse_edges(PointSet.from_points([])) == []

    def test_duplicates_chain_through_tie_break(self):
        ps = PointSet([(1.0,), (1.0,), (1.0,)], [0] * 3)
        edges = set(hasse_edges(ps))
        assert edges == {(0, 1), (1, 2)}

    def test_chain_258_no_uint8_overflow(self):
        """Regression: the old uint8 matrix product wrapped mod 256.

        On a 258-point chain, pair (0, 257) has exactly 256 intermediates,
        so its two-step count wrapped to 0 and the pair was falsely
        reported as covering.  A chain of n points has exactly n - 1
        covering edges, all consecutive.
        """
        ps = PointSet([(float(i),) for i in range(258)], [0] * 258)
        edges = hasse_edges(ps)
        assert len(edges) == 257
        assert (0, 257) not in edges
        assert set(edges) == {(i, i + 1) for i in range(257)}
        # covers() must agree with the edge list on the offending pair.
        assert not covers(ps, upper=257, lower=0)
        assert covers(ps, upper=257, lower=256)


class TestCovers:
    def test_direct_cover(self, tiny_2d):
        assert covers(tiny_2d, upper=1, lower=0)
        assert not covers(tiny_2d, upper=3, lower=0)  # something between
        assert not covers(tiny_2d, upper=0, lower=1)  # wrong direction


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 15), st.integers(1, 3), st.integers(0, 10_000))
def test_closure_of_hasse_recovers_order(n, dim, seed):
    """Property: transitive closure of covering edges == full order."""
    gen = np.random.default_rng(seed)
    ps = PointSet(gen.integers(0, 4, size=(n, dim)).astype(float), [0] * n)
    closure = transitive_closure_from_hasse(ps)
    assert (closure == ps.order_matrix()).all()


@settings(max_examples=5, deadline=None)
@given(st.integers(257, 300), st.integers(1, 3), st.integers(0, 10_000))
def test_closure_of_hasse_recovers_order_past_uint8(n, dim, seed):
    """Property at n > 256, where the old uint8 product could wrap mod 256.

    Low-cardinality integer coordinates force long chains through the
    duplicate tie-break, so two-step counts routinely exceed 255.
    """
    gen = np.random.default_rng(seed)
    ps = PointSet(gen.integers(0, 3, size=(n, dim)).astype(float), [0] * n)
    closure = transitive_closure_from_hasse(ps)
    assert (closure == ps.order_matrix()).all()
