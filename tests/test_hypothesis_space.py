"""Tests for the hypothesis-space enumeration oracle (tests/hypothesis_space.py)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, ThresholdClassifier, is_monotone_assignment, solve_passive
from .hypothesis_space import (
    count_monotone_assignments,
    effective_thresholds,
    enumerate_monotone_assignments,
)


class TestEffectiveThresholds:
    def test_contains_neg_inf_and_distinct_values(self):
        taus = effective_thresholds([2.0, 1.0, 2.0])
        assert taus == [float("-inf"), 1.0, 2.0]

    def test_every_threshold_equivalent_to_a_candidate(self, rng):
        """Eq. (7): any real threshold matches some candidate on P."""
        values = rng.integers(0, 8, size=30).astype(float)
        candidates = effective_thresholds(values)
        for tau in rng.uniform(-2, 10, size=50):
            h = ThresholdClassifier(float(tau))
            pred = h.classify_matrix(values.reshape(-1, 1))
            matched = False
            for c in candidates:
                cpred = ThresholdClassifier(c).classify_matrix(values.reshape(-1, 1))
                if (pred == cpred).all():
                    matched = True
                    break
            assert matched


class TestEnumeration:
    def test_chain_has_n_plus_one(self):
        ps = PointSet([(float(i),) for i in range(5)], [0] * 5)
        assert count_monotone_assignments(ps) == 6

    def test_antichain_has_2_to_n(self):
        ps = PointSet([(float(i), float(-i)) for i in range(4)], [0] * 4)
        assert count_monotone_assignments(ps) == 16

    def test_duplicates_forced_equal(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0)], [0, 0])
        assert count_monotone_assignments(ps) == 2  # both-0 or both-1

    def test_empty(self):
        ps = PointSet.from_points([])
        assignments = list(enumerate_monotone_assignments(ps))
        assert len(assignments) == 1

    def test_all_yielded_are_monotone_and_distinct(self, tiny_2d):
        seen = set()
        for assignment in enumerate_monotone_assignments(tiny_2d):
            assert is_monotone_assignment(tiny_2d, assignment)
            seen.add(tuple(assignment.tolist()))
        # Distinctness: the set size equals the yield count.
        assert len(seen) == count_monotone_assignments(tiny_2d)

    def test_size_guard(self):
        ps = PointSet(np.zeros((25, 1)), [0] * 25)
        with pytest.raises(ValueError):
            count_monotone_assignments(ps)

    def test_matches_filtered_power_set(self):
        """Cross-check the pruned enumeration against brute force."""
        from itertools import product

        gen = np.random.default_rng(3)
        for _ in range(10):
            n = int(gen.integers(1, 8))
            ps = PointSet(gen.integers(0, 3, size=(n, 2)).astype(float), [0] * n)
            expected = sum(
                1 for bits in product((0, 1), repeat=n)
                if is_monotone_assignment(ps, np.asarray(bits, dtype=np.int8))
            )
            assert count_monotone_assignments(ps) == expected


class TestAsOracleForPassive:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 10_000))
    def test_enumeration_confirms_solver_optimum(self, n, seed):
        """Property: min error over all enumerated hypotheses == solver."""
        gen = np.random.default_rng(seed)
        ps = PointSet(gen.integers(0, 4, size=(n, 2)).astype(float),
                      gen.integers(0, 2, size=n),
                      gen.random(n) + 0.1)
        best = min(
            float(ps.weights[assignment != ps.labels].sum())
            for assignment in enumerate_monotone_assignments(ps)
        )
        assert solve_passive(ps).optimal_error == pytest.approx(best)
