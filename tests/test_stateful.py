"""Stateful property-based tests (hypothesis RuleBasedStateMachine).

These machines drive long random interaction sequences against the
incremental structures, checking after every step that they agree with a
trivially-correct reference model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro import HIDDEN, LabelOracle, PointSet
from repro.core.errindex import ThresholdErrorIndex
from repro.core.passive_1d import best_threshold

CANDIDATES = [float(v) for v in range(8)]


class ThresholdIndexMachine(RuleBasedStateMachine):
    """The segment-tree index must always match a brute-force re-solve."""

    def __init__(self):
        super().__init__()
        self.index = ThresholdErrorIndex(CANDIDATES)
        self.values: list = []
        self.labels: list = []
        self.weights: list = []

    @rule(value=st.sampled_from(CANDIDATES), label=st.integers(0, 1),
          weight=st.floats(0.1, 4.0))
    def insert(self, value, label, weight):
        self.index.insert(value, label, weight)
        self.values.append(value)
        self.labels.append(label)
        self.weights.append(weight)

    @invariant()
    def minimum_matches_batch_solver(self):
        if not self.values:
            return
        _tau, err = self.index.best()
        _tau2, expected = best_threshold(self.values, self.labels, self.weights)
        assert abs(err - expected) < 1e-9 * max(1.0, expected)

    @invariant()
    def accounting_consistent(self):
        assert self.index.num_inserted == len(self.values)
        assert abs(self.index.total_weight - sum(self.weights)) < 1e-9


class OracleMachine(RuleBasedStateMachine):
    """The oracle's accounting is exact under arbitrary probe sequences."""

    def __init__(self):
        super().__init__()
        gen = np.random.default_rng(0)
        self.n = 12
        labels = gen.integers(0, 2, size=self.n)
        self.truth = labels
        points = PointSet([(float(i),) for i in range(self.n)], labels)
        self.oracle = LabelOracle(points)
        self.asked: set = set()
        self.requests = 0

    @rule(index=st.integers(0, 11))
    def probe(self, index):
        label = self.oracle.probe(index)
        assert label == self.truth[index]
        self.asked.add(index)
        self.requests += 1

    @rule(indices=st.lists(st.integers(0, 11), max_size=10))
    def probe_many(self, indices):
        labels = self.oracle.probe_many(np.asarray(indices, dtype=np.int64))
        assert labels == [int(self.truth[i]) for i in indices]
        self.asked.update(indices)
        self.requests += len(indices)

    @rule(indices=st.sets(st.integers(0, 11), max_size=4))
    def restore(self, indices):
        fresh = len(set(indices) - self.asked)
        assert self.oracle.restore(
            {i: int(self.truth[i]) for i in indices}) == fresh
        self.asked.update(indices)

    @rule()
    def reset(self):
        self.oracle.reset()
        self.asked.clear()
        self.requests = 0

    @invariant()
    def cost_counts_distinct(self):
        assert self.oracle.cost == len(self.asked)
        assert self.oracle.total_requests == self.requests

    @invariant()
    def revealed_matches_truth(self):
        revealed = self.oracle.revealed_labels(self.n)
        for i in self.asked:
            assert revealed[i] == self.truth[i]
        for i in set(range(self.n)) - self.asked:
            assert revealed[i] == HIDDEN


TestThresholdIndexMachine = ThresholdIndexMachine.TestCase
TestThresholdIndexMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)

TestOracleMachine = OracleMachine.TestCase
TestOracleMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
