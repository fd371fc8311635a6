"""Stateful property-based tests (hypothesis RuleBasedStateMachine).

The machine drives long random probe / restore / reset sequences against
the label oracle, checking after every step that its accounting agrees
with a trivially-correct reference model.
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


TestOracleMachine = OracleMachine.TestCase
TestOracleMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
