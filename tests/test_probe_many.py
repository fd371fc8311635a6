"""Differential tests of batched probing against the per-index path.

``LabelOracle.probe_many`` answers a whole index array in a few array
passes.  Its contract is that of a loop of :meth:`LabelOracle.probe`, so
every test here runs the same requests both ways, on twin oracles, and
compares everything observable: labels, the probe log, cost, reveal
order, the exception and the state it leaves, and the ``oracle.*``
metrics.  The active fit is compared the same way: through
``OracleWrapper`` (whose ``probe_many`` is the per-index loop) against a
bare ``LabelOracle``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LabelOracle, PointSet, active_classify
from repro.core.active_1d import build_weighted_sample_1d
from repro.datasets.synthetic import planted_threshold_1d, width_controlled
from repro.obs import metrics_session
from repro.resilience import ResilienceConfig
from repro.resilience.wrappers import OracleWrapper

N = 10
LABELS = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]


def _oracle(budget=None, restored=()):
    oracle = LabelOracle(PointSet([(float(i),) for i in range(N)], LABELS),
                         budget=budget)
    if restored:
        oracle.restore({i: LABELS[i] for i in restored})
    return oracle


def _loop(oracle, indices):
    return [oracle.probe(i) for i in indices]


def _observe(oracle, call, indices):
    """Everything a batch of probes leaves behind, exception included."""
    with metrics_session() as registry:
        try:
            outcome = ("ok", call(oracle, indices))
        except Exception as exc:  # noqa: BLE001 — the exception is compared
            outcome = (type(exc), str(exc))
    snapshot = registry.snapshot()
    return {
        "outcome": outcome,
        "log": oracle.log,
        "cost": oracle.cost,
        "revealed": oracle.revealed_indices,
        "labels": [oracle.peek(i) for i in range(N)],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


def _assert_same(indices, budget=None, restored=(), follow_up=None):
    """Batch vs loop on twin oracles, then a follow-up batch on each."""
    batch, loop = _oracle(budget, restored), _oracle(budget, restored)
    expected = _observe(loop, _loop, list(indices))
    assert _observe(batch, LabelOracle.probe_many, indices) == expected
    # The state after the call (or the raise) must answer the same way.
    follow_up = list(range(N)) if follow_up is None else follow_up
    assert _observe(batch, LabelOracle.probe_many, np.asarray(follow_up)) == \
        _observe(loop, _loop, follow_up)
    return expected


_indices = st.lists(st.integers(-2, N + 1), max_size=24)


class TestProbeManyMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(indices=_indices,
           budget=st.none() | st.integers(0, N),
           restored=st.sets(st.integers(0, N - 1), max_size=4),
           follow_up=st.lists(st.integers(0, N - 1), max_size=12))
    def test_random_index_arrays(self, indices, budget, restored, follow_up):
        _assert_same(np.asarray(indices, dtype=np.int64), budget,
                     sorted(restored), follow_up)

    @pytest.mark.parametrize("position", ["start", "middle", "end"])
    def test_out_of_range_index(self, position):
        indices = [3, 3, 1, 8, 1, 5]
        at = {"start": 0, "middle": 3, "end": len(indices)}[position]
        indices.insert(at, N)
        observed = _assert_same(np.asarray(indices))
        assert observed["outcome"] == (IndexError,
                                       f"point index {N} out of range")
        assert observed["log"] == indices[:at]

    @pytest.mark.parametrize("bad", [-1, N, N + 7])
    def test_out_of_range_after_budget_failure(self, bad):
        """The first failing request decides the exception."""
        observed = _assert_same(np.asarray([0, 1, 2, 3, bad]), budget=2)
        assert observed["outcome"][0].__name__ == "ProbeBudgetExceeded"
        observed = _assert_same(np.asarray([0, bad, 1, 2, 3]), budget=2)
        assert observed["outcome"][0] is IndexError

    def test_budget_exhausted_mid_batch_with_repeats(self):
        observed = _assert_same(np.asarray([4, 4, 2, 4, 2, 7, 4, 9, 2]),
                                budget=2)
        assert observed["cost"] == 2
        # The refused request is logged; nothing after it is.
        assert observed["log"] == [4, 4, 2, 4, 2, 7]
        assert observed["counters"]["oracle.budget_exceeded"] == 1
        assert observed["gauges"]["oracle.budget_remaining"] == 0

    def test_restore_first(self):
        observed = _assert_same(np.asarray([5, 6, 5, 0, 6]), budget=3,
                                restored=[5, 6])
        assert observed["revealed"] == [5, 6, 0]
        assert observed["counters"] == {"oracle.requests": 5,
                                         "oracle.dedup_hits": 4,
                                         "oracle.probes": 1}

    def test_restored_past_the_budget(self):
        """Restore does not check the budget; the next new reveal fails."""
        _assert_same(np.asarray([0, 1, 2]), budget=1, restored=[1, 2])

    @pytest.mark.parametrize("make", [
        lambda: [], lambda: [2.0, 3.0], lambda: np.array([2.0, 3.0]),
        lambda: [True, False, True], lambda: range(4), lambda: [7, 7, 1],
        lambda: (i for i in (1, 1, 3)),
    ], ids=["empty", "floats", "float-array", "bools", "range", "list",
            "generator"])
    def test_any_iterable(self, make):
        batch, loop = _oracle(), _oracle()
        assert batch.probe_many(make()) == _loop(loop, list(make()))
        assert batch.log == loop.log and batch.cost == loop.cost

    def test_reset_and_absorb_keep_the_batch_path_in_sync(self):
        batch, loop = _oracle(), _oracle()
        for oracle in (batch, loop):
            oracle.probe_many([1, 2])
            oracle.reset()
            shard = oracle.shard([3, 4, 5])
            shard.probe_many([3, 5])
            oracle.absorb(shard.log, shard.new_revealed)
        assert _observe(batch, LabelOracle.probe_many, np.arange(N)) == \
            _observe(loop, _loop, list(range(N)))


def _fit_observation(oracle, inner, points, seed, degrade):
    hidden = points.with_hidden_labels()
    resilience = ResilienceConfig(degrade=True) if degrade else None
    with metrics_session() as registry:
        try:
            result = active_classify(hidden, oracle, epsilon=0.5, rng=seed,
                                     resilience=resilience)
        except Exception as exc:  # noqa: BLE001 — the exception is compared
            outcome = (type(exc), str(exc))
        else:
            indices, weights, labels = result.sigma.arrays()
            outcome = (
                indices.tolist(), weights.tobytes(), labels.tolist(),
                dict(result.sigma.weights), dict(result.sigma.labels),
                result.classifier.classify_matrix(points.coords).tobytes(),
                result.probing_cost, result.sigma_error,
                result.report.halt_reason if result.report else None,
            )
    snapshot = registry.snapshot()
    return {
        "outcome": outcome,
        "log": inner.log,
        "cost": inner.cost,
        "revealed": inner.revealed_indices,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


class TestActiveFitMatchesPerIndexPath:
    """The batched fit equals the fit through the per-index wrapper."""

    @pytest.mark.parametrize("seed,budget,degrade", [
        (0, None, False), (1, None, False), (2, None, False),
        (3, 150, True), (4, 150, False),
    ])
    def test_sigma_log_classifier_and_counters(self, seed, budget, degrade):
        points = width_controlled(1_200, 3, noise=0.1, rng=seed)
        plain = LabelOracle(points, budget=budget)
        inner = LabelOracle(points, budget=budget)
        expected = _fit_observation(OracleWrapper(inner), inner, points, seed,
                                    degrade)
        observed = _fit_observation(plain, plain, points, seed, degrade)
        assert observed == expected
        if budget is not None:
            assert observed["cost"] == budget  # the run really was cut

    def test_oracle_with_only_probe(self):
        """An oracle without ``probe_many`` is probed one index at a time."""

        class ProbeOnly:
            def __init__(self, inner):
                self.inner = inner

            @property
            def cost(self):
                return self.inner.cost

            def probe(self, index):
                assert type(index) is int
                return self.inner.probe(index)

        points = width_controlled(1_200, 3, noise=0.1, rng=5)
        inner, plain = LabelOracle(points), LabelOracle(points)
        assert _fit_observation(ProbeOnly(inner), inner, points, 5, False) == \
            _fit_observation(plain, plain, points, 5, False)

    def test_degraded_base_case_keeps_the_answered_prefix(self):
        """A budget that runs out inside a base case keeps the labels
        answered before the refused one, at weight 1 each."""
        truth = planted_threshold_1d(12, noise=0.2, rng=0)
        oracle = LabelOracle(truth, budget=7)
        sigma, _levels, trace = build_weighted_sample_1d(
            truth.coords[:, 0], np.arange(truth.n), oracle,
            epsilon=0.5, delta=0.1, rng=0, degrade=True)
        assert [level.kind for level in trace] == ["base", "halted"]
        assert sigma.size == 7
        assert set(sigma.weights) == set(oracle.revealed_indices)
        assert set(sigma.weights.values()) == {1.0}
