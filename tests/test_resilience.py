"""Unit tests for the resilience layer (ISSUE 4).

Covers the fault model (deterministic injection, no charge on failed
attempts), the retry/breaker/reconciliation stack, the crash-safe probe
journal, shard-local budgets, hardened ``pool_map``, and oracle
consistency after a mid-recursion budget exhaustion.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import LabelOracle, PointSet
from repro.core.active_1d import build_weighted_sample_1d
from repro.core.callback_oracle import CallbackOracle
from repro.core.oracle import OracleShard, ProbeBudgetExceeded
from repro.datasets.synthetic import planted_threshold_1d
from repro.parallel.pool import WorkerCrashError, pool_map
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    FaultSpec,
    FaultyOracle,
    JournaledOracle,
    OraclePermanentError,
    OracleTransientError,
    ProbeRetriesExhausted,
    ResilientOracle,
    RetryPolicy,
    journal_path,
    read_journal,
    replay_journal,
)


def _truth(n=60, seed=0):
    return planted_threshold_1d(n, noise=0.1, rng=seed)


# ----------------------------------------------------------------------
# Module-level pool tasks (must be picklable).
# ----------------------------------------------------------------------

def _identity(x):
    return x


def _kill_if_marked(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _die_once(task):
    sentinel, value = task
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _flaky_via_file(task):
    counter, value = task
    with open(counter, "a", encoding="utf-8") as handle:
        handle.write("x")
    with open(counter, "r", encoding="utf-8") as handle:
        attempts = len(handle.read())
    if attempts < 2:
        raise RuntimeError("first attempt always fails")
    return value


def _sleep_then_return(x):
    time.sleep(x)
    return x


class TestFaultSpec:
    def test_parse_full(self):
        spec = FaultSpec.parse(
            "transient=0.1, timeout=0.05, flip=0.02, dead=0.01,"
            "dead_indices=3;7, latency=0.2, seed=9")
        assert spec.transient_rate == 0.1
        assert spec.timeout_rate == 0.05
        assert spec.flip_rate == 0.02
        assert spec.dead_rate == 0.01
        assert spec.dead_indices == (3, 7)
        assert spec.latency_mean == 0.2
        assert spec.seed == 9
        assert spec.active

    def test_parse_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown fault spec field"):
            FaultSpec.parse("transiet=0.1")

    def test_parse_rejects_non_number(self):
        with pytest.raises(ValueError, match="not a number"):
            FaultSpec.parse("transient=lots")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(transient_rate=1.5)

    def test_empty_spec_inactive(self):
        assert not FaultSpec().active


class TestFaultyOracle:
    def test_fault_pattern_is_deterministic(self):
        truth = _truth()
        spec = FaultSpec(transient_rate=0.3, seed=5)

        def pattern():
            faulty = FaultyOracle(LabelOracle(truth), spec)
            outcomes = []
            for index in range(truth.n):
                try:
                    outcomes.append(faulty.probe(index))
                except OracleTransientError:
                    outcomes.append("fault")
            return outcomes

        first, second = pattern(), pattern()
        assert first == second
        assert "fault" in first  # 30% over 60 probes: some must fire

    def test_failed_attempts_charge_nothing(self):
        truth = _truth()
        inner = LabelOracle(truth)
        faulty = FaultyOracle(inner, FaultSpec(transient_rate=1.0))
        with pytest.raises(OracleTransientError):
            faulty.probe(0)
        assert inner.cost == 0
        assert faulty.faults_injected == 1

    def test_retry_recovers_without_extra_charges(self):
        truth = _truth()
        inner = LabelOracle(truth)
        stack = ResilientOracle(
            FaultyOracle(inner, FaultSpec(transient_rate=0.4, seed=2)),
            RetryPolicy(max_attempts=12),
        )
        labels = [stack.probe(i) for i in range(truth.n)]
        assert labels == [int(v) for v in truth.labels]
        assert inner.cost == truth.n  # one charge per point, never more

    def test_dead_index_is_permanent_across_attempts(self):
        truth = _truth()
        faulty = FaultyOracle(LabelOracle(truth), FaultSpec(dead_indices=(4,)))
        for _ in range(3):
            with pytest.raises(OraclePermanentError):
                faulty.probe(4)
        assert faulty.probe(5) in (0, 1)

    def test_flips_can_disagree_across_reprobes(self):
        truth = _truth()
        faulty = FaultyOracle(LabelOracle(truth), FaultSpec(flip_rate=0.5, seed=1))
        readings = {faulty.probe(0) for _ in range(12)}
        assert readings == {0, 1}

    def test_timeout_against_simulated_latency(self):
        truth = _truth()
        faulty = FaultyOracle(LabelOracle(truth),
                              FaultSpec(latency_mean=1.0, seed=0),
                              timeout=1e-9)
        from repro.resilience import OracleTimeoutError

        with pytest.raises(OracleTimeoutError):
            faulty.probe(0)

    def test_shard_reapplies_fault_model(self):
        truth = _truth()
        parent = FaultyOracle(LabelOracle(truth), FaultSpec(transient_rate=1.0))
        shard = parent.shard([0, 1, 2])
        assert isinstance(shard, FaultyOracle)
        with pytest.raises(OracleTransientError):
            shard.probe(0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(votes=2)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05,
                             jitter=0.0)
        delays = [policy.delay_for(0, k) for k in range(1, 8)]
        assert delays == sorted(delays)
        assert delays[-1] == 0.05

    def test_jitter_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3)
        a = policy.delay_for(7, 1)
        b = policy.delay_for(7, 1)
        assert a == b
        assert 0.05 <= a <= 0.1
        assert policy.delay_for(8, 1) != a  # per-index stream


class TestResilientOracle:
    def test_exhaustion_raises_with_cause(self):
        truth = _truth()
        stack = ResilientOracle(
            FaultyOracle(LabelOracle(truth), FaultSpec(transient_rate=1.0)),
            RetryPolicy(max_attempts=3),
        )
        with pytest.raises(ProbeRetriesExhausted) as excinfo:
            stack.probe(0)
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OracleTransientError)
        assert stack.retries == 2  # attempts 2 and 3 were retries

    def test_permanent_error_not_retried(self):
        truth = _truth()
        stack = ResilientOracle(
            FaultyOracle(LabelOracle(truth), FaultSpec(dead_indices=(0,))),
            RetryPolicy(max_attempts=5),
        )
        with pytest.raises(OraclePermanentError):
            stack.probe(0)
        assert stack.retries == 0

    def test_majority_vote_fixes_flips(self):
        truth = _truth(n=40)
        inner = LabelOracle(truth)
        stack = ResilientOracle(
            FaultyOracle(inner, FaultSpec(flip_rate=0.05, seed=4)),
            RetryPolicy(max_attempts=3, votes=5),
        )
        labels = [stack.probe(i) for i in range(truth.n)]
        assert labels == [int(v) for v in truth.labels]
        assert stack.reconciliations > 0
        assert inner.cost == truth.n


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_open_recovers(self):
        breaker = CircuitBreaker(threshold=3, cooldown=2)
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        # Rejections while open.
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        # Cooldown reached: the next call is the half-open trial.
        breaker.before_call()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.state == "open"
        breaker.before_call()  # trial
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_breaker_opens_through_resilient_oracle(self):
        truth = _truth()
        stack = ResilientOracle(
            FaultyOracle(LabelOracle(truth), FaultSpec(transient_rate=1.0)),
            RetryPolicy(max_attempts=10),
            CircuitBreaker(threshold=4, cooldown=100),
        )
        with pytest.raises((ProbeRetriesExhausted, CircuitOpenError)):
            stack.probe(0)
        assert stack.breaker.state == "open"


class TestJournal:
    def test_journal_and_replay_round_trip(self, tmp_path):
        truth = _truth()
        path = tmp_path / "probes.journal"
        inner = LabelOracle(truth)
        journaled = JournaledOracle(inner, path, meta={"n": truth.n})
        for index in (3, 1, 3, 5):  # the repeat must not re-journal
            journaled.probe(index)
        journaled.close()
        assert journaled.appends == 3

        meta, revealed = read_journal(path)
        assert meta == {"n": truth.n}
        assert set(revealed) == {1, 3, 5}

        fresh = LabelOracle(truth)
        assert replay_journal(path, fresh) == 3
        assert fresh.cost == 3
        assert fresh.peek(3) == int(truth.labels[3])
        # Restored labels are free: re-probing charges nothing new.
        fresh.probe(3)
        assert fresh.cost == 3

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "torn.journal"
        path.write_text('{"i": 1, "l": 0}\n{"i": 2, "l"', encoding="utf-8")
        _meta, revealed = read_journal(path)
        assert revealed == {1: 0}

    def test_resume_after_torn_write_truncates_partial_line(self, tmp_path):
        """Reopening after a crash mid-append must not append onto the
        partial line: the merged line would sit mid-file, read_journal
        would reject the journal, and the first resumed probe would be
        lost."""
        truth = _truth()
        path = tmp_path / "resume.journal"
        with JournaledOracle(LabelOracle(truth), path,
                             meta={"n": truth.n}) as journaled:
            journaled.probe(0)
            journaled.probe(1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"i": 2, "l"')  # crash mid-append
        with JournaledOracle(LabelOracle(truth), path,
                             meta={"n": truth.n}) as resumed:
            resumed.probe(3)
            resumed.probe(4)
        meta, revealed = read_journal(path)
        assert meta == {"n": truth.n}
        assert revealed == {i: int(truth.labels[i]) for i in (0, 1, 3, 4)}
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "corrupt.journal"
        path.write_text('not json\n{"i": 1, "l": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt probe journal"):
            read_journal(path)

    def test_restore_rejects_contradicting_label(self):
        truth = _truth()
        oracle = LabelOracle(truth)
        wrong = {0: 1 - int(truth.labels[0])}
        with pytest.raises(ValueError, match="contradicts"):
            oracle.restore(wrong)

    def test_callback_oracle_restore_skips_labeler(self):
        truth = _truth()

        def labeler(coords):  # pragma: no cover - must never be called
            raise AssertionError("restore must not re-pay the labeler")

        oracle = CallbackOracle(truth.with_hidden_labels(), labeler)
        assert oracle.restore({0: 1, 4: 0}) == 2
        assert oracle.cost == 2
        assert oracle.probe(0) == 1  # cached, labeler not invoked

    def test_journal_path_is_sibling(self, tmp_path):
        assert journal_path(tmp_path / "run.ckpt.json").name == \
            "run.ckpt.json.journal"


class TestShardBudget:
    def test_shard_budget_enforced_shard_side(self):
        truth = _truth()
        oracle = LabelOracle(truth)
        shard = oracle.shard(range(10), budget=3)
        for index in range(3):
            shard.probe(index)
        with pytest.raises(ProbeBudgetExceeded, match="shard probe budget"):
            shard.probe(3)
        # Repeats and preknown stay free even at the cap.
        assert shard.probe(0) in (0, 1)
        assert shard.cost == 3
        assert shard.remaining_budget() == 0

    def test_unbudgeted_shard_caught_at_absorb(self):
        truth = _truth()
        oracle = LabelOracle(truth, budget=2)
        shard = oracle.shard(range(10))  # no shard-side cap
        for index in range(5):
            shard.probe(index)  # over-spends silently in the worker
        with pytest.raises(ProbeBudgetExceeded):
            oracle.absorb(shard.log, shard.new_revealed)
        assert oracle.cost == 2  # budget exactly exhausted, not blown past

    def test_preknown_labels_do_not_count_against_budget(self):
        truth = _truth()
        oracle = LabelOracle(truth)
        oracle.probe(0)
        shard = oracle.shard(range(5), budget=1)
        assert shard.probe(0) in (0, 1)  # preknown: free
        shard.probe(1)  # the single budgeted charge
        with pytest.raises(ProbeBudgetExceeded):
            shard.probe(2)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            OracleShard(labels={0: 1}, budget=-1)


class TestPoolHardening:
    def test_task_retries_serial(self, tmp_path):
        counter = str(tmp_path / "attempts")
        results = pool_map(_flaky_via_file, [(counter, "ok")], workers=1,
                           task_retries=2)
        assert results == ["ok"]

    def test_task_retries_parallel(self, tmp_path):
        counter = str(tmp_path / "attempts")
        results = pool_map(_flaky_via_file, [(counter, "ok")], workers=2,
                           task_retries=2)
        assert results == ["ok"]

    def test_task_retries_exhausted_reports_last_error(self):
        def always_fails(_x):
            raise RuntimeError("never works")

        results = pool_map(always_fails, [1], workers=1, task_retries=2,
                           return_exceptions=True)
        assert isinstance(results[0], RuntimeError)

    def test_sigkilled_worker_yields_crash_error_not_poison(self):
        tasks = ["a", "die", "b", "c"]
        results = pool_map(_kill_if_marked, tasks, workers=2,
                           return_exceptions=True)
        assert results[0] == "a"
        assert isinstance(results[1], WorkerCrashError)
        assert results[2] == "b"
        assert results[3] == "c"

    def test_sigkilled_worker_raises_without_return_exceptions(self):
        with pytest.raises(WorkerCrashError):
            pool_map(_kill_if_marked, ["a", "die"], workers=2)

    def test_one_time_crash_recovers_on_fresh_pool(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        results = pool_map(_die_once, [(sentinel, "recovered")], workers=2)
        assert results == ["recovered"]

    def test_task_timeout_flags_straggler(self):
        results = pool_map(_sleep_then_return, [0.01, 30.0], workers=2,
                           task_timeout=1.0, return_exceptions=True)
        assert results[0] == 0.01
        assert isinstance(results[1], TimeoutError)


class TestBudgetExhaustionConsistency:
    """ProbeBudgetExceeded mid-recursion leaves the oracle resumable."""

    def _run_until_exhausted(self, truth, budget):
        oracle = LabelOracle(truth, budget=budget)
        values = truth.coords[:, 0]
        with pytest.raises(ProbeBudgetExceeded):
            build_weighted_sample_1d(values, np.arange(truth.n), oracle,
                                     epsilon=0.5, delta=0.1, rng=0)
        return oracle

    def test_oracle_state_coherent_after_exhaustion(self):
        truth = _truth(n=200, seed=3)
        oracle = self._run_until_exhausted(truth, budget=40)
        assert oracle.cost == 40  # exactly exhausted, never overdrawn
        assert len(oracle.revealed_indices) == 40
        assert set(oracle.revealed_indices) <= set(oracle.log)
        for index in oracle.revealed_indices:
            assert oracle.peek(index) == int(truth.labels[index])
        # The failed probe was logged as a request but never charged.
        assert oracle.total_requests >= oracle.cost

    def test_resume_after_exhaustion_pays_zero_duplicates(self):
        truth = _truth(n=200, seed=3)
        exhausted = self._run_until_exhausted(truth, budget=40)
        paid = {i: exhausted.peek(i) for i in exhausted.revealed_indices}

        # Reference: the same run, uninterrupted.
        reference = LabelOracle(truth)
        ref_sigma, _, _ = build_weighted_sample_1d(
            truth.coords[:, 0], np.arange(truth.n), reference,
            epsilon=0.5, delta=0.1, rng=0)

        # Resume: restore the paid probes, lift the budget, rerun with the
        # same seed.  Restored labels are free dedup hits, so the total
        # charged across both runs equals the single-run cost.
        resumed = LabelOracle(truth)
        assert resumed.restore(paid) == 40
        sigma, _, _ = build_weighted_sample_1d(
            truth.coords[:, 0], np.arange(truth.n), resumed,
            epsilon=0.5, delta=0.1, rng=0)
        new_charges = resumed.cost - 40
        assert 40 + new_charges == reference.cost
        assert sigma.weights == ref_sigma.weights
        assert sigma.labels == ref_sigma.labels


class TestDegradedRecursion:
    def test_degrade_returns_partial_sigma_with_halt_trace(self):
        truth = _truth(n=200, seed=3)
        oracle = LabelOracle(truth, budget=40)
        sigma, _levels, trace = build_weighted_sample_1d(
            truth.coords[:, 0], np.arange(truth.n), oracle,
            epsilon=0.5, delta=0.1, rng=0, degrade=True)
        assert trace[-1].kind == "halted"
        assert "ProbeBudgetExceeded" in (trace[-1].note or "")
        assert 0 < sigma.size <= 40
        assert oracle.cost == 40
