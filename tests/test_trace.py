"""Tests for timeline tracing (repro.obs.trace + registry trace buffer).

Covers span event identity/parentage, wall-aligned timestamps, exception
safety, instant events, the Chrome trace-event round trip, cross-process
re-rooting through ``pool_map``, and the resilience integration: retry
attempts as sibling spans, fault instant events, and kill/resume runs
producing well-formed trace files.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    chrome_trace_document,
    load_trace_events,
    metrics_session,
    recorder,
    to_chrome_trace,
)
from repro.parallel.pool import pool_map
from repro.resilience import (
    FaultSpec,
    FaultyOracle,
    OracleTransientError,
    ResilientOracle,
    RetryPolicy,
)


def _span_events(registry):
    return [e for e in registry.trace_events if e["cat"] == "span"]


class TestSpanEvents:
    def test_nested_spans_record_identity_and_parentage(self):
        reg = MetricsRegistry("t", trace=True)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        inner, outer = reg.trace_events  # inner closes (and records) first
        assert inner["path"] == "outer/inner"
        assert outer["path"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["pid"] == outer["pid"] == os.getpid()
        assert inner["dur"] >= 0 and outer["dur"] >= inner["dur"]

    def test_timestamps_are_wall_aligned(self):
        before = time.time_ns()
        reg = MetricsRegistry("t", trace=True)
        with reg.span("s"):
            pass
        after = time.time_ns()
        (event,) = reg.trace_events
        assert before <= event["ts"] <= event["ts"] + event["dur"] <= after

    def test_child_interval_nested_within_parent(self):
        reg = MetricsRegistry("t", trace=True)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        inner, outer = reg.trace_events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_span_closed_on_exception_with_error_attr(self):
        reg = MetricsRegistry("t", trace=True)
        with pytest.raises(RuntimeError):
            with reg.span("doomed"):
                raise RuntimeError("boom")
        (event,) = reg.trace_events
        assert event["args"]["error"] == "RuntimeError"
        assert event["dur"] is not None
        assert reg._span_stack == []

    def test_set_attr_lands_in_event_args(self):
        reg = MetricsRegistry("t", trace=True)
        with reg.span("s") as span:
            span.set_attr("n", 42)
        assert reg.trace_events[0]["args"] == {"n": 42}

    def test_instant_event_parented_to_open_span(self):
        reg = MetricsRegistry("t", trace=True)
        with reg.span("phase"):
            reg.event("fault.transient", index=7)
        mark, span = reg.trace_events
        assert mark["cat"] == "mark" and mark["dur"] is None
        assert mark["path"] == "phase"
        assert mark["parent"] == span["id"]
        assert mark["args"] == {"index": 7}

    def test_no_trace_no_buffer(self):
        reg = MetricsRegistry("t")  # trace off
        with reg.span("s"):
            reg.event("mark")
        assert reg.trace_events == []
        assert reg.spans["s"].count == 1  # duration histograms still work

    def test_trace_limit_drops_and_counts(self):
        reg = MetricsRegistry("t", trace=True, trace_limit=3)
        for _ in range(5):
            with reg.span("s"):
                pass
        assert len(reg.trace_events) == 3
        assert reg.trace_dropped == 2

    def test_session_trace_flag_upgrades_registry(self):
        reg = MetricsRegistry("t")
        with metrics_session(reg, trace=True):
            with recorder().span("s"):
                pass
        assert reg.trace and len(reg.trace_events) == 1


class TestChromeRoundTrip:
    def _traced_registry(self):
        reg = MetricsRegistry("t", trace=True)
        with reg.span("outer") as span:
            span.set_attr("k", "v")
            reg.event("mark", index=1)
            with reg.span("inner"):
                pass
        return reg

    def test_document_structure(self):
        reg = self._traced_registry()
        doc = chrome_trace_document(reg)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("M") == 1  # one process_name metadata track
        assert phases.count("X") == 2 and phases.count("i") == 1
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        assert doc["otherData"]["format"].startswith("repro.obs.trace/")

    def test_round_trip_preserves_events(self, tmp_path):
        reg = self._traced_registry()
        path = tmp_path / "trace.json"
        to_chrome_trace(reg, path)
        loaded = load_trace_events(path)
        original = sorted(reg.trace_events, key=lambda e: e["ts"])
        assert len(loaded) == len(original)
        for got, want in zip(loaded, original):
            assert got["path"] == want["path"]
            assert got["id"] == want["id"]
            assert got["parent"] == want["parent"]
            assert got["dur"] == want["dur"]
            assert got["ts"] == want["ts"]
            assert got["pid"] == want["pid"]
        # The mark's payload survives the args round trip.
        marks = [e for e in loaded if e["cat"] == "mark"]
        assert marks and marks[0]["args"] == {"index": 1}

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace_events(bad)
        notrace = tmp_path / "notrace.json"
        notrace.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="not a Chrome trace"):
            load_trace_events(notrace)

    def test_foreign_bare_array_accepted(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps([
            {"ph": "X", "name": "work", "ts": 5.0, "dur": 2.0,
             "pid": 1, "tid": 1},
        ]))
        (event,) = load_trace_events(foreign)
        assert event["path"] == "work" and event["dur"] == 2000


class TestMergeReRooting:
    def test_worker_snapshot_rerooted_under_dispatching_span(self):
        worker = MetricsRegistry("worker", trace=True)
        with worker.span("chain[0]"):
            pass
        snapshot = worker.snapshot()

        parent = MetricsRegistry("parent", trace=True)
        with parent.span("sample_chains") as dispatch:
            parent.merge_snapshot(snapshot, span_prefix="sample_chains")
        merged = [e for e in parent.trace_events
                  if e["path"] == "sample_chains/chain[0]"]
        assert len(merged) == 1
        assert merged[0]["parent"] == dispatch.span_id
        # Worker identity (pid, timestamps) is preserved untouched.
        assert merged[0]["pid"] == worker.trace_events[0]["pid"]
        assert merged[0]["ts"] == worker.trace_events[0]["ts"]

    def test_merge_folds_trace_dropped(self):
        worker = MetricsRegistry("worker", trace=True, trace_limit=1)
        for _ in range(3):
            with worker.span("s"):
                pass
        parent = MetricsRegistry("parent", trace=True)
        parent.merge_snapshot(worker.snapshot())
        assert parent.trace_dropped == 2

    def test_merge_into_untraced_registry_ignores_trace(self):
        worker = MetricsRegistry("worker", trace=True)
        with worker.span("s"):
            pass
        parent = MetricsRegistry("parent")  # no tracing
        parent.merge_snapshot(worker.snapshot(), span_prefix="root")
        assert parent.trace_events == []
        assert parent.spans["root/s"].count == 1


def _traced_task(x: int) -> int:
    """Worker-side task: one span plus one histogram observation."""
    rec = recorder()
    with rec.span(f"task[{x}]"):
        rec.observe("task.value", float(x))
    return 2 * x


class TestCrossProcessPropagation:
    def test_trace_context_mirrors_session(self):
        assert TraceContext.current() == TraceContext()
        with metrics_session(name="s", trace=True) as reg:
            with reg.span("dispatch"):
                ctx = TraceContext.current()
        assert ctx == TraceContext(capture=True, trace=True,
                                   parent_path="dispatch")

    def test_pool_map_reroots_worker_span_trees(self):
        with metrics_session(name="parent", trace=True) as reg:
            with reg.span("dispatch") as dispatch:
                results = pool_map(_traced_task, [0, 1, 2], workers=2)
        assert results == [0, 2, 4]
        task_events = [e for e in _span_events(reg)
                       if e["path"].startswith("dispatch/task[")]
        assert {e["path"] for e in task_events} == {
            "dispatch/task[0]", "dispatch/task[1]", "dispatch/task[2]"}
        assert all(e["parent"] == dispatch.span_id for e in task_events)
        assert all(e["pid"] != os.getpid() for e in task_events)

    def test_worker_merged_quantiles_equal_serial(self):
        """Regression: quantiles must not depend on the worker count."""
        tasks = list(range(40))
        with metrics_session(name="serial") as serial_reg:
            pool_map(_traced_task, tasks, workers=1)
        with metrics_session(name="pooled") as pooled_reg:
            pool_map(_traced_task, tasks, workers=2)
        serial = serial_reg.histograms["task.value"].snapshot()
        pooled = pooled_reg.histograms["task.value"].snapshot()
        for key in ("count", "total", "min", "max",
                    "p50", "p90", "p99", "p999"):
            assert serial[key] == pooled[key], key


class _FlakyOracle:
    """Fails the first probe of every index with a transient error."""

    def __init__(self):
        self.seen = set()

    def probe(self, index: int) -> int:
        if index not in self.seen:
            self.seen.add(index)
            raise OracleTransientError(f"first probe of {index} failed")
        return 1


class TestResilienceTracing:
    def test_retry_attempts_appear_as_sibling_spans(self):
        oracle = ResilientOracle(_FlakyOracle(), RetryPolicy(max_attempts=3))
        with metrics_session(name="r", trace=True) as reg:
            with reg.span("probing") as parent:
                assert oracle.probe(4) == 1
                assert oracle.probe(9) == 1
        retries = [e for e in _span_events(reg)
                   if e["name"].startswith("retry[")]
        assert [e["path"] for e in retries] == ["probing/retry[2]"] * 2
        # Siblings: both parented to the phase span, not to each other.
        assert all(e["parent"] == parent.span_id for e in retries)
        assert retries[0]["args"]["index"] == 4
        assert retries[1]["args"]["index"] == 9

    def test_failed_retry_span_closes_with_error(self):
        class _AlwaysDown:
            def probe(self, index: int) -> int:
                raise OracleTransientError("down")

        oracle = ResilientOracle(_AlwaysDown(), RetryPolicy(max_attempts=2))
        from repro.resilience import ProbeRetriesExhausted

        with metrics_session(name="r", trace=True) as reg:
            with pytest.raises(ProbeRetriesExhausted):
                oracle.probe(0)
        (retry,) = [e for e in _span_events(reg)
                    if e["name"] == "retry[2]"]
        assert retry["args"]["error"] == "OracleTransientError"

    def test_fault_injection_emits_instant_events(self):
        class _Ones:
            def probe(self, index: int) -> int:
                return 1

        faulty = FaultyOracle(_Ones(), FaultSpec(dead_indices=(3,)))
        with metrics_session(name="f", trace=True) as reg:
            from repro.resilience import OraclePermanentError

            with pytest.raises(OraclePermanentError):
                faulty.probe(3)
        marks = [e for e in reg.trace_events if e["cat"] == "mark"]
        assert [m["name"] for m in marks] == ["fault.dead"]
        assert marks[0]["args"] == {"index": 3}


def _level_spans(registry):
    return [e for e in _span_events(registry) if e["name"] == "active1d.level"]


class TestActiveLevelSpans:
    """One ``active1d.level`` span per recursion ``LevelTrace`` entry."""

    def test_fit_has_one_level_span_per_trace_entry(self):
        from repro import LabelOracle, active_classify
        from repro.datasets.synthetic import width_controlled

        points = width_controlled(3_000, 3, noise=0.1, rng=4)
        with metrics_session(name="a", trace=True) as reg:
            active_classify(points.with_hidden_labels(), LabelOracle(points),
                            epsilon=0.5, rng=4)
        levels = _level_spans(reg)
        assert len(levels) == reg.counter_value("active1d.levels") > 3
        chains = {e["id"]: e for e in _span_events(reg)
                  if e["name"].startswith("chain[")}
        for event in levels:
            parent = chains[event["parent"]]
            assert event["path"] == f"{parent['path']}/active1d.level"
            assert set(event["args"]) == {"depth", "kind", "population"}
        kinds = {}
        for event in levels:
            kinds[event["args"]["kind"]] = kinds.get(event["args"]["kind"], 0) + 1
        assert kinds == {
            kind: reg.counter_value(f"active1d.levels.{kind.replace('-', '_')}")
            for kind in kinds}

    @pytest.mark.parametrize("n,budget", [(20_000, 400), (12, 7)],
                             ids=["halt-in-sample", "halt-in-base-case"])
    def test_degraded_halt_is_a_level_span(self, n, budget):
        import numpy as np

        from repro import LabelOracle
        from repro.core.active_1d import build_weighted_sample_1d
        from repro.datasets.synthetic import planted_threshold_1d

        truth = planted_threshold_1d(n, noise=0.1, rng=3)
        with metrics_session(name="d", trace=True) as reg:
            with reg.span("chain[0]"):
                _sigma, _levels, trace = build_weighted_sample_1d(
                    truth.coords[:, 0], np.arange(n),
                    LabelOracle(truth, budget=budget),
                    epsilon=1.0, delta=0.1, rng=0, degrade=True)
        assert trace[-1].kind == "halted"
        # Halting inside a sample leaves its level without an entry of its
        # own; halting inside a base case follows the level's "base" entry.
        assert trace[-2].kind == ("shrink" if n > 1_000 else "base")
        assert [(e["args"]["depth"], e["args"]["kind"],
                 e["args"]["population"]) for e in _level_spans(reg)] == \
            [(level.depth, level.kind, level.population) for level in trace]
        assert all(e["path"] == "chain[0]/active1d.level"
                   for e in _level_spans(reg))


@pytest.fixture
def labeled_file(tmp_path):
    data = tmp_path / "pts.json"
    assert cli_main(["generate", str(data), "--kind", "width", "--n", "120",
                     "--width", "2", "--seed", "3"]) == 0
    return data


class TestCLITracing:
    def test_active_trace_out_produces_valid_chrome_trace(
            self, labeled_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = cli_main(["active", str(labeled_file), "--epsilon", "0.8",
                         "--workers", "2", "--trace-out", str(trace_path)])
        assert code == 0
        events = load_trace_events(trace_path)
        paths = {e["path"] for e in events}
        assert any(p.startswith("active/sample_chains/chain[")
                   for p in paths)
        # Every parent referenced by an event exists in the file.
        ids = {e["id"] for e in events}
        assert all(e["parent"] in ids for e in events
                   if e["parent"] is not None)

    def test_trace_written_even_when_command_fails(
            self, labeled_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        from repro.resilience import ProbeRetriesExhausted

        with pytest.raises(ProbeRetriesExhausted):
            cli_main(["active", str(labeled_file), "--epsilon", "0.8",
                      "--retry-max", "2",
                      "--inject-faults", "transient=1.0,seed=1",
                      "--trace-out", str(trace_path)])
        events = load_trace_events(trace_path)  # well-formed despite crash
        assert any(e["name"].startswith("retry[") for e in events)
        assert any(e["cat"] == "mark" and e["name"] == "fault.transient"
                   for e in events)

    def test_checkpoint_resume_traces_are_well_formed(
            self, labeled_file, tmp_path):
        checkpoint = tmp_path / "ckpt.json"
        first_trace = tmp_path / "first.json"
        resumed_trace = tmp_path / "resumed.json"
        assert cli_main(["active", str(labeled_file), "--epsilon", "0.8",
                         "--checkpoint", str(checkpoint),
                         "--trace-out", str(first_trace)]) == 0
        assert cli_main(["active", str(labeled_file), "--epsilon", "0.8",
                         "--checkpoint", str(checkpoint), "--resume",
                         "--trace-out", str(resumed_trace)]) == 0
        for path in (first_trace, resumed_trace):
            events = load_trace_events(path)
            assert any(e["path"] == "active" for e in events)
            assert all(e["dur"] is not None or e["cat"] == "mark"
                       for e in events)

    def test_unwritable_trace_out_exits_2_before_running(
            self, labeled_file, tmp_path, capsys):
        code = cli_main(["active", str(labeled_file),
                         "--trace-out", str(tmp_path / "no" / "t.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_metrics_out_directory_is_rejected(self, labeled_file, tmp_path,
                                               capsys):
        code = cli_main(["passive", str(labeled_file),
                         "--metrics-out", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_fuzz_accepts_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "fuzz_trace.json"
        code = cli_main(["fuzz", "--runs", "2", "--size", "16",
                         "--trace-out", str(trace_path)])
        assert code == 0
        load_trace_events(trace_path)  # must parse as a Chrome trace


class TestExperimentRunnerTracing:
    def test_runner_trace_out_merges_labeled_experiments(self, tmp_path):
        from repro.experiments.runner import main as runner_main

        trace_path = tmp_path / "exp.json"
        code = runner_main(["width_profile", "--trace-out", str(trace_path)])
        assert code == 0
        events = load_trace_events(trace_path)
        assert all(e["path"].startswith("width_profile")
                   for e in events if e["path"])
