"""Tests for the instrumentation subsystem (repro.obs).

Covers the metric primitives, the contextvar-scoped session machinery, the
exporters, the hot-path integration invariants (``oracle.probes`` equals
``oracle.probes_used`` exactly), and the determinism guard: two identical
seeded active runs must produce identical counter/gauge/histogram values.
"""

from __future__ import annotations

import json

import pytest

from repro import LabelOracle, active_classify, obs, solve_passive
from repro.core.passive import contending_mask
from repro.datasets.synthetic import width_controlled
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    Timer,
    metrics_session,
    recorder,
)


class TestPrimitives:
    def test_counter(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.incr()
        counter.incr(5)
        assert counter.value == 6

    def test_gauge_set_and_set_max(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        gauge.set_max(0)
        assert gauge.value == 1
        gauge.set_max(7)
        assert gauge.value == 7

    def test_histogram_summary(self):
        hist = Histogram("h")
        assert hist.mean is None
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        snap = hist.snapshot()
        expected_scalars = {"count": 3, "total": 12.0, "mean": 4.0,
                            "min": 2.0, "max": 6.0, "last": 6.0}
        assert {k: snap[k] for k in expected_scalars} == expected_scalars
        # Small-n histograms report *exact* nearest-rank quantiles and
        # carry the raw values for exact cross-process merging.
        assert snap["p50"] == 4.0
        assert snap["p90"] == snap["p99"] == snap["p999"] == 6.0
        assert snap["raw"] == [2.0, 4.0, 6.0]

    def test_timer_standalone(self):
        with Timer() as timer:
            pass
        assert timer.elapsed is not None and timer.elapsed >= 0.0

    def test_timer_reports_to_sink(self):
        seen = {}
        with Timer("t", sink=lambda name, s: seen.setdefault(name, s)):
            pass
        assert "t" in seen and seen["t"] >= 0.0


class TestHistogramQuantiles:
    """Quantile accuracy and cross-process merge fidelity."""

    @staticmethod
    def _exact_quantile(values, q):
        """Nearest-rank reference: smallest v with rank >= ceil(q*n)."""
        import math

        ordered = sorted(values)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def test_exact_path_matches_nearest_rank_reference(self):
        import numpy as np

        rng = np.random.default_rng(3)
        values = [float(v) for v in rng.normal(5.0, 2.0, size=200)]
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.exact
        for q in (0.5, 0.9, 0.99, 0.999):
            assert hist.quantile(q) == self._exact_quantile(values, q)

    def test_bucketed_path_within_one_bucket_width(self):
        """Acceptance: p50/p90/p99 within one log-bucket of the truth."""
        import numpy as np

        from repro.obs import EXACT_LIMIT, GROWTH

        rng = np.random.default_rng(11)
        values = [float(v) for v in rng.lognormal(0.0, 1.5, size=5000)]
        assert len(values) > EXACT_LIMIT
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert not hist.exact
        for q in (0.5, 0.9, 0.99):
            truth = self._exact_quantile(values, q)
            got = hist.quantile(q)
            assert truth / GROWTH <= got <= truth * GROWTH, (q, got, truth)

    def test_merged_quantiles_equal_single_process_exact_path(self):
        """Satellite regression: merge fidelity on the raw-value path."""
        values = [float(v) for v in range(100)]
        whole = Histogram("h")
        for value in values:
            whole.observe(value)
        left, right = Histogram("h"), Histogram("h")
        for value in values[::2]:
            left.observe(value)
        for value in values[1::2]:
            right.observe(value)
        merged = Histogram("h")
        merged.merge_summary(left.snapshot())
        merged.merge_summary(right.snapshot())
        got, want = merged.snapshot(), whole.snapshot()
        # Raw values are a multiset (merge order differs from observation
        # order); everything else — including every quantile — is equal.
        assert sorted(got.pop("raw")) == sorted(want.pop("raw"))
        got.pop("last"), want.pop("last")  # legitimately order-dependent
        assert got == want

    def test_merged_quantiles_equal_single_process_bucketed_path(self):
        import numpy as np

        rng = np.random.default_rng(7)
        values = [float(v) for v in rng.lognormal(0.0, 1.0, size=2000)]
        whole = Histogram("h")
        for value in values:
            whole.observe(value)
        parts = [Histogram("h") for _ in range(4)]
        for i, value in enumerate(values):
            parts[i % 4].observe(value)
        merged = Histogram("h")
        for part in parts:
            merged.merge_summary(part.snapshot())
        for q in (0.5, 0.9, 0.99, 0.999):
            assert merged.quantile(q) == whole.quantile(q)
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)

    def test_negative_and_zero_values(self):
        hist = Histogram("h")
        for value in (-4.0, -2.0, 0.0, 0.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.quantile(0.5) == -2.0 or hist.quantile(0.5) == 0.0
        assert hist.min == -4.0 and hist.max == 4.0
        # Force the spill and re-check the mirrored-bucket walk.
        from repro.obs import EXACT_LIMIT

        for _ in range(EXACT_LIMIT):
            hist.observe(-1.0)
        assert hist.quantile(0.5) < 0
        assert hist.quantile(0.999) > 0

    def test_cumulative_buckets_monotone_and_complete(self):
        import math

        hist = Histogram("h")
        for value in (-3.0, 0.0, 1.0, 5.0, 500.0):
            hist.observe(value)
        pairs = hist.cumulative_buckets()
        uppers = [u for u, _ in pairs]
        counts = [c for _, c in pairs]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert uppers[-1] == math.inf and counts[-1] == hist.count


class TestRegistry:
    def test_incr_and_counter_value(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.incr("a", 2)
        assert reg.counter_value("a") == 3
        assert reg.counter_value("missing") == 0
        assert reg.counter_value("missing", default=-1) == -1

    def test_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.gauge("g", 5)
        reg.gauge_max("g", 3)
        assert reg.gauge_value("g") == 5
        assert reg.gauge_value("missing") is None
        reg.observe("h", 1.5)
        assert reg.histograms["h"].count == 1

    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        assert reg.timers["t"].count == 2

    def test_nested_span_paths(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        assert set(reg.spans) == {"outer", "outer/inner"}
        assert reg.spans["outer/inner"].count == 2
        assert reg._span_stack == []

    def test_span_stack_pops_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                raise RuntimeError("boom")
        assert reg._span_stack == []
        assert reg.spans["outer"].count == 1

    def test_snapshot_is_json_serializable_and_sorted(self):
        reg = MetricsRegistry("run")
        reg.incr("z")
        reg.incr("a")
        snap = reg.snapshot()
        assert snap["session"] == "run"
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)  # must not raise

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.gauge("g", 1)
        reg.reset()
        assert not reg.counters and not reg.gauges


class TestSessionScoping:
    def test_default_recorder_is_noop(self):
        rec = recorder()
        assert rec is NULL_RECORDER
        assert not rec.enabled
        assert not obs.enabled()
        # All operations are harmless no-ops.
        rec.incr("x")
        rec.gauge("x", 1)
        with rec.span("s"):
            with rec.timer("t"):
                pass

    def test_session_activates_and_restores(self):
        assert recorder() is NULL_RECORDER
        with metrics_session(name="outer") as reg:
            assert recorder() is reg
            assert obs.enabled()
            recorder().incr("hit")
        assert recorder() is NULL_RECORDER
        assert reg.counter_value("hit") == 1

    def test_nested_sessions_shadow_without_leaking(self):
        with metrics_session(name="outer") as outer:
            recorder().incr("which")
            with metrics_session(name="inner") as inner:
                assert recorder() is inner
                recorder().incr("which")
            assert recorder() is outer
            recorder().incr("which")
        assert outer.counter_value("which") == 2
        assert inner.counter_value("which") == 1

    def test_session_accepts_existing_registry(self):
        reg = MetricsRegistry("mine")
        with metrics_session(reg) as active:
            assert active is reg
            recorder().incr("a")
        with metrics_session(reg):
            recorder().incr("a")
        assert reg.counter_value("a") == 2


class TestExport:
    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry("exp")
        reg.incr("oracle.probes", 7)
        reg.gauge("active.chain_width", 4)
        reg.observe("active.chain_size", 10)
        with reg.span("active"):
            pass
        return reg

    def test_to_json_roundtrip(self, registry, tmp_path):
        path = tmp_path / "m.json"
        obs.to_json(registry, path)
        doc = json.loads(path.read_text())
        assert doc["counters"]["oracle.probes"] == 7
        assert doc["gauges"]["active.chain_width"] == 4
        assert doc["spans"]["active"]["count"] == 1

    def test_to_csv(self, registry, tmp_path):
        path = tmp_path / "m.csv"
        obs.to_csv(registry, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert "counter,oracle.probes,value,7" in lines
        assert any(line.startswith("span,active,count,") for line in lines)

    def test_export_file_dispatches_on_extension(self, registry, tmp_path):
        obs.export_file(registry, tmp_path / "a.csv")
        obs.export_file(registry, tmp_path / "a.json")
        assert (tmp_path / "a.csv").read_text().startswith("kind,")
        json.loads((tmp_path / "a.json").read_text())

    def test_report_renders_tables(self, registry):
        text = obs.report(registry)
        assert "oracle.probes" in text
        assert "active.chain_size" in text
        assert "phase" in text

    def test_report_empty_registry(self):
        assert "no metrics" in obs.report(MetricsRegistry())


def _seeded_run(seed: int = 11):
    """One fully-seeded active run inside a metrics session."""
    points = width_controlled(300, 4, noise=0.1, rng=7)
    oracle = LabelOracle(points)
    with metrics_session(name="det") as reg:
        active_classify(points.with_hidden_labels(), oracle,
                        epsilon=0.8, rng=seed)
    return reg, oracle


class TestPipelineIntegration:
    def test_probe_counter_matches_oracle_exactly(self):
        reg, oracle = _seeded_run()
        assert reg.counter_value("oracle.probes") == oracle.probes_used
        assert reg.counter_value("oracle.requests") == oracle.total_requests
        assert (reg.counter_value("oracle.requests")
                == reg.counter_value("oracle.probes")
                + reg.counter_value("oracle.dedup_hits"))

    def test_expected_metrics_present(self):
        reg, _oracle = _seeded_run()
        snap = reg.snapshot()
        assert snap["gauges"]["active.chain_width"] == 4
        assert snap["gauges"]["active.recursion_depth"] >= 1
        assert snap["counters"]["active1d.levels"] > 0
        assert "active" in snap["spans"]
        assert "active/chain_decompose" in snap["spans"]
        assert any(path.startswith("active/passive_solve")
                   for path in snap["spans"])

    def test_budget_gauge_tracks_headroom(self):
        points = width_controlled(50, 2, noise=0.1, rng=3)
        oracle = LabelOracle(points, budget=10)
        with metrics_session() as reg:
            oracle.probe_many(range(10))
        assert reg.gauge_value("oracle.budget_remaining") == 0

    def test_passive_counters(self):
        points = width_controlled(200, 3, noise=0.1, rng=5)
        with metrics_session() as reg:
            result = solve_passive(points)
        assert reg.gauge_value("passive.num_contending") == result.num_contending
        assert reg.gauge_value("passive.optimal_error") == result.optimal_error
        assert reg.counter_value("flow.dinic_array.calls") == 1
        # The box prefilter runs at least one compare per edge and at most
        # every contending (label-0, label-1) compare.
        contending = contending_mask(points)
        all_compares = (int((contending & (points.labels == 0)).sum())
                        * int((contending & (points.labels == 1)).sum()))
        pairs = reg.counter_value("passive.dominance_pairs")
        assert 0 < pairs <= reg.counter_value("passive.edge_candidates") \
            <= all_compares

    def test_disabled_path_records_nothing(self):
        probe = MetricsRegistry("probe")
        points = width_controlled(100, 2, noise=0.1, rng=2)
        oracle = LabelOracle(points)
        active_classify(points.with_hidden_labels(), oracle,
                        epsilon=0.8, rng=1)
        with metrics_session(probe):
            pass  # pipeline ran OUTSIDE any session
        assert not probe.counters and not probe.spans


class TestDeterminism:
    def test_identical_seeded_runs_produce_identical_metrics(self):
        """Counters/gauges/histograms are pure functions of a seeded run."""
        first, _ = _seeded_run(seed=11)
        second, _ = _seeded_run(seed=11)
        a, b = first.snapshot(), second.snapshot()
        assert a["counters"] == b["counters"]
        assert a["gauges"] == b["gauges"]
        assert a["histograms"] == b["histograms"]
        # Same span tree and call counts (durations legitimately differ).
        assert list(a["spans"]) == list(b["spans"])
        assert ([s["count"] for s in a["spans"].values()]
                == [s["count"] for s in b["spans"].values()])

    def test_different_seeds_may_differ_but_stay_consistent(self):
        reg, oracle = _seeded_run(seed=99)
        assert reg.counter_value("oracle.probes") == oracle.probes_used
