"""repro.obs — zero-dependency instrumentation for the whole pipeline.

The paper's claims are cost claims — Theorem 2/3's probe bound and Theorem
4's passive runtime — so the reproduction makes cost observable everywhere:

* :mod:`.metrics` — ``Counter`` / ``Gauge`` / ``Histogram`` / ``Timer``
  primitives (histograms are mergeable log-bucket quantile sketches with
  an exact small-n path — p50/p90/p99/p99.9 in every snapshot);
* :mod:`.registry` — the contextvar-scoped :class:`MetricsRegistry`,
  hierarchical :class:`Span` tracing with timestamps/ids/attributes, and
  the no-op disabled path;
* :mod:`.trace` — timeline traces: Chrome trace-event JSON export (opens
  in Perfetto / ``chrome://tracing``), trace loading, and the
  cross-process :class:`~repro.obs.trace.TraceContext`;
* :mod:`.prof` — the deterministic phase profiler (self/cumulative time
  tables, collapsed-stack flamegraph output);
* :mod:`.export` — JSON / CSV / OpenMetrics exporters and a
  ``format_table`` report.

Enable collection by opening a session::

    from repro import obs

    with obs.metrics_session(trace=True) as registry:
        result = active_classify(points, oracle, epsilon=0.5)
    registry.counter_value("oracle.probes")    # == oracle.probes_used
    print(obs.report(registry))
    print(obs.profile_report(registry))        # self/cumulative phases
    obs.to_json(registry, "metrics.json")
    obs.to_chrome_trace(registry, "trace.json")  # open in Perfetto

With no session active, every instrumented call site hits the shared
:data:`NULL_RECORDER` whose methods are no-ops — the disabled path costs a
single attribute check, which the benchmark suite pins to negligible
overhead (``benchmarks/test_bench_obs.py``).

Metric-name conventions (see docs/observability.md for the full catalog):
dotted names group by subsystem (``oracle.*``, ``active.*``, ``poset.*``,
``flow.<engine>.*``, ``passive.*``); span paths are slash-joined phase
stacks (``active/chain_decompose/matching``).
"""

from .export import export_file, report, to_csv, to_json, to_openmetrics
from .metrics import EXACT_LIMIT, GROWTH, Counter, Gauge, Histogram, Timer
from .prof import profile_events, profile_report, to_collapsed
from .registry import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Span,
    enabled,
    metrics_session,
    recorder,
)
from .trace import (
    TraceContext,
    chrome_trace_document,
    load_trace_events,
    to_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "EXACT_LIMIT",
    "GROWTH",
    "Span",
    "MetricsRegistry",
    "NullRecorder",
    "NULL_RECORDER",
    "recorder",
    "enabled",
    "metrics_session",
    "TraceContext",
    "chrome_trace_document",
    "to_chrome_trace",
    "load_trace_events",
    "profile_events",
    "profile_report",
    "to_collapsed",
    "report",
    "to_json",
    "to_csv",
    "to_openmetrics",
    "export_file",
]
