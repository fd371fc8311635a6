"""Per-layer attribution of one traced benchmark pass.

A traced pass runs under ``obs.metrics_session(trace=True)``.  The
benchmark's own spans bracket every public call into a layer
(``generate``, ``fit``, ``save``, ``load_verify``, ``dispatch_*``,
``poll_swap`` ...), and the spans the program already emits nest beneath
them (``passive/contending``, ``matching``, ``max_flow/csr_snapshot``
...).  ``obs.profile_events`` turns the timeline into per-path self and
cumulative times; this module sums those by span name into the named
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

#: Layer (module) that owns each span name, for the layer-diff report.
LAYER_OF_SPAN = {
    "generate": "repro.datasets",
    "fit": "repro.serve.artifact (fit_artifact)",
    "save": "repro.serve.artifact",
    "load_verify": "repro.serve.artifact",
    "rewrite": "repro.serve.artifact",
    "check": "benchmark checks",
    "matching": "repro.poset",
    "bitset_pack": "repro.poset",
    "bitset_matching": "repro.poset",
    "patience": "repro.poset",
    "passive": "repro.core.passive (classifier build)",
    "contending": "repro.core.passive",
    "build_network": "repro.core.passive",
    "verify": "repro.core.passive",
    "min_cut": "repro.flow",
    "max_flow": "repro.flow",
    "csr_snapshot": "repro.flow",
    "extract_cut": "repro.flow",
    "active": "repro.core.active",
    "chain_decompose": "repro.core.active",
    "sample_chains": "repro.core.active_1d / repro.core.oracle",
    "passive_solve": "repro.core.active",
    "serve_loop": "benchmark client",
    "dispatch_single": "repro.serve.fleet / engine",
    "dispatch_batch": "repro.serve.fleet / engine",
    "dispatch_cold": "repro.serve.fleet / engine (cold load)",
    "journal_replay": "repro.serve.engine",
    "journaled": "repro.serve.engine (request journal)",
    "poll_swap": "repro.serve.fleet (hot swap)",
    "classify_matrix": "repro.core.classifier",
}


def leaf(path: str) -> str:
    """The span name at the end of a span path."""
    return path.rsplit("/", 1)[-1]


def layer_of(path: str) -> str:
    name = leaf(path)
    if name.startswith("chain["):
        return "repro.core.active_1d"
    return LAYER_OF_SPAN.get(name, "unknown")


def cum_time(rows: List[Dict[str, Any]], name: str) -> float:
    """Seconds spent inside spans called ``name``, wherever they nest."""
    return float(sum(r["cum_s"] for r in rows if leaf(r["phase"]) == name))


def self_time(rows: List[Dict[str, Any]], name: str) -> float:
    """Seconds spent in spans called ``name`` outside their child spans."""
    return float(sum(r["self_s"] for r in rows if leaf(r["phase"]) == name))


def _median_ms(registry: Any, name: str) -> float:
    durations = [e["dur"] for e in registry.trace_events
                 if e.get("dur") is not None and e.get("name") == name]
    return float(statistics.median(durations)) / 1e6 if durations else 0.0


def unattributed_frac(registry: Any, wall_s: float) -> float:
    """Share of the traced wall time outside every top-level span."""
    top = sum(e["dur"] for e in registry.trace_events
              if e.get("dur") is not None and e.get("parent") is None)
    return (wall_s - top / 1e9) / wall_s if wall_s > 0 else 0.0


def layer_metrics(registry: Any, wall_s: float,
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer idles)."""
    from repro import obs

    rows = obs.profile_events(registry)

    def counter(name: str) -> float:
        return float(registry.counter_value(name))

    def gauge(name: str) -> float:
        value = registry.gauge_value(name)
        return float(value) if value is not None else 0.0

    canary = registry.timers.get("serve.fleet.canary_seconds")
    canary_p50 = canary.quantile(0.5) if canary is not None else None
    metrics = {
        "datasets.generate_s": cum_time(rows, "generate"),
        "poset.matching_s": cum_time(rows, "matching"),
        "poset.width": gauge("poset.width"),
        "poset.patience_s": cum_time(rows, "patience"),
        "passive.contending_s": cum_time(rows, "contending"),
        "passive.build_network_s": cum_time(rows, "build_network"),
        "passive.verify_s": cum_time(rows, "verify"),
        "passive.self_s": self_time(rows, "passive"),
        "passive.num_contending": gauge("passive.num_contending"),
        "passive.dominance_pairs": counter("passive.dominance_pairs"),
        "flow.max_flow_s": cum_time(rows, "max_flow"),
        "flow.csr_snapshot_s": cum_time(rows, "csr_snapshot"),
        "flow.extract_cut_s": cum_time(rows, "extract_cut"),
        "flow.dinic_array.phases": counter("flow.dinic_array.phases"),
        "flow.dinic_array.augmenting_paths": counter("flow.dinic_array.augmenting_paths"),
        "flow.dinic_array.pushes": counter("flow.dinic_array.pushes"),
        "active.chain_decompose_s": cum_time(rows, "chain_decompose"),
        "active.sample_chains_s": cum_time(rows, "sample_chains"),
        "active.passive_solve_s": cum_time(rows, "passive_solve"),
        "active.sigma_size": gauge("active.sigma_size"),
        "oracle.probes": counter("oracle.probes"),
        "artifact.save_ms": _median_ms(registry, "save"),
        "artifact.load_verify_ms": _median_ms(registry, "load_verify"),
        "fleet.cold_loads": counter("serve.fleet.cold_loads"),
        "fleet.evictions": counter("serve.fleet.evictions"),
        "fleet.promotions": counter("serve.fleet.swap_promotions"),
        "fleet.canary_ms": float(canary_p50) * 1e3 if canary_p50 is not None else 0.0,
        "obs.unattributed_frac": unattributed_frac(registry, wall_s),
    }
    metrics.update(extras)
    return metrics
