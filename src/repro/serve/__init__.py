"""Hardened serving layer: durable model artifacts + fault-tolerant queries.

The paper's regime is fit-once / query-many: Theorems 2-4 pay for a fit
(labels, flow computations) to obtain a classifier whose queries are
cheap.  This package is the query-many half, built to survive a real
deployment:

* :mod:`repro.serve.artifact` — versioned, SHA-256-checksummed model
  artifacts with atomic writes, strict load-time verification, and
  quarantine of corrupt files;
* :mod:`repro.serve.engine` — :class:`ServeEngine`, answering single and
  batched classify queries with deadlines, a bounded load-shedding queue,
  retry + circuit-breaker protected reloads, a degradation ladder that
  keeps answers flowing (explicitly flagged) when the artifact store is
  hostile, and a crash-safe request journal (with size-capped rotation)
  for warm restarts;
* :mod:`repro.serve.fleet` — :class:`ModelFleet`, N named engines behind
  one dispatch surface with bulkhead isolation, an LRU resident-model
  cache, verified hot-swap with canary replay, and automatic rollback on
  verification failure or post-promotion error-rate spikes;
* :mod:`repro.serve.chaos` — deterministic chaos harnesses proving the
  core invariants: zero silently wrong answers under artifact corruption,
  load delays, and worker kills (:func:`run_chaos_serve`), and zero
  cross-model blast radius fleet-wide (:func:`run_chaos_fleet`).

See ``docs/serving.md`` for the artifact format, the degradation ladder,
the fleet's swap/rollback state machine, and the ``serve.*`` /
``serve.fleet.*`` metric catalogs.
"""

from .artifact import (
    ARTIFACT_MAGIC,
    ARTIFACT_SCHEMA_VERSION,
    ModelArtifact,
    artifact_digest,
    fit_artifact,
    load_artifact,
    quarantine_artifact,
    save_artifact,
)
from .chaos import (
    ChaosFleetReport,
    ChaosServeReport,
    FaultyArtifactLoader,
    FleetFaultSpec,
    ServeFaultSpec,
    run_chaos_fleet,
    run_chaos_serve,
)
from .engine import (
    DEADLINE_EXCEEDED,
    DEGRADED,
    FAILED,
    INVALID,
    OK,
    OVERLOADED,
    QueryResult,
    ServeEngine,
    ServeLoadTransient,
    last_good_path,
    read_serve_journal,
    rotated_journal_segments,
)
from .fleet import UNAVAILABLE, FleetModelHealth, ModelFleet

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_SCHEMA_VERSION",
    "ChaosFleetReport",
    "ChaosServeReport",
    "DEADLINE_EXCEEDED",
    "DEGRADED",
    "FAILED",
    "FaultyArtifactLoader",
    "FleetFaultSpec",
    "FleetModelHealth",
    "INVALID",
    "ModelArtifact",
    "ModelFleet",
    "OK",
    "OVERLOADED",
    "QueryResult",
    "ServeEngine",
    "ServeFaultSpec",
    "ServeLoadTransient",
    "UNAVAILABLE",
    "artifact_digest",
    "fit_artifact",
    "last_good_path",
    "load_artifact",
    "quarantine_artifact",
    "read_serve_journal",
    "rotated_journal_segments",
    "run_chaos_fleet",
    "run_chaos_serve",
    "save_artifact",
]
