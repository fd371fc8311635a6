"""Run-level resilience wiring: configuration, oracle stacks, run reports.

:class:`ResilienceConfig` is the single object the pipeline entry points
(:func:`repro.core.active.active_classify`, the 1-D variant, and the CLI)
accept; :func:`build_oracle_stack` turns it plus a base oracle into the
composed wrapper stack::

    JournaledOracle( ResilientOracle( FaultyOracle( base ) ) )

with each layer present only when configured, and returns handles to every
layer so the caller can assemble a :class:`RunReport` — the structured
"what did resilience actually do" record that degraded runs return instead
of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .._util import PathLike
from ..core.active_1d import WeightedSample
from .checkpoint import JournaledOracle, journal_path, replay_journal
from .faults import FaultSpec, FaultyOracle
from .retry import CircuitBreaker, ResilientOracle, RetryPolicy

__all__ = [
    "ResilienceConfig",
    "OracleStack",
    "RunReport",
    "build_oracle_stack",
    "sample_to_doc",
    "sample_from_doc",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the pipeline needs to survive a flaky oracle.

    Parameters
    ----------
    retry:
        Retry/backoff/reconciliation policy; ``None`` disables retries
        (faults propagate on first failure).
    faults:
        Fault-injection spec for chaos runs; ``None`` injects nothing.
    breaker_threshold, breaker_cooldown:
        Circuit-breaker configuration; a ``breaker_threshold`` of 0
        (default) disables the breaker entirely.
    checkpoint:
        Path of the checkpoint snapshot; enables the probe journal at
        ``<checkpoint>.journal``.  ``None`` disables checkpointing.
    resume:
        Resume from ``checkpoint`` (replay the journal, skip completed
        chains) instead of starting fresh.
    degrade:
        On a halting failure (budget exhausted, retries exhausted, breaker
        open, dead point, worker crash) return a best-effort classifier
        plus a :class:`RunReport` instead of raising.
    shard_budgets:
        Give each worker shard a shard-local budget cap equal to the
        parent's remaining budget, so a crashed or misbehaving parent
        cannot over-spend through its workers.
    """

    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultSpec] = None
    breaker_threshold: int = 0
    breaker_cooldown: int = 8
    checkpoint: Optional[PathLike] = None
    resume: bool = False
    degrade: bool = False
    shard_budgets: bool = False

    def make_breaker(self) -> Optional[CircuitBreaker]:
        """A fresh breaker per run (or ``None`` when disabled)."""
        if self.breaker_threshold <= 0:
            return None
        return CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)


@dataclass
class OracleStack:
    """The composed wrapper stack plus handles to each layer."""

    base: Any
    oracle: Any
    faulty: Optional[FaultyOracle] = None
    resilient: Optional[ResilientOracle] = None
    journal: Optional[JournaledOracle] = None
    restored: int = 0

    def close(self) -> None:
        """Release resources (the journal file handle, if any)."""
        if self.journal is not None:
            self.journal.close()


def build_oracle_stack(
    oracle: Any,
    config: ResilienceConfig,
    journal_meta: Optional[Dict[str, Any]] = None,
) -> OracleStack:
    """Compose the configured wrappers around ``oracle``.

    Order matters and is fixed: fault injection innermost (it models the
    unreliable transport in front of the real label source), retries
    around it (they see the faults), the journal outermost (it records
    only probes that actually charged, after all retrying).  When
    ``config.resume`` is set the journal is replayed into the *base*
    oracle first, so already-paid probes are free before any work starts.
    """
    stack = OracleStack(base=oracle, oracle=oracle)
    effective = oracle
    if config.faults is not None and config.faults.active:
        timeout = config.retry.timeout if config.retry is not None else None
        stack.faulty = FaultyOracle(effective, config.faults, timeout=timeout)
        effective = stack.faulty
    if config.retry is not None:
        stack.resilient = ResilientOracle(
            effective, config.retry, config.make_breaker()
        )
        effective = stack.resilient
    if config.checkpoint is not None:
        path = journal_path(config.checkpoint)
        if config.resume:
            stack.restored = replay_journal(path, oracle,
                                            expect_meta=journal_meta)
        stack.journal = JournaledOracle(effective, path, meta=journal_meta)
        effective = stack.journal
    stack.oracle = effective
    return stack


@dataclass(frozen=True)
class RunReport:
    """Structured account of what the resilience layer did during a run.

    Degraded runs return this *instead of raising*; healthy resilient runs
    attach it too, so probe overhead and fault exposure are always
    auditable.  In multi-process runs the fault/retry tallies cover the
    parent process only — worker-side events are merged into the ambient
    metrics session (``resilience.*`` counters), which is the
    authoritative cross-process record.
    """

    completed: bool
    degraded: bool
    halt_reason: Optional[str]
    probes_charged: int
    restored_probes: int = 0
    faults_injected: int = 0
    retries: int = 0
    reconciliations: int = 0
    breaker_trips: int = 0
    checkpoints_written: int = 0
    journal_appends: int = 0
    chains_total: int = 0
    chains_completed: List[int] = field(default_factory=list)
    chains_incomplete: List[int] = field(default_factory=list)
    chains_resumed: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (for CLI output and experiment rows)."""
        return {
            "completed": self.completed,
            "degraded": self.degraded,
            "halt_reason": self.halt_reason,
            "probes_charged": self.probes_charged,
            "restored_probes": self.restored_probes,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "reconciliations": self.reconciliations,
            "breaker_trips": self.breaker_trips,
            "checkpoints_written": self.checkpoints_written,
            "journal_appends": self.journal_appends,
            "chains_total": self.chains_total,
            "chains_completed": list(self.chains_completed),
            "chains_incomplete": list(self.chains_incomplete),
            "chains_resumed": list(self.chains_resumed),
        }

    def summary(self) -> str:
        """One line for CLI output."""
        status = "degraded" if self.degraded else "completed"
        parts = [
            f"resilience: {status}",
            f"probes={self.probes_charged}",
            f"faults={self.faults_injected}",
            f"retries={self.retries}",
        ]
        if self.restored_probes:
            parts.append(f"restored={self.restored_probes}")
        if self.breaker_trips:
            parts.append(f"breaker_trips={self.breaker_trips}")
        if self.chains_incomplete:
            parts.append(
                f"incomplete_chains={len(self.chains_incomplete)}"
                f"/{self.chains_total}"
            )
        if self.halt_reason:
            parts.append(f"halt={self.halt_reason}")
        return "  ".join(parts)


def sample_to_doc(sigma: WeightedSample) -> Dict[str, list]:
    """Serialize a weighted sample ``Σ_i`` for checkpoint storage."""
    indices, weights, labels = sigma.arrays()
    return {
        "indices": indices.tolist(),
        "weights": weights.tolist(),
        "labels": labels.tolist(),
    }


def sample_from_doc(doc: Dict[str, list], n: int) -> WeightedSample:
    """Rebuild a weighted sample of an ``n``-point run from its checkpoint.

    Raises :class:`ValueError` when the ``indices`` / ``weights`` /
    ``labels`` lists differ in length, an index lies outside ``[0, n)``
    or a label is not 0 or 1, so a corrupt checkpoint fails instead of
    resuming from a truncated ``Σ_i`` or reading the wrong point.
    """
    indices = np.asarray(doc["indices"], dtype=np.int64)
    weights = np.asarray(doc["weights"], dtype=float)
    labels = np.asarray(doc["labels"], dtype=np.int64)
    if not len(indices) == len(weights) == len(labels):
        raise ValueError(
            f"checkpoint sample has {len(indices)} indices, {len(weights)} "
            f"weights and {len(labels)} labels; the lengths must agree"
        )
    bad = np.flatnonzero((indices < 0) | (indices >= n))
    if len(bad):
        raise ValueError(
            f"checkpoint sample index {int(indices[bad[0]])} is outside "
            f"[0, {n}) for a run of n = {n} points"
        )
    order = np.argsort(indices, kind="stable")
    repeats = order[1:][indices[order[1:]] == indices[order[:-1]]]
    if len(repeats):
        raise ValueError(f"checkpoint sample index "
                         f"{int(indices[repeats.min()])} is repeated")
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if len(bad):
        raise ValueError(
            f"checkpoint sample label {int(labels[bad[0]])} for point "
            f"{int(indices[bad[0]])} is not 0 or 1"
        )
    sigma = WeightedSample()
    sigma.add_many(indices, weights, labels)
    return sigma
