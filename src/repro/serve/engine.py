"""Fault-tolerant query engine: fit once, classify millions, survive chaos.

:class:`ServeEngine` answers ``classify(point)`` queries from a durable
:mod:`~repro.serve.artifact` under the failure modes of a real deployment:

* **Integrity-verified loads** — artifacts are digest-checked on load;
  corrupt/truncated/hostile bytes are *quarantined aside* (never retried
  forever, never a crash) and the engine walks a degradation ladder:
  primary artifact → last-good copy → the artifact's embedded fallback →
  the trivial fail-closed baseline.  Every non-primary answer is
  explicitly flagged — degraded answers are visible, never silently wrong.
* **Retry + circuit breaker** — transient load failures (a slow volume, an
  injected delay) retry under a PR 4 :class:`~repro.resilience.retry.RetryPolicy`
  with deterministic backoff; repeated failures trip a
  :class:`~repro.resilience.retry.CircuitBreaker` so a flapping artifact
  store cannot stall the query path.
* **Bounded admission queue** — ``submit``/``drain`` buffer at most
  ``queue_limit`` requests; excess load is *shed* with an explicit
  ``overloaded`` result instead of unbounded memory growth.
* **Per-request deadlines** — requests carry a deadline; one that expires
  in the queue is answered ``deadline_exceeded``, never served stale as if
  fresh.
* **Crash-safe warm restart** — every answered request is appended to a
  fsynced JSONL journal; :meth:`ServeEngine.warm_restart` resumes the
  request sequence from the journal and reloads the last-good artifact,
  so a SIGKILL mid-stream loses no answered-request accounting.

Everything is observable through :mod:`repro.obs` (``serve.*`` counters,
``serve.request_seconds`` latency histograms, ``serve.queue_depth``);
see ``docs/serving.md`` for the metric catalog and the operational flags.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import sleep as _sleep
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._journal import Journal, read_entries, rotated_journal_segments
from .._util import PathLike, as_float_matrix, atomic_write_text
from ..core.classifier import ConstantClassifier, MonotoneClassifier
from ..obs import recorder
from ..resilience.errors import CircuitOpenError
from ..resilience.retry import CircuitBreaker, RetryPolicy
from .artifact import (
    ModelArtifact,
    load_artifact,
    quarantine_artifact,
    render_artifact,
)

__all__ = [
    "DEADLINE_EXCEEDED",
    "DEGRADED",
    "FAILED",
    "INVALID",
    "OK",
    "OVERLOADED",
    "QueryResult",
    "ServeEngine",
    "ServeLoadTransient",
    "last_good_path",
    "read_serve_journal",
    "rotated_journal_segments",
    "write_verified_copy",
]

#: Response statuses.  ``ok`` answers come from a digest-verified artifact
#: (primary or last-good) and must match that model exactly; everything
#: else is an explicit flag the client can see.
OK = "ok"
DEGRADED = "degraded"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
FAILED = "failed"
#: The request itself is unreadable: not a numeric matrix, NaN or ±inf
#: coordinates, or a dimension that does not match the model.  It says
#: nothing about the model's health.
INVALID = "invalid"

#: Model sources, in degradation-ladder order.
_PRIMARY = "primary"
_LAST_GOOD = "last_good"
_FALLBACK = "fallback"


class ServeLoadTransient(Exception):
    """A retryable artifact-load failure (slow store, injected delay)."""


def last_good_path(artifact_path: PathLike) -> Path:
    """The last-good copy paired with an artifact path."""
    artifact_path = Path(artifact_path)
    return artifact_path.with_name(artifact_path.name + ".last-good")


def write_verified_copy(artifact: ModelArtifact, path: PathLike) -> bool:
    """Put ``artifact``'s verified text at ``path``; ``True`` if written.

    The text is the one whose digest was checked (``verified_text``), or a
    fresh :func:`~repro.serve.artifact.render_artifact` when the artifact
    carries none (a loader hook built it in memory).  A file that already
    holds exactly those bytes is left alone; anything else there — missing,
    truncated, tampered with — is replaced atomically.
    """
    text = artifact.verified_text
    if text is None:
        text = render_artifact(artifact)
    path = Path(path)
    try:
        if path.read_bytes() == text.encode("utf-8"):
            return False
    except OSError:
        pass  # missing or unreadable: write it
    atomic_write_text(path, text)
    rec = recorder()
    if rec.enabled:
        rec.incr("serve.artifacts_written")
    return True


@dataclass(frozen=True)
class QueryResult:
    """One answered (or shed/expired) request.

    ``labels`` is ``None`` exactly when no classification happened
    (``overloaded`` / ``deadline_exceeded`` / ``failed`` / ``invalid``).
    ``degraded`` is ``True`` whenever the answer did *not* come from a
    digest-verified artifact — clients must treat such labels as
    best-effort.
    """

    request_id: int
    status: str
    source: str
    labels: Optional[np.ndarray] = None
    degraded: bool = False
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def label(self) -> Optional[int]:
        """The single-point view of ``labels`` (first entry)."""
        if self.labels is None or len(self.labels) == 0:
            return None
        return int(self.labels[0])

    @property
    def n(self) -> int:
        return 0 if self.labels is None else int(len(self.labels))


@dataclass
class _Pending:
    request_id: int
    coords: np.ndarray
    deadline_at: Optional[float]


def read_serve_journal(
    path: PathLike,
) -> Tuple[Optional[Dict[str, Any]], int, int, Optional[str]]:
    """Load ``(meta, last_seq, answered, last_model_digest)`` from a journal.

    Rotated segments (``<journal>.1..k``) are stitched in oldest-first
    order before the live file, so warm restart accounting spans rotation
    boundaries.  The journal is a :mod:`repro._journal` journal: a torn
    tail of the newest file is skipped, and a malformed line anywhere
    else raises ``ValueError`` naming the file and line.
    """
    meta: Optional[Dict[str, Any]] = None
    last_seq = -1
    answered = 0
    last_digest: Optional[str] = None
    for entry in read_entries(path):
        if "meta" in entry:
            meta = entry["meta"]
        elif "model" in entry:
            last_digest = entry.get("model")
        elif "seq" in entry:
            last_seq = max(last_seq, int(entry["seq"]))
            answered += 1
    return meta, last_seq, answered, last_digest


class ServeEngine:
    """Answer classify queries from a durable artifact, surviving faults.

    Parameters
    ----------
    artifact_path:
        The deployed artifact file.  Loading is lazy: the first query (or
        an explicit :meth:`reload`) triggers it.
    retry:
        :class:`RetryPolicy` for *transient* load failures.  Corrupt
        artifacts are never retried — they are quarantined immediately
        (the bytes will not get better) and the ladder walks on.
    breaker:
        Optional :class:`CircuitBreaker` guarding (re)loads; while open,
        reload attempts short-circuit and the engine keeps serving from
        whatever model it has.
    fallback:
        Last-rung classifier when no artifact is loadable.  Defaults to
        the fail-closed all-0 baseline; pass ``None`` to disable (queries
        then fail explicitly instead of degrading).
    queue_limit:
        Bounded admission queue size; further submits are shed with an
        ``overloaded`` result.
    default_deadline:
        Default per-request deadline in seconds (``None`` = no deadline).
    journal_path:
        Enables the crash-safe request journal.
    journal_max_bytes:
        Size cap on the live journal file; exceeding it rotates the file
        to ``<journal>.1..k`` (``None`` disables rotation).
    journal_keep:
        Rotated segments retained before the oldest is dropped.
    loader:
        Artifact loader hook (default :func:`load_artifact`); the chaos
        harness injects deterministic delay faults here.
    clock:
        Monotonic clock hook (default :func:`time.monotonic`); tests use
        a simulated clock to exercise deadlines deterministically.
    keep_last_good:
        Maintain a verified ``<artifact>.last-good`` copy after each
        successful primary load, the second rung of the ladder.  The copy
        holds the verified primary's bytes and is rewritten only when
        they differ from what is on disk.
    """

    def __init__(
        self,
        artifact_path: PathLike,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        fallback: Optional[MonotoneClassifier] = ConstantClassifier(0),
        queue_limit: int = 1024,
        default_deadline: Optional[float] = None,
        journal_path: Optional[PathLike] = None,
        journal_max_bytes: Optional[int] = None,
        journal_keep: int = 8,
        loader: Optional[Callable[[PathLike], ModelArtifact]] = None,
        clock: Optional[Callable[[], float]] = None,
        keep_last_good: bool = True,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1; got {queue_limit}")
        self.artifact_path = Path(artifact_path)
        self.retry = retry or RetryPolicy(max_attempts=3)
        self.breaker = breaker
        self.queue_limit = int(queue_limit)
        self.default_deadline = default_deadline
        self.keep_last_good = keep_last_good
        self._loader = loader or load_artifact
        self._clock = clock or time.monotonic
        self._constructor_fallback = fallback
        self._embedded_fallback: Optional[MonotoneClassifier] = None

        self.artifact: Optional[ModelArtifact] = None
        self._model: Optional[MonotoneClassifier] = None
        self._source = _FALLBACK
        self.model_digest: Optional[str] = None
        self._loaded_once = False

        self._queue: Deque[_Pending] = deque()
        self._next_id = 0
        self.resumed_requests = 0

        self.reloads = 0
        self.reload_failures = 0
        self.quarantines = 0
        self.shed = 0
        self.answered = 0

        self._journal: Optional[Journal] = None
        if journal_path is not None:
            self._journal = Journal(
                journal_path,
                meta={
                    "artifact_path": str(self.artifact_path),
                    "schema": 1,
                    "pid": os.getpid(),
                },
                max_bytes=journal_max_bytes,
                keep_segments=journal_keep,
                metrics="serve.journal",
            )

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------

    @classmethod
    def warm_restart(
        cls, artifact_path: PathLike, journal_path: PathLike, **kwargs: Any
    ) -> "ServeEngine":
        """Resume after a crash: continue the journal, reload last-good.

        Reads the journal (skipping a torn tail left by a crash
        mid-append), restores the request sequence number past every
        answered request, and constructs an engine that appends to the
        same journal, cutting the torn tail off first.  The first
        query then walks the normal load ladder — if the primary artifact
        was the casualty of the crash, the verified last-good copy (or
        the fallback) serves, flagged accordingly.
        """
        _meta, last_seq, answered, _digest = read_serve_journal(journal_path)
        engine = cls(artifact_path, journal_path=journal_path, **kwargs)
        engine._next_id = last_seq + 1
        engine.resumed_requests = answered
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.warm_restarts")
            rec.event("serve.warm_restart", resumed=answered)
        return engine

    # ------------------------------------------------------------------
    # Model loading / degradation ladder
    # ------------------------------------------------------------------

    def _install(
        self,
        model: MonotoneClassifier,
        source: str,
        artifact: Optional[ModelArtifact] = None,
    ) -> None:
        self._model = model
        self._source = source
        self.artifact = artifact
        self.model_digest = artifact.digest if artifact is not None else None
        if artifact is not None and artifact.fallback is not None:
            self._embedded_fallback = artifact.fallback
        if self._journal is not None:
            self._journal.append({"model": self.model_digest, "source": source})
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.installs")
            rec.incr(f"serve.installs.{source}")

    def _fallback_model(self) -> Optional[MonotoneClassifier]:
        if self._embedded_fallback is not None:
            return self._embedded_fallback
        return self._constructor_fallback

    def _try_load(self, path: Path) -> Optional[ModelArtifact]:
        """One ladder rung: load ``path`` with retries; quarantine corrupt.

        Returns the artifact, or ``None`` when this rung is exhausted
        (corrupt and quarantined, transient failures past the retry
        budget, or breaker open).
        """
        rec = recorder()
        policy = self.retry
        for attempt in range(1, policy.max_attempts + 1):
            if self.breaker is not None:
                try:
                    self.breaker.before_call()
                except CircuitOpenError:
                    if rec.enabled:
                        rec.incr("serve.breaker_short_circuits")
                    return None
            try:
                artifact = self._loader(path)
            except ValueError as exc:
                # Corrupt bytes will not get better: quarantine, no retry.
                if self.breaker is not None:
                    self.breaker.record_failure()
                quarantined = quarantine_artifact(path, reason=str(exc))
                self.quarantines += 1
                if rec.enabled:
                    rec.incr("serve.reload_rejects")
                    rec.event(
                        "serve.artifact_rejected",
                        path=str(path),
                        quarantined=str(quarantined),
                    )
                return None
            except (ServeLoadTransient, OSError) as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if rec.enabled:
                    rec.incr("serve.reload_transients")
                if attempt >= policy.max_attempts:
                    if rec.enabled:
                        rec.event(
                            "serve.load_retries_exhausted",
                            path=str(path),
                            error=repr(exc),
                        )
                    return None
                delay = policy.delay_for(0, attempt)
                if rec.enabled:
                    rec.record_time("serve.reload_backoff_seconds", delay)
                if policy.sleep and delay > 0.0:
                    _sleep(delay)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return artifact
        return None

    def _refresh_last_good(self, artifact: ModelArtifact) -> str:
        """Make the last-good copy hold ``artifact``'s verified bytes.

        Returns ``"written"``, ``"unchanged"`` (already byte-equal),
        ``"failed"`` (the write raised ``OSError``) or ``"off"`` (no
        last-good rung).
        """
        if not self.keep_last_good:
            return "off"
        try:
            written = write_verified_copy(
                artifact, last_good_path(self.artifact_path)
            )
        except OSError:
            return "failed"  # a full disk must not fail the serving path
        rec = recorder()
        if rec.enabled:
            rec.incr(
                "serve.last_good_writes" if written
                else "serve.last_good_unchanged"
            )
        return "written" if written else "unchanged"

    def reload(self) -> bool:
        """(Re)load the model, walking the degradation ladder.

        Returns ``True`` when a digest-verified artifact (primary or
        last-good) is serving, ``False`` when the engine degraded to a
        fallback classifier.  Never raises on corrupt artifacts — the
        server must stay up.  Runs inside a ``serve.reload`` span whose
        ``rung`` attribute names the rung installed and whose
        ``last_good`` attribute says what a primary load did to the
        last-good copy.
        """
        rec = recorder()
        with rec.span("serve.reload") as span:
            rung, last_good = self._walk_ladder()
            if rec.enabled:
                span.set_attr("rung", rung)
                if last_good is not None:
                    span.set_attr("last_good", last_good)
        return rung != _FALLBACK

    def _walk_ladder(self) -> Tuple[str, Optional[str]]:
        """:meth:`reload`'s body: ``(rung installed, last-good outcome)``."""
        self.reloads += 1
        self._loaded_once = True
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.reloads")
        artifact = self._try_load(self.artifact_path)
        if artifact is not None:
            self._install(artifact.classifier, _PRIMARY, artifact)
            # The second ladder rung for the next corrupt deploy: the
            # bytes just verified, written only when the copy differs.
            return _PRIMARY, self._refresh_last_good(artifact)
        if self.keep_last_good:
            lg = last_good_path(self.artifact_path)
            if lg.exists():
                artifact = self._try_load(lg)
                if artifact is not None:
                    self._install(artifact.classifier, _LAST_GOOD, artifact)
                    return _LAST_GOOD, None
        self.reload_failures += 1
        if rec.enabled:
            rec.incr("serve.reload_failures")
        fallback = self._fallback_model()
        if fallback is not None:
            self._install(fallback, _FALLBACK, None)
        else:
            self._model = None
            self._source = _FALLBACK
            self.model_digest = None
        return _FALLBACK, None if self.keep_last_good else "off"

    def install_verified(self, artifact: ModelArtifact) -> None:
        """Atomically install an already digest-verified artifact as primary.

        The hot-swap promotion path: a fleet shadow-loads a candidate
        (digest-verified by :func:`~repro.serve.artifact.load_artifact`)
        and canary-checks it against the incumbent, then promotes the
        in-memory object directly — no second disk read, no window where
        a half-written file could be picked up.  The last-good copy is
        refreshed from the candidate's verified bytes so the ladder's
        second rung tracks the promotion.
        """
        if artifact.digest is None:
            raise ValueError(
                "install_verified requires a digest-verified artifact "
                "(load it through load_artifact or save it first)"
            )
        self._loaded_once = True
        self._install(artifact.classifier, _PRIMARY, artifact)
        self._refresh_last_good(artifact)

    @property
    def source(self) -> str:
        """Where answers currently come from (ladder rung name)."""
        return self._source

    @property
    def serving_verified(self) -> bool:
        """Whether answers come from a digest-verified artifact."""
        return self._model is not None and self._source in (_PRIMARY, _LAST_GOOD)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _answer(
        self, request_id: int, coords: np.ndarray, deadline_at: Optional[float]
    ) -> QueryResult:
        rec = recorder()
        now = self._clock()
        if deadline_at is not None and now > deadline_at:
            if rec.enabled:
                rec.incr("serve.deadline_missed")
            return QueryResult(
                request_id, DEADLINE_EXCEEDED, self._source, degraded=True
            )
        if not self._loaded_once:
            self.reload()
        model = self._model
        if model is None:
            if rec.enabled:
                rec.incr("serve.unanswerable")
            return QueryResult(request_id, FAILED, self._source, degraded=True)
        try:
            labels = model.classify_matrix(coords)
        except ValueError:
            # A wrong-dimension query must not take the server down; it
            # is answered ``invalid``, alone.
            return self._invalid(request_id)
        latency = self._clock() - now
        verified = self.serving_verified
        status = OK if verified else DEGRADED
        self.answered += 1
        if rec.enabled:
            rec.incr("serve.requests")
            rec.incr("serve.points", len(labels))
            rec.record_time("serve.request_seconds", latency)
            if not verified:
                rec.incr("serve.degraded_answers")
        result = QueryResult(
            request_id, status, self._source, labels, not verified, latency
        )
        if self._journal is not None:
            self._journal.append(
                {
                    "seq": request_id,
                    "n": int(len(labels)),
                    "status": status,
                    "source": self._source,
                }
            )
        return result

    def _invalid(self, request_id: int) -> QueryResult:
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.request_errors")
        return QueryResult(request_id, INVALID, self._source, degraded=True)

    def classify_batch(
        self, coords: Any, deadline: Optional[float] = None
    ) -> QueryResult:
        """Answer one batched request synchronously (no queue).

        Unreadable coordinates are answered ``invalid``, never raised.
        """
        request_id = self._next_id
        self._next_id += 1
        try:
            matrix = as_float_matrix(coords)
        except ValueError:
            return self._invalid(request_id)
        deadline = self.default_deadline if deadline is None else deadline
        deadline_at = None if deadline is None else self._clock() + deadline
        return self._answer(request_id, matrix, deadline_at)

    def classify(
        self, point: Sequence[float], deadline: Optional[float] = None
    ) -> QueryResult:
        """Answer one single-point request synchronously."""
        return self.classify_batch([tuple(point)], deadline=deadline)

    def submit(
        self, coords: Any, deadline: Optional[float] = None
    ) -> Optional[QueryResult]:
        """Admit a request into the bounded queue.

        Returns ``None`` on admission; when the queue is full the request
        is *shed* and an ``overloaded`` :class:`QueryResult` is returned
        immediately — explicit backpressure, never unbounded memory.
        Unreadable coordinates are answered ``invalid`` immediately.
        """
        rec = recorder()
        if len(self._queue) >= self.queue_limit:
            self.shed += 1
            request_id = self._next_id
            self._next_id += 1
            if rec.enabled:
                rec.incr("serve.shed")
            return QueryResult(request_id, OVERLOADED, self._source, degraded=True)
        request_id = self._next_id
        self._next_id += 1
        try:
            matrix = as_float_matrix(coords)
        except ValueError:
            return self._invalid(request_id)
        deadline = self.default_deadline if deadline is None else deadline
        deadline_at = None if deadline is None else self._clock() + deadline
        self._queue.append(_Pending(request_id, matrix, deadline_at))
        if rec.enabled:
            rec.gauge_max("serve.queue_depth", len(self._queue))
        return None

    def drain(self, max_requests: Optional[int] = None) -> List[QueryResult]:
        """Answer queued requests in admission order; returns the results."""
        results: List[QueryResult] = []
        budget = len(self._queue) if max_requests is None else max_requests
        while self._queue and budget > 0:
            pending = self._queue.popleft()
            results.append(
                self._answer(pending.request_id, pending.coords, pending.deadline_at)
            )
            budget -= 1
        return results

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the journal handle (idempotent)."""
        if self._journal is not None:
            self._journal.close()

    def abandon(self) -> None:
        """Simulate an abrupt worker death (chaos harness hook).

        Drops the in-memory model and queue and closes the journal file
        descriptor without any shutdown marker — exactly what a SIGKILL
        leaves behind.  A subsequent :meth:`warm_restart` must recover.
        """
        self._model = None
        self.artifact = None
        self._loaded_once = False
        self._queue.clear()
        self.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServeEngine({str(self.artifact_path)!r}, "
            f"source={self._source!r}, answered={self.answered}, "
            f"shed={self.shed}, reloads={self.reloads})"
        )
