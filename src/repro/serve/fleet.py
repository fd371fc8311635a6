"""Multi-model serve fleet: bulkheads, LRU residency, verified hot-swap.

:class:`ModelFleet` manages N named :class:`~repro.serve.engine.ServeEngine`
instances behind one dispatch surface, built so that *one tenant's corrupt
artifact or load storm can never degrade any other*:

* **Bulkhead isolation** — every model owns its engine, its bounded
  admission queue, its load breaker, and a fleet-level *dispatch* breaker;
  a model whose dispatches keep failing is quarantined (answered with an
  explicit ``unavailable`` result, its engine evicted) without touching
  any sibling.
* **LRU resident-model cache** — at most ``resident_limit`` engines are
  live at once; the least-recently-dispatched model is evicted (its
  journal closed cleanly) and reloads on demand through the existing
  digest-verified path, warm-restarting from its journal when one exists.
* **Verified hot-swap** — :meth:`ModelFleet.poll` watches each deployed
  artifact's fingerprint (mtime + size); a changed file is shadow-loaded
  and digest-verified, a deterministic *canary* query set is replayed
  against the incumbent, and the candidate is promoted atomically
  (:meth:`~repro.serve.engine.ServeEngine.install_verified`) only when
  the answers agree within ``canary_tolerance``.
* **Automatic rollback** — a candidate that fails verification or canary
  replay is *quarantined* and the incumbent re-pinned on disk; a promoted
  candidate whose post-promotion error rate spikes inside the watch
  window is rolled back the same way.  Either way the incumbent never
  stops serving and the bad bytes are preserved for forensics.
* **Health/readiness reporting** — :meth:`ModelFleet.health` reports the
  per-model ladder rung, breaker state, queue depth, residency, and swap
  history; everything flows through :mod:`repro.obs` as
  ``serve.fleet.*`` metrics.

The swap/rollback state machine (see ``docs/serving.md`` for the full
diagram)::

    watching --fingerprint changed--> shadow load
    shadow load --digest fail-------> REJECT   (quarantine + re-pin)
    shadow load --verified----------> canary replay vs incumbent
    canary ------disagree-----------> REJECT   (quarantine + re-pin)
    canary ------agree--------------> PROMOTE  (atomic install, watch armed)
    watch -------error-rate spike---> ROLLBACK (quarantine + re-pin)
    watch -------window survived----> candidate accepted

:func:`~repro.serve.chaos.run_chaos_fleet` certifies the whole surface:
zero silently wrong answers and zero cross-model blast radius under
concurrent corruption, hot-swap, eviction, and kill injection.
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .._util import PathLike
from ..core.classifier import ConstantClassifier, MonotoneClassifier
from ..obs import recorder
from ..resilience.errors import CircuitOpenError
from ..resilience.retry import CircuitBreaker, RetryPolicy
from .artifact import ModelArtifact, load_artifact, quarantine_artifact
from .engine import (
    FAILED,
    INVALID,
    QueryResult,
    ServeEngine,
    ServeLoadTransient,
    read_serve_journal,
    write_verified_copy,
)

__all__ = ["UNAVAILABLE", "FleetModelHealth", "ModelFleet"]

#: Response status for a dispatch rejected by a bulkhead: the target model
#: is quarantined or its dispatch breaker is open.  Like every non-``ok``
#: status, it is explicit — a bulkhead never silently answers from the
#: wrong model.
UNAVAILABLE = "unavailable"

#: ``QueryResult.source`` for bulkhead-rejected dispatches.
_BULKHEAD = "bulkhead"

#: Model slot states.
_ACTIVE = "active"
_QUARANTINED = "quarantined"

#: Stream tag keeping canary draws independent of every other stream.
_CANARY_TAG = 0xCA9A

#: Swap-history entries retained per model.
_HISTORY_LIMIT = 32


@dataclass
class FleetModelHealth:
    """One model's row in the fleet health/readiness report."""

    name: str
    state: str
    resident: bool
    source: str
    verified: bool
    breaker: str
    queue_depth: int
    answered: int
    shed: int
    quarantines: int
    cold_loads: int
    evictions: int
    promotions: int
    rejected_swaps: int
    rollbacks: int
    watching: bool
    digest: Optional[str]
    last_event: Optional[str]

    def row(self) -> Dict[str, Any]:
        """The health row as a flat dict (CLI table / JSON export)."""
        return {
            "model": self.name,
            "state": self.state,
            "resident": self.resident,
            "source": self.source,
            "verified": self.verified,
            "breaker": self.breaker,
            "queue": self.queue_depth,
            "answered": self.answered,
            "shed": self.shed,
            "swaps": self.promotions,
            "rollbacks": self.rejected_swaps + self.rollbacks,
            "digest": (self.digest or "")[:12],
        }


@dataclass
class _Slot:
    """Fleet-internal per-model state (engine, bulkheads, swap machine)."""

    name: str
    artifact_path: Path
    breaker: CircuitBreaker
    state: str = _ACTIVE
    engine: Optional[ServeEngine] = None
    fingerprint: Optional[Tuple[int, int]] = None
    #: Most recent digest-verified artifact seen serving (promote target
    #: base and reject-restore source).
    last_verified: Optional[ModelArtifact] = None
    #: Incumbent pinned for rollback while the post-promotion watch runs.
    pinned: Optional[ModelArtifact] = None
    watching: bool = False
    watch_requests: int = 0
    watch_bad: int = 0
    quarantine_reason: Optional[str] = None
    history: List[Dict[str, Any]] = field(default_factory=list)
    # Lifetime counters (survive eviction; engines die, slots do not).
    dispatches: int = 0
    unavailable: int = 0
    cold_loads: int = 0
    evictions: int = 0
    promotions: int = 0
    rejected_swaps: int = 0
    rollbacks: int = 0
    answered: int = 0
    shed: int = 0
    engine_quarantines: int = 0

    def record(self, action: str, **detail: Any) -> Dict[str, Any]:
        entry = {"action": action, **detail}
        self.history.append(entry)
        del self.history[:-_HISTORY_LIMIT]
        return entry


def _fingerprint(path: Path) -> Optional[Tuple[int, int]]:
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


class ModelFleet:
    """N named serve engines behind one bulkheaded dispatch surface.

    Parameters
    ----------
    models:
        Optional initial ``{name: artifact_path}`` mapping; more models
        can be added with :meth:`register`.
    resident_limit:
        Maximum live engines; the least-recently-dispatched model beyond
        it is evicted (journal closed cleanly, reloads on demand).
    queue_limit, default_deadline, retry, fallback, keep_last_good,
    journal_max_bytes, journal_keep, loader, clock:
        Passed through to each model's :class:`ServeEngine`.  Every
        engine gets its own fresh *load* breaker so one model's flapping
        store cannot open a sibling's.
    breaker_threshold, breaker_cooldown:
        Per-model *dispatch* breaker configuration: consecutive failed
        dispatches trip it, and while open dispatches are answered
        ``unavailable`` without touching the engine.
    quarantine_after_trips:
        Dispatch-breaker trips after which the model is quarantined
        outright (``unavailable`` until :meth:`reinstate_model`).
    canary_count, canary_tolerance, canary_seed:
        Hot-swap verification: ``canary_count`` deterministic queries are
        replayed against incumbent and candidate; promotion requires the
        disagreeing fraction to be ``<= canary_tolerance`` (default 0.0:
        bit-for-bit agreement).
    watch_min, watch_window, watch_threshold:
        Post-promotion watch: after ``watch_min`` dispatches, a
        failed+degraded fraction above ``watch_threshold`` rolls the
        promotion back; surviving ``watch_window`` dispatches accepts the
        candidate and releases the pinned incumbent.
    journal_dir:
        Enables per-model crash-safe request journals
        (``<journal_dir>/<name>.journal.jsonl``, rotation per
        ``journal_max_bytes``/``journal_keep``); a model whose journal
        already exists is warm-restarted on (re)load.
    """

    def __init__(
        self,
        models: Optional[Mapping[str, PathLike]] = None,
        *,
        resident_limit: int = 8,
        queue_limit: int = 1024,
        default_deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fallback: Optional[MonotoneClassifier] = ConstantClassifier(0),
        breaker_threshold: int = 5,
        breaker_cooldown: int = 16,
        quarantine_after_trips: int = 3,
        canary_count: int = 32,
        canary_tolerance: float = 0.0,
        canary_seed: int = 0,
        watch_min: int = 8,
        watch_window: int = 32,
        watch_threshold: float = 0.5,
        journal_dir: Optional[PathLike] = None,
        journal_max_bytes: Optional[int] = None,
        journal_keep: int = 8,
        keep_last_good: bool = True,
        loader: Optional[Callable[[PathLike], ModelArtifact]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if resident_limit < 1:
            raise ValueError(f"resident_limit must be >= 1; got {resident_limit}")
        if canary_count < 1:
            raise ValueError(f"canary_count must be >= 1; got {canary_count}")
        if not 0.0 <= canary_tolerance <= 1.0:
            raise ValueError(
                f"canary_tolerance must be in [0, 1]; got {canary_tolerance}"
            )
        if watch_min < 1 or watch_window < watch_min:
            raise ValueError(
                "watch_min must be >= 1 and watch_window >= watch_min; "
                f"got {watch_min}/{watch_window}"
            )
        self.resident_limit = int(resident_limit)
        self.queue_limit = int(queue_limit)
        self.default_deadline = default_deadline
        self.retry = retry
        self.fallback = fallback
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = int(breaker_cooldown)
        self.quarantine_after_trips = int(quarantine_after_trips)
        self.canary_count = int(canary_count)
        self.canary_tolerance = float(canary_tolerance)
        self.canary_seed = int(canary_seed)
        self.watch_min = int(watch_min)
        self.watch_window = int(watch_window)
        self.watch_threshold = float(watch_threshold)
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.journal_max_bytes = journal_max_bytes
        self.journal_keep = int(journal_keep)
        self.keep_last_good = keep_last_good
        self._loader = loader or load_artifact
        self._clock = clock or time.monotonic

        self._slots: Dict[str, _Slot] = {}
        self._resident: "OrderedDict[str, _Slot]" = OrderedDict()
        self._rejected = 0
        if models:
            for name, path in models.items():
                self.register(name, path)

    # ------------------------------------------------------------------
    # Registration / construction
    # ------------------------------------------------------------------

    @classmethod
    def from_directory(cls, directory: PathLike, **kwargs: Any) -> "ModelFleet":
        """A fleet over every ``*.json`` artifact in ``directory``.

        Model names are file stems; last-good copies, quarantined files,
        and journals do not match the glob and are ignored.
        """
        directory = Path(directory)
        paths = sorted(p for p in directory.glob("*.json") if p.is_file())
        if not paths:
            raise ValueError(f"{directory}: no model artifacts (*.json) found")
        fleet = cls(**kwargs)
        for path in paths:
            fleet.register(path.stem, path)
        return fleet

    def register(self, name: str, artifact_path: PathLike) -> None:
        """Add a model to the fleet (loading stays lazy)."""
        if not name:
            raise ValueError("model name must be non-empty")
        if name in self._slots:
            raise ValueError(f"model {name!r} already registered")
        path = Path(artifact_path)
        slot = _Slot(
            name=name,
            artifact_path=path,
            breaker=CircuitBreaker(self.breaker_threshold, self.breaker_cooldown),
        )
        slot.fingerprint = _fingerprint(path)
        self._slots[name] = slot

    @property
    def models(self) -> List[str]:
        return sorted(self._slots)

    @property
    def resident(self) -> List[str]:
        """Resident model names, least-recently-dispatched first."""
        return list(self._resident)

    def _slot(self, name: str) -> _Slot:
        try:
            return self._slots[name]
        except KeyError:
            raise ValueError(f"unknown model {name!r}") from None

    # ------------------------------------------------------------------
    # Residency (LRU cache of live engines)
    # ------------------------------------------------------------------

    def _journal_path(self, name: str) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        return self.journal_dir / f"{name}.journal.jsonl"

    def _engine(self, slot: _Slot) -> ServeEngine:
        """The slot's live engine, cold-loading (and LRU-evicting) as needed."""
        if slot.engine is not None:
            self._resident.move_to_end(slot.name)
            return slot.engine
        while len(self._resident) >= self.resident_limit:
            _, victim = next(iter(self._resident.items()))
            self.evict(victim.name)
        journal = self._journal_path(slot.name)
        kwargs: Dict[str, Any] = dict(
            retry=self.retry,
            breaker=CircuitBreaker(self.breaker_threshold, self.breaker_cooldown),
            fallback=self.fallback,
            queue_limit=self.queue_limit,
            default_deadline=self.default_deadline,
            journal_max_bytes=self.journal_max_bytes,
            journal_keep=self.journal_keep,
            loader=self._loader,
            clock=self._clock,
            keep_last_good=self.keep_last_good,
        )
        if kwargs["retry"] is None:
            del kwargs["retry"]
        if journal is not None and journal.exists() and journal.stat().st_size > 0:
            engine = ServeEngine.warm_restart(
                slot.artifact_path, journal, **kwargs
            )
        else:
            engine = ServeEngine(
                slot.artifact_path, journal_path=journal, **kwargs
            )
        if (
            slot.last_verified is not None
            and _fingerprint(slot.artifact_path) != slot.fingerprint
        ):
            # The deploy file changed while the engine was cold: those
            # bytes have NOT passed the canary gate, so a cold load must
            # not serve them.  Serve the vetted incumbent from memory and
            # leave the new file for :meth:`poll` to verify.
            engine.install_verified(slot.last_verified)
        slot.engine = engine
        slot.cold_loads += 1
        self._resident[slot.name] = slot
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.cold_loads")
            rec.gauge_max("serve.fleet.resident", len(self._resident))
        return engine

    def evict(self, name: str) -> bool:
        """Evict a model's engine (journal closed cleanly); idempotent."""
        slot = self._slot(name)
        if slot.engine is None:
            return False
        slot.answered += slot.engine.answered
        slot.shed += slot.engine.shed
        slot.engine_quarantines += slot.engine.quarantines
        slot.engine.close()
        slot.engine = None
        slot.evictions += 1
        self._resident.pop(name, None)
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.evictions")
        return True

    def abandon(self, name: str) -> bool:
        """Chaos hook: the model's worker dies abruptly (no clean close).

        The engine is dropped exactly as a SIGKILL would leave it — journal
        descriptor closed without a shutdown marker, queue lost — and the
        next dispatch warm-restarts from the journal.
        """
        slot = self._slot(name)
        if slot.engine is None:
            return False
        slot.answered += slot.engine.answered
        slot.shed += slot.engine.shed
        slot.engine_quarantines += slot.engine.quarantines
        slot.engine.abandon()
        slot.engine = None
        self._resident.pop(name, None)
        return True

    # ------------------------------------------------------------------
    # Bulkheaded dispatch
    # ------------------------------------------------------------------

    def _unavailable(self, slot: _Slot, reason: str) -> QueryResult:
        self._rejected += 1
        slot.unavailable += 1
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.unavailable")
            rec.incr(f"serve.fleet.unavailable.{reason}")
        return QueryResult(
            self._rejected - 1, UNAVAILABLE, _BULKHEAD, degraded=True
        )

    def _gate(self, slot: _Slot) -> Optional[QueryResult]:
        """Bulkhead checks before a dispatch touches the engine."""
        if slot.state == _QUARANTINED:
            return self._unavailable(slot, "quarantined")
        try:
            slot.breaker.before_call()
        except CircuitOpenError:
            rec = recorder()
            if rec.enabled:
                rec.incr("serve.fleet.breaker_rejects")
            return self._unavailable(slot, "breaker")
        return None

    def _account(self, slot: _Slot, result: QueryResult) -> None:
        """Feed a dispatch outcome to the breaker and the swap watch.

        An ``invalid`` request is the client's fault, not the model's, so
        it feeds neither: malformed queries cannot quarantine a healthy
        model or roll back a promotion.
        """
        if result.status == INVALID:
            return
        if result.status == FAILED:
            slot.breaker.record_failure()
            if slot.breaker.trips >= self.quarantine_after_trips:
                self.quarantine_model(slot.name, reason="dispatch breaker")
        else:
            slot.breaker.record_success()
        engine = slot.engine
        if (
            engine is not None
            and engine.serving_verified
            and engine.artifact is not None
        ):
            slot.last_verified = engine.artifact
        if slot.watching:
            slot.watch_requests += 1
            if result.status in (FAILED,) or result.degraded:
                slot.watch_bad += 1
            if slot.watch_requests >= self.watch_min:
                rate = slot.watch_bad / slot.watch_requests
                if rate > self.watch_threshold:
                    self._rollback(slot, reason="post-promotion error-rate spike")
                elif slot.watch_requests >= self.watch_window:
                    slot.watching = False
                    slot.pinned = None
                    slot.record("accept", digest=_short(slot.last_verified))

    def dispatch(
        self, name: str, coords: Any, deadline: Optional[float] = None
    ) -> QueryResult:
        """Answer one batched request against the named model.

        Bulkhead order: quarantine state, then the dispatch breaker, then
        the model's own engine (queue, deadline, degradation ladder).  A
        rejected dispatch is an explicit ``unavailable`` result — never an
        answer from a different model.
        """
        slot = self._slot(name)
        slot.dispatches += 1
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.dispatches")
        rejected = self._gate(slot)
        if rejected is not None:
            return rejected
        engine = self._engine(slot)
        try:
            result = engine.classify_batch(coords, deadline=deadline)
        except Exception:
            # An engine must not take the fleet down; the failure is the
            # model's alone and feeds its breaker.
            slot.breaker.record_failure()
            if slot.breaker.trips >= self.quarantine_after_trips:
                self.quarantine_model(slot.name, reason="dispatch breaker")
            if rec.enabled:
                rec.incr("serve.fleet.dispatch_errors")
            self._rejected += 1
            return QueryResult(
                self._rejected - 1, FAILED, _BULKHEAD, degraded=True
            )
        self._account(slot, result)
        return result

    def classify(
        self, name: str, point: Any, deadline: Optional[float] = None
    ) -> QueryResult:
        """Single-point view of :meth:`dispatch`."""
        return self.dispatch(name, [tuple(point)], deadline=deadline)

    def submit(
        self, name: str, coords: Any, deadline: Optional[float] = None
    ) -> Optional[QueryResult]:
        """Admit a request into the named model's bounded queue.

        Returns ``None`` on admission, an explicit ``overloaded`` (queue
        full) or ``unavailable`` (bulkhead) result otherwise — one model's
        load storm fills only its own queue.
        """
        slot = self._slot(name)
        slot.dispatches += 1
        rejected = self._gate(slot)
        if rejected is not None:
            return rejected
        return self._engine(slot).submit(coords, deadline=deadline)

    def drain(
        self, name: str, max_requests: Optional[int] = None
    ) -> List[QueryResult]:
        """Drain the named model's queue, feeding outcomes to its watch."""
        slot = self._slot(name)
        if slot.engine is None or slot.state == _QUARANTINED:
            return []
        results = slot.engine.drain(max_requests)
        for result in results:
            self._account(slot, result)
        return results

    # ------------------------------------------------------------------
    # Quarantine bulkhead
    # ------------------------------------------------------------------

    def quarantine_model(self, name: str, reason: str = "") -> None:
        """Quarantine a model: evict it and answer ``unavailable`` until
        :meth:`reinstate_model`.  Siblings are untouched."""
        slot = self._slot(name)
        if slot.state == _QUARANTINED:
            return
        self.evict(name)
        slot.state = _QUARANTINED
        slot.quarantine_reason = reason or None
        slot.record("quarantine", reason=reason)
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.quarantined_models")
            rec.event("serve.fleet.quarantine", model=name, reason=reason)

    def reinstate_model(self, name: str) -> None:
        """Lift a model's quarantine with a fresh dispatch breaker."""
        slot = self._slot(name)
        slot.state = _ACTIVE
        slot.quarantine_reason = None
        slot.breaker = slot.breaker.clone_fresh()
        slot.record("reinstate")

    # ------------------------------------------------------------------
    # Verified hot-swap / rollback
    # ------------------------------------------------------------------

    def _canary_coords(self, slot: _Slot, dim: int) -> np.ndarray:
        seq = np.random.SeedSequence(
            [
                self.canary_seed & 0xFFFFFFFF,
                zlib.crc32(slot.name.encode("utf-8")) & 0xFFFFFFFF,
                _CANARY_TAG,
            ]
        )
        rng = np.random.default_rng(seq)
        return rng.random((self.canary_count, dim)) * 2.0 - 0.5

    def _artifact_dim(self, artifact: ModelArtifact) -> Optional[int]:
        dim = artifact.fit.get("dim")
        if isinstance(dim, int) and dim >= 1:
            return dim
        return None

    def _incumbent(self, slot: _Slot) -> Optional[ModelArtifact]:
        engine = slot.engine
        if engine is not None and engine.serving_verified and engine.artifact:
            return engine.artifact
        return slot.last_verified

    def _repin(self, slot: _Slot, incumbent: Optional[ModelArtifact]) -> None:
        """Quarantine whatever sits at the deploy path, restore the incumbent."""
        quarantined = quarantine_artifact(
            slot.artifact_path, reason=f"fleet swap rejected ({slot.name})"
        )
        if incumbent is not None:
            try:
                write_verified_copy(incumbent, slot.artifact_path)
            except OSError:
                pass  # a full disk must not fail the reject path
        slot.fingerprint = _fingerprint(slot.artifact_path)
        rec = recorder()
        if rec.enabled and quarantined is not None:
            rec.event(
                "serve.fleet.candidate_quarantined",
                model=slot.name,
                path=str(quarantined),
            )

    def _reject(self, slot: _Slot, reason: str) -> Dict[str, Any]:
        slot.rejected_swaps += 1
        self._repin(slot, self._incumbent(slot))
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.swap_rejects")
        return slot.record("reject", reason=reason)

    def _rollback(self, slot: _Slot, reason: str) -> Dict[str, Any]:
        """Re-pin the incumbent after a promotion went bad."""
        incumbent = slot.pinned
        slot.watching = False
        slot.pinned = None
        slot.rollbacks += 1
        self._repin(slot, incumbent)
        if incumbent is not None:
            engine = self._engine(slot)
            engine.install_verified(incumbent)
            slot.last_verified = incumbent
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.swap_rollbacks")
            rec.event("serve.fleet.rollback", model=slot.name, reason=reason)
        return slot.record(
            "rollback", reason=reason, repinned=_short(incumbent)
        )

    def _attempt_swap(
        self, slot: _Slot, fingerprint: Tuple[int, int]
    ) -> Optional[Dict[str, Any]]:
        """Run the swap machine on a changed file in a ``serve.swap`` span.

        The span carries the ``model``, the ``outcome`` (``install``,
        ``promote``, ``reject``, or ``transient`` when the load failed
        retryably) and, for a reject, its ``reason``.
        """
        rec = recorder()
        with rec.span("serve.swap") as span:
            outcome, event = self._swap(slot, fingerprint)
            if rec.enabled:
                span.set_attr("model", slot.name)
                span.set_attr("outcome", outcome)
                if event is not None and "reason" in event:
                    span.set_attr("reason", event["reason"])
        return event

    def _swap(
        self, slot: _Slot, fingerprint: Tuple[int, int]
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """:meth:`_attempt_swap`'s body: ``(outcome, swap event or None)``."""
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.swap_candidates")
        try:
            candidate = self._loader(slot.artifact_path)
        except ValueError as exc:
            return "reject", self._reject(slot, reason=f"verification: {exc}")
        except (ServeLoadTransient, OSError):
            # Transient store trouble: leave the fingerprint stale so the
            # next poll retries; nothing to quarantine.
            return "transient", None
        incumbent = self._incumbent(slot)
        if incumbent is None or incumbent.digest == candidate.digest:
            # First deploy (nothing to compare against) or a cosmetic
            # rewrite of the same content: install without ceremony.
            engine = self._engine(slot)
            engine.install_verified(candidate)
            slot.last_verified = candidate
            slot.fingerprint = fingerprint
            if incumbent is None:
                return "install", slot.record("install", digest=_short(candidate))
            return "install", None
        dim = self._artifact_dim(incumbent)
        cand_dim = self._artifact_dim(candidate)
        if dim is not None and cand_dim is not None and dim != cand_dim:
            return "reject", self._reject(
                slot, reason=f"canary: dim {cand_dim} != incumbent {dim}"
            )
        if dim is None:
            dim = cand_dim
        if dim is None:
            return "reject", self._reject(
                slot, reason="canary: no usable 'dim' metadata"
            )
        coords = self._canary_coords(slot, dim)
        started = time.monotonic()
        try:
            incumbent_labels = incumbent.classifier.classify_matrix(coords)
            candidate_labels = candidate.classifier.classify_matrix(coords)
        except ValueError as exc:
            return "reject", self._reject(slot, reason=f"canary: {exc}")
        disagree = float(np.mean(incumbent_labels != candidate_labels))
        if rec.enabled:
            rec.record_time(
                "serve.fleet.canary_seconds", time.monotonic() - started
            )
        if disagree > self.canary_tolerance:
            return "reject", self._reject(
                slot,
                reason=(
                    f"canary: {disagree:.2f} disagreement > "
                    f"tolerance {self.canary_tolerance:.2f}"
                ),
            )
        engine = self._engine(slot)
        engine.install_verified(candidate)
        slot.pinned = incumbent
        slot.last_verified = candidate
        slot.watching = True
        slot.watch_requests = 0
        slot.watch_bad = 0
        slot.fingerprint = fingerprint
        slot.promotions += 1
        if rec.enabled:
            rec.incr("serve.fleet.swap_promotions")
            rec.event(
                "serve.fleet.promote",
                model=slot.name,
                digest=_short(candidate),
                disagreement=disagree,
            )
        return "promote", slot.record(
            "promote", digest=_short(candidate), disagreement=disagree
        )

    def poll(
        self, names: Optional[List[str]] = None
    ) -> List[Dict[str, Any]]:
        """Check deployed artifacts for new versions; hot-swap on change.

        Returns the swap-machine events this poll produced (``promote``,
        ``reject``, ``install``), one dict per affected model.  Models in
        quarantine are skipped; a vanished file is left to the engine's
        degradation ladder.
        """
        rec = recorder()
        if rec.enabled:
            rec.incr("serve.fleet.polls")
        events: List[Dict[str, Any]] = []
        for name in names if names is not None else self.models:
            slot = self._slot(name)
            if slot.state == _QUARANTINED:
                continue
            fingerprint = _fingerprint(slot.artifact_path)
            if fingerprint is None or fingerprint == slot.fingerprint:
                continue
            event = self._attempt_swap(slot, fingerprint)
            if event is not None:
                events.append({"model": name, **event})
        return events

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    def health(self) -> List[FleetModelHealth]:
        """Per-model readiness rows, sorted by model name."""
        rows = []
        for name in self.models:
            slot = self._slots[name]
            engine = slot.engine
            rows.append(
                FleetModelHealth(
                    name=name,
                    state=slot.state,
                    resident=engine is not None,
                    source=engine.source if engine is not None else "cold",
                    verified=(
                        engine.serving_verified if engine is not None else False
                    ),
                    breaker=slot.breaker.state,
                    queue_depth=engine.queue_depth if engine is not None else 0,
                    answered=slot.answered
                    + (engine.answered if engine is not None else 0),
                    shed=slot.shed + (engine.shed if engine is not None else 0),
                    quarantines=slot.engine_quarantines
                    + (engine.quarantines if engine is not None else 0),
                    cold_loads=slot.cold_loads,
                    evictions=slot.evictions,
                    promotions=slot.promotions,
                    rejected_swaps=slot.rejected_swaps,
                    rollbacks=slot.rollbacks,
                    watching=slot.watching,
                    digest=engine.model_digest if engine is not None else None,
                    last_event=(
                        slot.history[-1]["action"] if slot.history else None
                    ),
                )
            )
        return rows

    def swap_history(self, name: str) -> List[Dict[str, Any]]:
        """The named model's recent swap-machine events (oldest first)."""
        return list(self._slot(name).history)

    def resumed_requests(self, name: str) -> int:
        """Answered requests recorded in the model's journal (+ segments)."""
        journal = self._journal_path(name)
        if journal is None:
            return 0
        _meta, _seq, answered, _digest = read_serve_journal(journal)
        return answered

    def close(self) -> None:
        """Evict every resident engine (journals closed cleanly)."""
        for name in list(self._resident):
            self.evict(name)

    def __enter__(self) -> "ModelFleet":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ModelFleet(models={len(self._slots)}, "
            f"resident={len(self._resident)}/{self.resident_limit})"
        )


def _short(artifact: Optional[ModelArtifact]) -> Optional[str]:
    if artifact is None or artifact.digest is None:
        return None
    return artifact.digest[:12]
