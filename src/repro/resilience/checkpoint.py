"""Crash-safe probe journaling and active-run checkpoints.

Probes are the *paid* resource of the active setting, so the crash-safety
invariant is "never re-pay a probe".  Two artifacts deliver it:

* **Probe journal** — an append-only JSONL file recording every *newly
  charged* reveal ``{"i": index, "l": label}`` as it happens (flushed and
  fsynced per line).  :class:`JournaledOracle` writes it transparently in
  front of any oracle; :func:`replay_journal` re-seeds a fresh oracle
  from it, making already-paid probes free dedup hits on resume.  The
  file is a :mod:`repro._journal` journal: a torn tail (crash mid-write)
  is skipped on load and cut off when the journal is reopened.
* **Checkpoint snapshot** — a JSON document (written with
  :func:`repro._util.atomic_write_json`, so it is never observed
  half-written) holding the run's identity metadata plus the ``Σ_i``
  weighted samples of completed chains, letting a resumed
  ``active_classify`` skip their recomputation entirely.

A resumed run replays the journal, restores completed chains from the
snapshot, and re-executes only the remainder with the same spawned seeds
— total charged probes across crash + resume equal a single uninterrupted
run, which ``tests/test_chaos_pipeline.py`` pins.

The crash window is one probe wide: a process killed *between* the inner
oracle charging and the journal append re-pays exactly that probe on
resume.  Closing it would need the oracle itself to be transactional.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from .._journal import Journal, read_entries
from .._util import PathLike, atomic_write_json
from ..obs import recorder
from .wrappers import OracleWrapper

__all__ = [
    "JournaledOracle",
    "ActiveCheckpoint",
    "journal_path",
    "read_journal",
    "replay_journal",
    "save_active_checkpoint",
    "load_active_checkpoint",
]


def journal_path(checkpoint: PathLike) -> Path:
    """The probe-journal path paired with a checkpoint file."""
    checkpoint = Path(checkpoint)
    return checkpoint.with_name(checkpoint.name + ".journal")


def _is_probe_entry(entry: Any) -> bool:
    """A meta header, or a reveal taken as stored: ``i`` a JSON integer
    and ``l`` the JSON integer 0 or 1 (a bool is neither)."""
    if not isinstance(entry, dict):
        return False
    if "meta" in entry:
        return True
    label = entry.get("l")
    return type(entry.get("i")) is int and type(label) is int and label in (0, 1)


class JournaledOracle(OracleWrapper):
    """Appends every newly charged reveal to a crash-safe journal.

    Wrap the *outermost* oracle of a stack: a reveal is journaled exactly
    when the wrapped oracle's ``cost`` increases, so retries, dedup hits,
    and failed attempts never write spurious entries.  Worker-side shards
    are served by the inner oracle unchanged — their probes are journaled
    when the parent absorbs them (in deterministic chain order).
    """

    def __init__(self, inner: Any, path: PathLike,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(inner)
        self.appends = 0
        self._log = Journal(path, _is_probe_entry, meta=meta)

    def _journal(self, index: int, label: int) -> None:
        self._log.append({"i": int(index), "l": int(label)})
        self.appends += 1
        rec = recorder()
        if rec.enabled:
            rec.incr("resilience.journal_appends")

    def probe(self, index: int) -> int:
        before = self._inner.cost
        label = self._inner.probe(index)
        if self._inner.cost > before:
            self._journal(index, label)
        return label

    def absorb(self, shard_log: Sequence[int],
               shard_revealed: Dict[int, int]) -> None:
        """Absorb a shard, journaling the reveals that were newly charged."""
        fresh = {
            int(i): int(label)
            for i, label in shard_revealed.items()
            if self._inner.peek(int(i)) is None
        }
        self._inner.absorb(shard_log, shard_revealed)
        for index, label in fresh.items():
            self._journal(index, label)

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        self._log.close()

    def __enter__(self) -> "JournaledOracle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"JournaledOracle({self._inner!r}, path={str(self._log.path)!r}, "
                f"appends={self.appends})")


def read_journal(path: PathLike) -> Tuple[Optional[Dict[str, Any]], Dict[int, int]]:
    """Load ``(meta, revealed)`` from a probe journal.

    A torn tail (a crash mid-append) is skipped; any other line that is
    not a meta header or a reveal raises ``ValueError`` naming the file
    and line, because it means the journal was edited or corrupted rather
    than merely cut short.
    """
    meta: Optional[Dict[str, Any]] = None
    revealed: Dict[int, int] = {}
    for entry in read_entries(path, _is_probe_entry):
        if "meta" in entry:
            meta = entry["meta"]
        else:
            revealed[entry["i"]] = entry["l"]
    return meta, revealed


def replay_journal(path: PathLike, oracle: Any,
                   expect_meta: Optional[Dict[str, Any]] = None) -> int:
    """Re-seed ``oracle`` with a journal's reveals; returns the count restored.

    The oracle must expose ``restore`` (both
    :class:`~repro.core.oracle.LabelOracle` and
    :class:`~repro.core.callback_oracle.CallbackOracle` do); restored
    labels become free dedup hits, so the resumed run never re-pays them.
    ``expect_meta`` guards against resuming the wrong run: when both it
    and the journal's recorded meta are present, any disagreeing key is a
    :class:`ValueError` *before* a single label is restored.
    """
    meta, revealed = read_journal(path)
    if expect_meta is not None and meta is not None:
        clashes = {key: (meta.get(key), value)
                   for key, value in expect_meta.items()
                   if meta.get(key) != value}
        if clashes:
            raise ValueError(
                f"probe journal {Path(path)} belongs to a different "
                f"checkpointed run: {clashes}"
            )
    if not revealed:
        return 0
    restored = int(oracle.restore(revealed))
    rec = recorder()
    if rec.enabled and restored:
        rec.incr("resilience.restored_probes", restored)
    return restored


# ----------------------------------------------------------------------
# Active-run checkpoints
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ActiveCheckpoint:
    """Snapshot of an interrupted ``active_classify`` run.

    ``meta`` identifies the run (``n``, ``epsilon``, ``num_chains``, ...)
    so a resume against different inputs fails loudly instead of silently
    blending two runs; ``done_chains`` maps chain id to its completed
    weighted sample ``Σ_i`` as plain lists.
    """

    meta: Dict[str, Any]
    done_chains: Dict[int, Dict[str, list]] = field(default_factory=dict)

    def compatible_with(self, meta: Dict[str, Any]) -> bool:
        """Whether this checkpoint belongs to a run shaped like ``meta``."""
        return all(self.meta.get(key) == value for key, value in meta.items())


def save_active_checkpoint(path: PathLike, meta: Dict[str, Any],
                           done_chains: Dict[int, Dict[str, list]]) -> None:
    """Atomically write an :class:`ActiveCheckpoint` document."""
    atomic_write_json(path, {
        "kind": "repro.active_checkpoint",
        "meta": meta,
        "done_chains": {str(k): v for k, v in done_chains.items()},
    })
    rec = recorder()
    if rec.enabled:
        rec.incr("resilience.checkpoints_written")


def load_active_checkpoint(path: PathLike) -> Optional[ActiveCheckpoint]:
    """Load a checkpoint document, or ``None`` when absent."""
    path = Path(path)
    if not path.exists():
        return None
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("kind") != "repro.active_checkpoint":
        raise ValueError(f"{path} is not an active-run checkpoint")
    return ActiveCheckpoint(
        meta=dict(payload.get("meta", {})),
        done_chains={
            int(k): v for k, v in payload.get("done_chains", {}).items()
        },
    )
