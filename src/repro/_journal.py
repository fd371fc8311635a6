"""One append-only, crash-safe JSONL journal for probes and requests.

Every record is one ``json.dumps(payload, sort_keys=True)`` line, flushed
and fsynced before :meth:`Journal.append` returns.  A fresh file starts
with a ``{"meta": ...}`` header.  With ``max_bytes`` the live file rotates
to ``<path>.1`` (older segments shift up to ``<path>.k``), each new file
starting with its own header, and :func:`read_entries` stitches the
segments back oldest-first.

A line is valid when it parses as JSON and the caller's ``is_entry``
accepts it.  A run of invalid lines ending the newest file is a torn
tail, records a crash cut short, which never happened: reads skip it and
reopening cuts it off, so no append merges into it.  Any other invalid
line raises ``ValueError("<path>:<line>: corrupt journal line")``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ._util import PathLike
from .obs import recorder

__all__ = ["Journal", "read_entries", "rotated_journal_segments"]

#: Accepts one decoded line as a record of the journal.
IsEntry = Callable[[Any], bool]

#: Bytes read from the end of a reopened file to see that it ends cleanly.
_TAIL_PROBE = 4096

#: ``json.loads`` without its per-call argument handling.
_json_decode = json.JSONDecoder().decode


def _is_object(entry: Any) -> bool:
    return isinstance(entry, dict)


def rotated_journal_segments(path: PathLike) -> List[Path]:
    """Rotated segments paired with a journal path, oldest first.

    Rotation names segments ``<journal>.1`` (most recently rotated) up
    through ``<journal>.k`` (oldest retained), so the stitching order is
    ``.k, ..., .1`` followed by the live file itself.
    """
    path = Path(path)
    k = 1
    while path.with_name(f"{path.name}.{k}").exists():
        k += 1
    return [path.with_name(f"{path.name}.{j}") for j in range(k - 1, 0, -1)]


def _text(data: bytes) -> str:
    # surrogateescape: bytes a crash left half-written still decode, and
    # encode back to the same bytes.
    return data.decode("utf-8", "surrogateescape")


def _scan(lines: List[str], is_entry: IsEntry, path: Path,
          tolerate_tail: bool = True) -> Tuple[List[Any], int]:
    """The valid records of one file and the number of lines up to the last.

    An invalid line followed by a valid one raises, and so does a torn
    tail unless ``tolerate_tail``.
    """
    entries: List[Any] = []
    last = 0
    torn: Optional[int] = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = _json_decode(line)
        except ValueError:  # not JSON
            entry = None
        if not is_entry(entry):
            torn = torn or lineno
            continue
        if torn is not None:
            raise ValueError(f"{path}:{torn}: corrupt journal line")
        entries.append(entry)
        last = lineno
    if torn is not None and not tolerate_tail:
        raise ValueError(f"{path}:{torn}: corrupt journal line")
    return entries, last


def read_entries(path: PathLike, is_entry: IsEntry = _is_object) -> List[Any]:
    """Every record of a journal, its rotated segments first.

    Only the newest file may end in a torn tail.  A missing journal reads
    as empty.
    """
    path = Path(path)
    files = rotated_journal_segments(path)
    if path.exists():
        files.append(path)
    entries: List[Any] = []
    for k, file in enumerate(files):
        lines = _text(file.read_bytes()).split("\n")
        entries += _scan(lines, is_entry, file, k == len(files) - 1)[0]
    return entries


def _cut_torn_tail(path: Path, is_entry: IsEntry) -> None:
    """Cut a torn tail off ``path``, back to the end of its last record.

    A file that ends in a complete valid line costs one read of its last
    few kilobytes.  Otherwise the whole file is read, and a corrupt line
    before the torn tail raises as it does for a reader.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        handle.seek(max(0, size - _TAIL_PROBE))
        tail = handle.read()
        body = tail.rstrip()
        start = body.rfind(b"\n") + 1
        whole_line = start > 0 or size <= _TAIL_PROBE
        if (tail.endswith(b"\n") and whole_line
                and _scan([_text(body[start:])], is_entry, path)[0]):
            return
        handle.seek(0)
        lines = _text(handle.read()).split("\n")
        last = _scan(lines, is_entry, path)[1]
        handle.seek(len("\n".join(lines[:last]).encode("utf-8", "surrogateescape")))
        if last:
            handle.write(b"\n")  # as it was, or the newline a crash cut off
        handle.truncate()
        handle.flush()
        os.fsync(handle.fileno())


class Journal:
    """An open journal: ``append`` writes a durable record.

    ``is_entry`` (default: any JSON object) judges the torn tail cut on
    reopen.  ``meta`` heads every fresh file.  ``max_bytes`` caps the live
    file and ``keep_segments`` bounds the rotated ones.  With ``metrics``
    set, each line written counts into ``<metrics>_appends`` and each
    rotation into ``<metrics>_rotations``.  Every fsync is timed into
    ``journal.fsync_seconds`` when the recorder is enabled.
    """

    def __init__(
        self,
        path: PathLike,
        is_entry: IsEntry = _is_object,
        meta: Optional[Dict[str, Any]] = None,
        max_bytes: Optional[int] = None,
        keep_segments: int = 8,
        metrics: Optional[str] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1; got {max_bytes}")
        if keep_segments < 1:
            raise ValueError(f"keep_segments must be >= 1; got {keep_segments}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep_segments = int(keep_segments)
        self._meta = meta
        self._metrics = metrics
        _cut_torn_tail(self.path, is_entry)
        self._handle = open(self.path, "ab")
        self._size = self._handle.tell()
        if self._size == 0 and meta is not None:
            self.append({"meta": meta})

    def append(self, payload: Dict[str, Any]) -> None:
        """Write one record; it is on disk when this returns."""
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        if (
            self.max_bytes is not None
            and self._size > 0
            and self._size + len(line) > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        rec = recorder()
        if rec.enabled:
            start = time.perf_counter()
            os.fsync(self._handle.fileno())
            rec.record_time("journal.fsync_seconds", time.perf_counter() - start)
            if self._metrics is not None:
                rec.incr(f"{self._metrics}_appends")
        else:
            os.fsync(self._handle.fileno())
        self._size += len(line)

    def _rotate(self) -> None:
        """Shift ``.k-1 -> .k`` (dropping the oldest), live ``-> .1``."""
        self._handle.close()
        for k in range(self.keep_segments - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{k}")
            if src.exists():
                os.replace(src, self.path.with_name(f"{self.path.name}.{k + 1}"))
        os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._handle = open(self.path, "ab")
        self._size = 0
        rec = recorder()
        if rec.enabled and self._metrics is not None:
            rec.incr(f"{self._metrics}_rotations")
        if self._meta is not None:
            self.append({"meta": self._meta})

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()
