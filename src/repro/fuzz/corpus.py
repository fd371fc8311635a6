"""Replayable regression corpus for shrunk reproducers.

Every disagreement the fuzzer finds and shrinks is serialized into a
small, self-describing JSON file under ``tests/corpus/``.  Corpus entries
are the fuzzer's long-term memory: tier-1 tests replay every entry through
the passive differential on each run, so a bug found once by a nightly
campaign can never silently return.

The format is deliberately dumb — schema version, provenance (family,
seed, mutant, findings at capture time), and the columnar point data —
and the filename embeds a content digest, so re-saving the same
reproducer is idempotent and replay is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import atomic_write_json
from ..core.points import PointSet
from .engine import Disagreement, run_passive_differential

__all__ = [
    "CORPUS_SCHEMA_VERSION",
    "save_reproducer",
    "load_reproducer",
    "iter_corpus",
    "replay_corpus",
]

PathLike = Union[str, Path]

CORPUS_SCHEMA_VERSION = 1


def _points_payload(points: PointSet) -> Dict[str, object]:
    return {
        "dim": points.dim,
        "coords": points.coords.tolist(),
        "labels": points.labels.tolist(),
        "weights": points.weights.tolist(),
    }


def save_reproducer(corpus_dir: PathLike, points: PointSet, *,
                    family: str, seed: int,
                    findings: Sequence[Disagreement],
                    mutant: Optional[str] = None) -> Path:
    """Serialize a shrunk reproducer; returns the written path.

    The filename is ``repro-<family>-<digest>.json`` where the digest
    covers the instance data, so saving the same reproducer twice (e.g.
    from two campaigns) lands on the same file.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CORPUS_SCHEMA_VERSION,
        "family": family,
        "seed": seed,
        "mutant": mutant,
        "findings": [str(f) for f in findings],
        "points": _points_payload(points),
    }
    digest = hashlib.sha256(
        json.dumps(payload["points"], sort_keys=True).encode()
    ).hexdigest()[:12]
    path = corpus_dir / f"repro-{family}-{digest}.json"
    atomic_write_json(path, payload)
    return path


def load_reproducer(path: PathLike) -> Tuple[PointSet, Dict[str, object]]:
    """Load one corpus entry; returns ``(points, metadata)``.

    Corpus files are trusted repository artifacts but still validated —
    a malformed entry raises ``ValueError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not parseable as JSON: {exc}") from None
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError(f"{path}: not a corpus entry (missing 'points')")
    schema = payload.get("schema")
    if schema != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported corpus schema {schema!r} "
            f"(expected {CORPUS_SCHEMA_VERSION})")
    data = payload["points"]
    try:
        points = PointSet(np.asarray(data["coords"], dtype=float)
                          .reshape(-1, int(data["dim"])),
                          data["labels"], data["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed points payload: {exc}") from None
    meta = {key: value for key, value in payload.items() if key != "points"}
    return points, meta


def iter_corpus(corpus_dir: PathLike) -> Iterator[Path]:
    """Yield corpus entry paths in sorted (deterministic) order."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return
    yield from sorted(corpus_dir.glob("repro-*.json"))


def replay_corpus(corpus_dir: PathLike) -> List[Tuple[Path, List[Disagreement]]]:
    """Re-run the passive differential on every corpus entry.

    Returns ``(path, findings)`` pairs for entries that still disagree —
    on a healthy tree the list is empty (every archived bug stays fixed).
    """
    failures: List[Tuple[Path, List[Disagreement]]] = []
    for path in iter_corpus(corpus_dir):
        points, _meta = load_reproducer(path)
        findings = run_passive_differential(points)
        if findings:
            failures.append((path, findings))
    return failures
