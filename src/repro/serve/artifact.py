"""Durable, integrity-verified model artifacts.

A *model artifact* is the unit of deployment for the serving layer: a
single JSON file holding a fitted classifier together with everything a
server needs to answer queries and to degrade gracefully when it cannot:

* the primary classifier (any family :mod:`repro.serialization` handles);
* an optional *fallback* classifier — typically the trivial majority
  baseline recorded at fit time — served, flagged as degraded, when the
  primary is unloadable;
* fit metadata (mode, dataset shape, probe bill, solver backend, ...);
* optionally the min-cut certificate of the fit, so operators can audit
  what was deployed.  Fits write ``"chains": null``; older artifacts that
  embed the chain decomposition still load (``repro width`` reports it).

The envelope is versioned and checksummed::

    {"magic": "repro-model-artifact", "schema_version": 1,
     "digest": "<sha256 of the canonical body JSON>", "body": {...}}

Writes go through :func:`repro._util.atomic_write_text`, so a crashed
writer never leaves a truncated artifact.  :func:`load_artifact` is a
strict validation boundary matching :mod:`repro.io`: it re-canonicalizes
the body, verifies the digest, and rejects corrupt, truncated, or hostile
bytes with a ``ValueError`` naming the file.  :func:`quarantine_artifact`
moves a rejected artifact aside (``<name>.quarantined[-k]``) so a bad
deploy is preserved for forensics instead of crashing the server or being
retried forever.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from .._util import PathLike, atomic_write_text
from ..core.classifier import ConstantClassifier
from ..core.points import PointSet
from ..obs import recorder
from ..serialization import (
    AnyClassifier,
    classifier_from_dict,
    classifier_to_dict,
)

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_SCHEMA_VERSION",
    "ModelArtifact",
    "artifact_digest",
    "fit_artifact",
    "load_artifact",
    "quarantine_artifact",
    "save_artifact",
]

ARTIFACT_MAGIC = "repro-model-artifact"
ARTIFACT_SCHEMA_VERSION = 1

#: Cap on quarantine-name probing; beyond this the oldest slot is reused.
_MAX_QUARANTINE_SLOTS = 64


@dataclass
class ModelArtifact:
    """A fitted model plus its serving and audit metadata.

    Attributes
    ----------
    classifier:
        The primary classifier queries are answered with.
    fallback:
        Optional degraded-mode classifier (the trivial baseline recorded
        at fit time).  Servers answer from it — flagged — when the
        primary artifact cannot be loaded.
    fit:
        Free-form fit metadata (mode, n, dim, epsilon, probes, backend).
    chains:
        Optional chain decomposition of the training set (lists of point
        indices, most-dominated first).  :func:`fit_artifact` leaves it
        ``None``; it is kept for artifacts that embed one.
    certificate:
        Optional min-cut certificate of the fit (optimal error, flow
        value, contending-set size, backend).
    digest:
        SHA-256 hex digest of the canonical body; filled in by
        :func:`save_artifact` / :func:`load_artifact`.
    """

    classifier: AnyClassifier
    fallback: Optional[AnyClassifier] = None
    fit: Dict[str, Any] = field(default_factory=dict)
    chains: Optional[List[List[int]]] = None
    certificate: Optional[Dict[str, Any]] = None
    digest: Optional[str] = None

    def body(self) -> Dict[str, Any]:
        """The digestable body document (everything except the envelope)."""
        return {
            "classifier": classifier_to_dict(self.classifier),
            "fallback": (
                classifier_to_dict(self.fallback)
                if self.fallback is not None
                else None
            ),
            "fit": self.fit,
            "chains": self.chains,
            "certificate": self.certificate,
        }


def artifact_digest(body: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical (sorted, compact) body JSON.

    The digest is computed over a canonical re-serialization rather than
    raw file bytes, so cosmetic whitespace differences do not invalidate
    an artifact while any *content* mutation does.
    """
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_artifact(artifact: ModelArtifact, path: PathLike) -> str:
    """Write ``artifact`` to ``path`` atomically; returns the digest.

    The envelope records the schema version and the body digest; the
    artifact's ``digest`` field is updated in place.
    """
    body = artifact.body()
    digest = artifact_digest(body)
    envelope = {
        "magic": ARTIFACT_MAGIC,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "digest": digest,
        "body": body,
    }
    atomic_write_text(path, json.dumps(envelope, indent=1))
    artifact.digest = digest
    rec = recorder()
    if rec.enabled:
        rec.incr("serve.artifacts_written")
    return digest


def load_artifact(path: PathLike) -> ModelArtifact:
    """Read and verify an artifact written by :func:`save_artifact`.

    Verification order: parseable JSON → object envelope → magic → schema
    version → digest over the canonical body → body structure (classifier
    payloads, chain/certificate types).  Every failure raises
    ``ValueError`` naming the file, the same contract :mod:`repro.io`
    enforces for datasets — and the byte-mutation fuzzer enforces here.
    """
    path = Path(path)
    rec = recorder()
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read artifact: {exc}") from None
    try:
        envelope = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _count_reject(rec)
        raise ValueError(f"{path}: not parseable as JSON: {exc}") from None
    if not isinstance(envelope, dict):
        _count_reject(rec)
        raise ValueError(
            f"{path}: expected a JSON object, got {type(envelope).__name__}"
        )
    if envelope.get("magic") != ARTIFACT_MAGIC:
        _count_reject(rec)
        raise ValueError(
            f"{path}: not a model artifact (magic={envelope.get('magic')!r})"
        )
    version = envelope.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        _count_reject(rec)
        raise ValueError(
            f"{path}: unsupported artifact schema version {version!r} "
            f"(supported: {ARTIFACT_SCHEMA_VERSION})"
        )
    body = envelope.get("body")
    if not isinstance(body, dict):
        _count_reject(rec)
        raise ValueError(f"{path}: artifact body must be an object")
    recorded = envelope.get("digest")
    actual = artifact_digest(body)
    if recorded != actual:
        _count_reject(rec)
        raise ValueError(
            f"{path}: content digest mismatch (recorded {recorded!r}, "
            f"computed {actual!r}) — artifact is corrupt or tampered with"
        )
    try:
        artifact = _artifact_from_body(body)
    except ValueError as exc:
        _count_reject(rec)
        raise ValueError(f"{path}: {exc}") from None
    artifact.digest = actual
    if rec.enabled:
        rec.incr("serve.artifact_loads")
    return artifact


def _count_reject(rec: Any) -> None:
    if rec.enabled:
        rec.incr("serve.artifact_rejects")


def _artifact_from_body(body: Dict[str, Any]) -> ModelArtifact:
    """Decode a verified body; raises bare ``ValueError`` on bad structure."""
    classifier = classifier_from_dict(body.get("classifier"))  # type: ignore[arg-type]
    fallback_doc = body.get("fallback")
    fallback: Optional[AnyClassifier] = None
    if fallback_doc is not None:
        fallback = classifier_from_dict(fallback_doc)
    fit = body.get("fit")
    if fit is None:
        fit = {}
    if not isinstance(fit, dict):
        raise ValueError("'fit' metadata must be an object")
    chains = _chains_from_body(body.get("chains"), fit.get("n"))
    certificate = body.get("certificate")
    if certificate is not None and not isinstance(certificate, dict):
        raise ValueError("'certificate' must be an object")
    return ModelArtifact(
        classifier=classifier,
        fallback=fallback,
        fit=fit,
        chains=chains,
        certificate=certificate,
    )


def _chains_from_body(chains: Any, n: Any) -> Optional[List[List[int]]]:
    """Embedded chains as stored: distinct JSON integers in ``[0, n)``."""
    if chains is None:
        return None
    if not isinstance(chains, list) or not all(isinstance(c, list) for c in chains):
        raise ValueError("'chains' must be a list of index lists")
    flat = list(itertools.chain.from_iterable(chains))
    # Exact type test: bool, float and str entries are rejected, not coerced.
    if not set(map(type, flat)) <= {int}:
        raise ValueError("'chains' entries must be JSON integers")
    if flat and (min(flat) < 0 or (type(n) is int and max(flat) >= n)):
        raise ValueError(f"'chains' holds an index outside [0, n) for n={n!r}")
    if len(set(flat)) != len(flat):
        raise ValueError("'chains' holds an index more than once")
    return chains


def quarantine_artifact(path: PathLike, reason: str = "") -> Optional[Path]:
    """Move a rejected artifact aside instead of deleting or retrying it.

    The file is renamed to ``<name>.quarantined`` (or ``-k`` suffixed when
    earlier quarantines exist), preserving the bad bytes for forensics.
    Suffix selection is atomic: each slot is claimed with an
    ``O_CREAT | O_EXCL`` placeholder before the rename, so concurrent
    quarantines of the same artifact name race to *different* slots and
    never overwrite each other's preserved bytes.  Returns the quarantine
    path, or ``None`` when the artifact vanished in the meantime (another
    process may have quarantined it first).
    """
    path = Path(path)
    if not path.exists():
        return None
    target: Optional[Path] = None
    claimed = False
    for k in range(_MAX_QUARANTINE_SLOTS):
        suffix = ".quarantined" if k == 0 else f".quarantined-{k}"
        candidate = path.with_name(path.name + suffix)
        try:
            fd = os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return None
        os.close(fd)
        target = candidate
        claimed = True
        break
    if target is None:
        # Every slot taken: reuse the last one rather than probing forever.
        target = path.with_name(
            f"{path.name}.quarantined-{_MAX_QUARANTINE_SLOTS - 1}"
        )
    try:
        os.replace(path, target)
    except OSError:
        if claimed:
            try:
                os.unlink(target)
            except OSError:
                pass
        return None
    rec = recorder()
    if rec.enabled:
        rec.incr("serve.quarantined")
        rec.event("serve.quarantine", path=str(path), reason=reason)
    return target


def _majority_fallback(points: PointSet) -> ConstantClassifier:
    """The weighted-majority constant classifier of a labeled fit set."""
    labels = np.asarray(points.labels)
    known = labels >= 0
    if not known.any():
        return ConstantClassifier(0)
    weights = np.asarray(points.weights, dtype=float)[known]
    ones = float(weights[labels[known] == 1].sum())
    return ConstantClassifier(1 if 2.0 * ones >= float(weights.sum()) else 0)


def fit_artifact(
    points: PointSet,
    mode: str = "passive",
    *,
    epsilon: float = 0.5,
    seed: int = 0,
    backend: str = "dinic",
    decomposition: str = "exact",
    include_certificate: bool = True,
) -> ModelArtifact:
    """Fit a classifier on a fully-labeled set and package it for serving.

    ``mode="passive"`` solves Problem 2 exactly (Theorem 4) and records
    the min-cut certificate; ``mode="active"`` runs the Theorem 2
    algorithm against a :class:`~repro.core.oracle.LabelOracle` over
    ``points`` and records the probe bill.  Both embed the trivial
    weighted-majority fallback so a server holding only this artifact can
    always degrade instead of going down.  Neither mode writes the
    chain decomposition: the passive fit never computes one, and the
    active fit's chains stay inside :func:`~repro.core.active.active_classify`.
    """
    points.require_full_labels()
    fallback = _majority_fallback(points)
    fit_meta: Dict[str, Any] = {
        "mode": mode,
        "n": int(points.n),
        "dim": int(points.dim),
    }
    certificate: Optional[Dict[str, Any]] = None
    classifier: AnyClassifier
    if mode == "passive":
        from ..core.passive import solve_passive

        passive_result = solve_passive(points, backend=backend)
        classifier = passive_result.classifier
        fit_meta["backend"] = passive_result.backend
        if include_certificate:
            certificate = {
                "optimal_error": float(passive_result.optimal_error),
                "flow_value": float(passive_result.flow_value),
                "num_contending": int(passive_result.num_contending),
                "backend": passive_result.backend,
            }
    elif mode == "active":
        from ..core.active import active_classify
        from ..core.oracle import LabelOracle

        oracle = LabelOracle(points)
        active_result = active_classify(
            points.with_hidden_labels(),
            oracle,
            epsilon=epsilon,
            rng=seed,
            decomposition=decomposition,
        )
        classifier = active_result.classifier
        fit_meta.update(
            {
                "epsilon": float(epsilon),
                "seed": int(seed),
                "probes": int(active_result.probing_cost),
                "num_chains": int(active_result.num_chains),
                "sigma_error": float(active_result.sigma_error),
            }
        )
    else:
        raise ValueError(f"unknown fit mode {mode!r}; expected passive or active")
    return ModelArtifact(
        classifier=classifier,
        fallback=fallback,
        fit=fit_meta,
        certificate=certificate,
    )
