"""Fuzz campaigns: generate → differentiate → shrink → archive.

:func:`run_fuzz` is the driver behind ``repro fuzz`` and the CI jobs.  Per
run it draws a hostile instance from a registered family (child seed
``i`` of the campaign seed, so any single run can be replayed in
isolation), pushes it through the passive differential, a random
max-flow cross-check, periodically the active workers-1-vs-2 differential,
and — for the ``io`` family — byte-mutates serialized datasets against the
loader boundary.  Any disagreement is shrunk with ddmin to a 1-minimal
reproducer and archived in the regression corpus.

Campaigns are deterministic given ``(seed, runs, families, size)``; the
optional wall-clock budget only ever *truncates* the run sequence, it
never reorders it.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.points import PointSet
from ..flow import FlowNetwork
from ..obs import recorder
from ..parallel.seeds import spawn_seed_sequences
from .corpus import save_reproducer
from .engine import (
    Disagreement,
    check_poset_structure,
    run_active_differential,
    run_flow_differential,
    run_passive_differential,
)
from .generators import FAMILIES, generate, mutate_bytes, serialized_corpus_texts
from .mutants import apply_mutant
from .shrink import shrink_instance

__all__ = ["FuzzReport", "run_fuzz", "fuzz_io_roundtrip",
           "fuzz_artifact_roundtrip", "IO_FAMILY"]

#: Pseudo-family name routing runs to the IO byte-mutation fuzzer.
IO_FAMILY = "io"


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    runs: int = 0
    seed: int = 0
    instances_by_family: Dict[str, int] = field(default_factory=dict)
    findings: List[Tuple[str, int, Disagreement]] = field(default_factory=list)
    reproducers: List[str] = field(default_factory=list)
    io_mutations: int = 0
    io_violations: List[str] = field(default_factory=list)
    shrink_evaluations: int = 0
    truncated_by_budget: bool = False

    @property
    def num_disagreements(self) -> int:
        """Total findings across all runs (including IO-boundary breaks)."""
        return len(self.findings) + len(self.io_violations)

    @property
    def ok(self) -> bool:
        """True when the campaign found nothing."""
        return self.num_disagreements == 0

    def summary_row(self) -> Dict[str, object]:
        """One table row for the CLI."""
        return {
            "runs": self.runs,
            "families": len(self.instances_by_family),
            "io_mutations": self.io_mutations,
            "disagreements": self.num_disagreements,
            "reproducers": len(self.reproducers),
            "shrink_evals": self.shrink_evaluations,
            "ok": self.ok,
        }


def fuzz_io_roundtrip(points: PointSet, rng: np.random.Generator,
                      mutations_per_text: int = 8) -> Tuple[int, List[str]]:
    """Byte-mutate both serialized forms of ``points`` against the loaders.

    Every mutated file must either load into a valid :class:`PointSet` or
    raise ``ValueError`` — any other exception type is a violation of the
    :mod:`repro.io` validation boundary.  Returns ``(mutations_tried,
    violations)``.
    """
    from ..io import load_csv, load_json

    violations: List[str] = []
    tried = 0
    texts = serialized_corpus_texts(points)
    with tempfile.TemporaryDirectory() as tmp:
        for text, (suffix, loader) in zip(
                texts, ((".csv", load_csv), (".json", load_json))):
            for k in range(mutations_per_text):
                tried += 1
                corrupted = mutate_bytes(text, rng, mutations=1 + k % 4)
                target = Path(tmp) / f"mutated{k}{suffix}"
                target.write_bytes(corrupted)
                try:
                    loaded = loader(target)
                except ValueError:
                    continue  # clean rejection: the boundary held
                except Exception as exc:  # noqa: BLE001 - the point of the test
                    violations.append(
                        f"{suffix} loader raised {type(exc).__name__} on "
                        f"mutated input: {exc}")
                    continue
                # Accepted: the parse must at least be a structurally valid
                # set (constructor invariants enforce the rest).
                if loaded.n and not np.isfinite(loaded.coords).all():
                    violations.append(
                        f"{suffix} loader accepted non-finite coordinates")
    return tried, violations


def fuzz_artifact_roundtrip(
    points: PointSet, rng: np.random.Generator,
    mutations_per_text: int = 8,
    corpus_dir: Optional[str] = None,
) -> Tuple[int, List[str], List[str]]:
    """Byte-mutate a serve model artifact against :func:`load_artifact`.

    Fits a real artifact (classifier + fallback + certificate) on
    ``points`` and attaches the chain decomposition fits no longer write,
    so mutations reach the loader's chain checks.  It then attacks the
    envelope the way :func:`fuzz_io_roundtrip` attacks datasets: every
    mutation must either be *cleanly rejected* (``ValueError`` naming the
    file) or load into an artifact whose digest verifies and whose
    classifier still answers queries.  Any other exception type — or an
    accepted artifact that then crashes on a classify — is a violation of
    the serve validation boundary.  Offending mutated bytes are archived
    under ``corpus_dir`` when given.  Returns ``(mutations_tried,
    violations, archived_paths)``.
    """
    import hashlib

    from ..poset import minimum_chain_decomposition
    from ..serve.artifact import fit_artifact, load_artifact, save_artifact

    if points.n == 0:
        return 0, [], []
    if (points.labels < 0).any():
        points = points.replace(labels=np.where(points.labels < 0, 0,
                                                points.labels))
    artifact = replace(fit_artifact(points, "passive"),
                       chains=minimum_chain_decomposition(points).chains)
    violations: List[str] = []
    archived: List[str] = []
    tried = 0
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "artifact.json"
        save_artifact(artifact, source)
        text = source.read_text()
        for k in range(mutations_per_text):
            tried += 1
            corrupted = mutate_bytes(text, rng, mutations=1 + k % 4)
            target = Path(tmp) / f"mutated{k}.json"
            target.write_bytes(corrupted)
            finding: Optional[str] = None
            try:
                loaded = load_artifact(target)
            except ValueError:
                continue  # clean rejection: the boundary held
            except Exception as exc:  # noqa: BLE001 - the point of the test
                finding = (f"artifact loader raised {type(exc).__name__} on "
                           f"mutated envelope: {exc}")
            else:
                # Accepted: the digest verified, so the artifact must be
                # fully servable — a classify crash here means hostile
                # bytes slipped past verification.
                try:
                    probe = np.zeros((1, points.dim))
                    loaded.classifier.classify_matrix(probe)
                    if loaded.fallback is not None:
                        loaded.fallback.classify_matrix(probe)
                except Exception as exc:  # noqa: BLE001
                    finding = ("artifact accepted but classify raised "
                               f"{type(exc).__name__}: {exc}")
            if finding is None:
                continue
            violations.append(finding)
            if corpus_dir is not None:
                stem = hashlib.sha256(corrupted).hexdigest()[:16]
                corpus = Path(corpus_dir)
                corpus.mkdir(parents=True, exist_ok=True)
                entry = corpus / f"artifact-{stem}.json"
                entry.write_bytes(corrupted)
                archived.append(str(entry))
    return tried, violations, archived


def _random_network(rng: np.random.Generator, max_nodes: int = 24
                    ) -> Tuple[FlowNetwork, int, int]:
    """A small random capacitated digraph for the max-flow differential."""
    n = int(rng.integers(2, max_nodes + 1))
    network = FlowNetwork(n)
    num_edges = int(rng.integers(1, 4 * n))
    for _ in range(num_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        capacity = float(rng.choice([0.0, 0.5, 1.0, 3.0, 1e6,
                                     float(rng.random() * 10)]))
        network.add_edge(u, v, capacity)
    return network, 0, n - 1


def run_fuzz(
    runs: int = 100,
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
    size: int = 48,
    corpus_dir: Optional[str] = None,
    mutant: Optional[str] = None,
    active_every: int = 0,
    active_max_n: int = 40,
    time_budget: Optional[float] = None,
    shrink: bool = True,
) -> FuzzReport:
    """Run a differential fuzz campaign; see the module docstring.

    Parameters
    ----------
    runs:
        Number of instances to generate and cross-check.
    seed:
        Campaign seed; run ``i`` uses child seed ``i`` (replayable alone).
    families:
        Family names to draw from (default: all registered point-set
        families plus the ``io`` byte-mutation fuzzer).
    size:
        Target instance size handed to the generators.
    corpus_dir:
        When set, shrunk reproducers are archived here.
    mutant:
        Optional named solver mutant (see :mod:`repro.fuzz.mutants`)
        activated for every differential check — the engine's self-test
        mode; campaigns with a mutant are *expected* to find disagreements.
    active_every:
        Every ``k``-th run additionally cross-checks the active pipeline
        (workers 1 vs 2) on a size-capped instance; 0 disables.
    time_budget:
        Optional wall-clock budget in seconds; the campaign stops early
        (deterministic prefix of the full campaign) when exceeded.
    shrink:
        Disable to archive unshrunk instances (faster triage runs).
    """
    if runs < 0:
        raise ValueError(f"runs must be >= 0; got {runs}")
    chosen = list(families) if families else [*sorted(FAMILIES), IO_FAMILY]
    for name in chosen:
        if name != IO_FAMILY and name not in FAMILIES:
            raise ValueError(
                f"unknown fuzz family {name!r}; available: "
                f"{sorted(FAMILIES) + [IO_FAMILY]}")
    rec = recorder()
    report = FuzzReport(seed=seed)
    child_seeds = spawn_seed_sequences(np.random.default_rng(seed), runs)
    started = time.monotonic()
    def mutant_context() -> ContextManager[None]:
        return apply_mutant(mutant) if mutant else nullcontext()

    for index in range(runs):
        if time_budget is not None and time.monotonic() - started > time_budget:
            report.truncated_by_budget = True
            break
        rng = np.random.default_rng(child_seeds[index])
        family = chosen[index % len(chosen)]
        report.instances_by_family[family] = (
            report.instances_by_family.get(family, 0) + 1)
        report.runs += 1
        if rec.enabled:
            rec.incr("fuzz.instances")
            rec.incr(f"fuzz.family.{family}")

        if family == IO_FAMILY:
            points = generate("random", rng, min(size, 24))
            tried, violations = fuzz_io_roundtrip(points, rng)
            a_tried, a_violations, a_archived = fuzz_artifact_roundtrip(
                points, rng, corpus_dir=corpus_dir)
            tried += a_tried
            violations = violations + a_violations
            report.io_mutations += tried
            report.io_violations.extend(violations)
            report.reproducers.extend(a_archived)
            if rec.enabled:
                rec.incr("fuzz.io_mutations", tried)
                if violations:
                    rec.incr("fuzz.disagreements", len(violations))
            continue

        points = generate(family, rng, size)
        with mutant_context():
            findings = run_passive_differential(points)
        findings.extend(run_flow_differential(*_random_network(rng)))
        if active_every and index % active_every == 0 and points.n:
            capped = (points if points.n <= active_max_n
                      else points.subset(np.arange(active_max_n)))
            with mutant_context():
                findings.extend(run_active_differential(capped, seed=seed))

        if not findings:
            continue
        for finding in findings:
            report.findings.append((family, index, finding))

        shrunk = points
        if shrink and points.n > 1:
            # Structure-only findings (a broken matching, say) can be
            # re-checked without re-running the whole passive differential —
            # ddmin runs hundreds of predicate evaluations, so the cheap
            # predicate is the difference between seconds and minutes.
            structure_only = all(f.kind == "structure" for f in findings)

            def still_fails(candidate: PointSet) -> bool:
                with mutant_context():
                    if structure_only:
                        return bool(check_poset_structure(candidate))
                    return bool(run_passive_differential(candidate))

            with_passive = still_fails(points)
            if with_passive:
                shrunk, evaluations = shrink_instance(points, still_fails)
                report.shrink_evaluations += evaluations
        if corpus_dir is not None:
            path = save_reproducer(corpus_dir, shrunk, family=family,
                                   seed=seed, findings=findings,
                                   mutant=mutant)
            report.reproducers.append(str(path))

    if rec.enabled:
        rec.gauge("fuzz.total_disagreements", report.num_disagreements)
    return report
