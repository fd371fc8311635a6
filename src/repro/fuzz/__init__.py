"""Differential fuzzing and adversarial hardening (``repro.fuzz``).

PR 4's resilience layer made the pipeline survive *infrastructure*
failure; this package defends it against *hostile data* — the regime the
paper itself studies (the Theorem 1 lower bound is an adversarial input
family).  Four pieces:

* :mod:`.generators` — hostile instance families: the paper's Theorem 1
  hard inputs, duplicate-coordinate floods, maximal chains/antichains,
  near-float-limit coordinates and weights, plus byte-level mutation of
  serialized datasets;
* :mod:`.engine` — the differential engine: the passive solver against
  brute force for small ``n``, array Dinic against the loop-Dinic
  reference, and the active pipeline at workers 1 and 2 must agree
  exactly and pass the :mod:`repro.core.validation` certificates;
* :mod:`.shrink` / :mod:`.corpus` — ddmin shrinking of any disagreement
  to a 1-minimal reproducer, archived in a replayable regression corpus
  under ``tests/corpus/``;
* :mod:`.mutants` / :mod:`.runner` — deliberately broken solver mutants
  that self-test the whole detect-shrink-archive loop, and the campaign
  driver behind ``repro fuzz`` and the nightly CI job.

See ``docs/robustness.md`` for the triage workflow.
"""

from .corpus import (
    CORPUS_SCHEMA_VERSION,
    iter_corpus,
    load_reproducer,
    replay_corpus,
    save_reproducer,
)
from .engine import (
    Disagreement,
    check_poset_structure,
    run_active_differential,
    run_flow_differential,
    run_passive_differential,
)
from .generators import FAMILIES, generate, mutate_bytes
from .mutants import MUTANTS, apply_mutant
from .runner import FuzzReport, fuzz_io_roundtrip, run_fuzz
from .shrink import shrink_instance

__all__ = [
    "FAMILIES",
    "generate",
    "mutate_bytes",
    "Disagreement",
    "run_passive_differential",
    "run_active_differential",
    "run_flow_differential",
    "check_poset_structure",
    "shrink_instance",
    "MUTANTS",
    "apply_mutant",
    "CORPUS_SCHEMA_VERSION",
    "save_reproducer",
    "load_reproducer",
    "iter_corpus",
    "replay_corpus",
    "FuzzReport",
    "run_fuzz",
    "fuzz_io_roundtrip",
]
