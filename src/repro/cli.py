"""Command-line interface: ``repro-monotone`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Produce a synthetic workload and write it to CSV/JSON.
``passive``
    Solve Problem 2 exactly on a stored point set and report the optimum.
``active``
    Run the Theorem 2 algorithm against a stored (fully labeled) point set
    used as the oracle's ground truth; reports probes and achieved error.
``width``
    Report the dominance width and chain statistics of a stored point set.
``experiment``
    Run one or all registered experiments and print their tables.
``fit``
    Fit a classifier on a stored point set and write a durable,
    digest-verified model artifact (see ``docs/serving.md``).
``serve``
    Answer classify queries from a model artifact through the
    fault-tolerant :class:`~repro.serve.ServeEngine` (bounded queue,
    deadlines, degradation ladder), run a chaos campaign (``--chaos``),
    or serve a directory of artifacts as a bulkheaded multi-model fleet
    with verified hot-swap and per-model health (``--fleet``).
``fuzz``
    Differential fuzz campaign: hostile instance families through every
    passive configuration, certificates cross-checked, disagreements
    shrunk into a replayable corpus (see ``docs/robustness.md``).
``profile``
    Phase-attribution profile (self/cumulative time, flamegraph export)
    of a trace recorded with ``--trace-out``.

Every workload subcommand accepts ``--metrics`` (print an instrumentation
report after the run), ``--metrics-out FILE`` (write the metrics document
— JSON, CSV, or OpenMetrics text by extension), and ``--trace-out FILE``
(write a Chrome trace-event timeline, viewable in Perfetto).  Missing or
malformed input files and unwritable output destinations exit with code 2
and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from ._util import format_table
from .flow import FLOW_BACKENDS

__all__ = ["main", "build_parser"]


def _add_metrics_flags(sub: argparse.ArgumentParser) -> None:
    """Attach the shared instrumentation flags to a subcommand parser."""
    group = sub.add_argument_group("instrumentation")
    group.add_argument("--metrics", action="store_true",
                       help="print counters/gauges/span timings after the run")
    group.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics document to FILE "
                            "(JSON or CSV by extension; .prom/.om/"
                            ".openmetrics for OpenMetrics text)")
    group.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event timeline of the run "
                            "to FILE (open in Perfetto or chrome://tracing)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-monotone",
        description="Monotone classification (Tao & Wang, PODS 2021) toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("output", help="output file (.csv or .json)")
    gen.add_argument("--kind",
                     choices=["threshold1d", "monotone", "width", "entity",
                              "records"],
                     default="monotone")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--width", type=int, default=8)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)

    passive = sub.add_parser("passive", help="solve Problem 2 exactly (Theorem 4)")
    passive.add_argument("input", help="point-set file (.csv or .json)")
    passive.add_argument("--backend", choices=sorted(FLOW_BACKENDS),
                         default="dinic")

    active = sub.add_parser("active", help="run the Theorem 2 active algorithm")
    active.add_argument("input", help="fully-labeled point-set file (ground truth)")
    active.add_argument("--epsilon", type=float, default=0.5)
    active.add_argument("--seed", type=int, default=0)
    active.add_argument("--decomposition", choices=["exact", "greedy"],
                        default="exact")
    active.add_argument("--workers", type=int, default=1,
                        help="processes for chain-level parallel sampling "
                             "(default 1; output is identical for any value)")
    resil = active.add_argument_group(
        "resilience", "fault injection, retries, and checkpoint/resume "
                      "(see docs/resilience.md)")
    resil.add_argument("--retry-max", type=int, default=None, metavar="K",
                       help="retry transient probe failures up to K attempts "
                            "per probe (enables the retry layer)")
    resil.add_argument("--probe-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-probe deadline; slow probes fail as "
                            "retryable timeouts")
    resil.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write a crash-safe probe journal and per-chain "
                            "checkpoint to PATH (+ PATH.journal)")
    resil.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint: replay paid probes, "
                            "skip completed chains")
    resil.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="deterministic chaos spec, e.g. "
                            "'transient=0.1,flip=0.02,seed=7' (fields: "
                            "transient, timeout, flip, dead, dead_indices, "
                            "latency, seed)")
    resil.add_argument("--degrade", action="store_true",
                       help="on halting failures return a best-effort "
                            "classifier and a run report instead of failing")

    fit = sub.add_parser(
        "fit", help="fit a classifier and write a durable model artifact")
    fit.add_argument("input", help="fully-labeled point-set file (.csv or .json)")
    fit.add_argument("artifact", help="output artifact file (.json)")
    fit.add_argument("--mode", choices=["passive", "active"], default="passive")
    fit.add_argument("--backend", choices=sorted(FLOW_BACKENDS),
                     default="dinic", help="flow backend (passive mode)")
    fit.add_argument("--epsilon", type=float, default=0.5,
                     help="approximation parameter (active mode)")
    fit.add_argument("--seed", type=int, default=0,
                     help="sampling seed (active mode)")
    fit.add_argument("--decomposition", choices=["exact", "greedy"],
                     default="exact", help="chain decomposition (active mode)")
    fit.add_argument("--no-certificate", action="store_true",
                     help="omit the min-cut certificate from the artifact")

    serve = sub.add_parser(
        "serve", help="answer classify queries from a model artifact")
    serve.add_argument("artifact", help="model artifact written by 'fit'")
    serve.add_argument("queries", nargs="?", default=None,
                       help="point-set file of query coordinates "
                            "(required unless --chaos)")
    serve.add_argument("--output", default=None, metavar="FILE",
                       help="write answered labels (JSON) to FILE")
    serve.add_argument("--batch-size", type=int, default=512,
                       help="points per admitted request (default 512)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="bounded admission queue size; excess requests "
                            "are shed with an explicit overloaded result")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS", help="per-request deadline")
    serve.add_argument("--retry-max", type=int, default=None, metavar="K",
                       help="retry budget for transient artifact loads")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="crash-safe request journal (enables warm restart)")
    serve.add_argument("--resume", action="store_true",
                       help="warm-restart from --journal: resume the request "
                            "sequence after a crash")
    serve.add_argument("--chaos", default=None, metavar="SPEC",
                       help="run the chaos load-test harness instead of "
                            "serving a file, e.g. "
                            "'corrupt=0.05,delay=0.1,kill=0.02,seed=7' "
                            "(with --fleet: fleet spec, e.g. "
                            "'corrupt=0.1,swap=0.1,storm=0.05,seed=7')")
    serve.add_argument("--chaos-queries", type=int, default=100_000,
                       help="query volume for --chaos (default 100000)")
    serve.add_argument("--fleet", action="store_true",
                       help="serve a *directory* of model artifacts as a "
                            "bulkheaded multi-model fleet (verified hot-swap, "
                            "LRU residency, per-model health)")
    serve.add_argument("--model", default=None, metavar="NAME",
                       help="fleet: dispatch the queries file to this model")
    serve.add_argument("--resident-limit", type=int, default=8,
                       help="fleet: max resident engines (LRU beyond this)")

    width = sub.add_parser("width", help="dominance width and chain stats")
    width.add_argument("input", help="point-set file (.csv or .json)")

    audit = sub.add_parser(
        "audit", help="solve passively and machine-check the result")
    audit.add_argument("input", help="fully-labeled point-set file")
    audit.add_argument("--backend", choices=sorted(FLOW_BACKENDS),
                       default="dinic")

    repair = sub.add_parser(
        "repair", help="minimum-weight monotone label repair (data cleaning)")
    repair.add_argument("input", help="fully-labeled point-set file")
    repair.add_argument("output", nargs="?",
                        help="optional file to write the repaired set to")

    viz = sub.add_parser("viz", help="render a 2-D point set in the terminal")
    viz.add_argument("input", help="2-D point-set file (.csv or .json)")
    viz.add_argument("--solve", action="store_true",
                     help="overlay the optimal monotone decision region")
    viz.add_argument("--width", type=int, default=60)
    viz.add_argument("--height", type=int, default=24)

    experiment = sub.add_parser("experiment", help="run registered experiments")
    experiment.add_argument("names", nargs="*", help="experiment names (default: all)")
    experiment.add_argument("--list", action="store_true", help="list experiments")
    experiment.add_argument("--workers", type=int, default=1,
                            help="processes for experiment fan-out (default 1)")
    experiment.add_argument("--out-dir", default=None, metavar="DIR",
                            help="write per-experiment rows to DIR/<name>.json "
                                 "(atomic writes, crash-safe)")
    experiment.add_argument("--resume", action="store_true",
                            help="skip experiments already completed in "
                                 "--out-dir (restart a killed sweep)")

    from .fuzz.generators import FAMILIES
    from .fuzz.mutants import MUTANTS
    from .fuzz.runner import IO_FAMILY

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzz campaign across all solver configs")
    fuzz.add_argument("--runs", type=int, default=100,
                      help="instances to generate and cross-check (default 100)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; run i replays from child seed i")
    fuzz.add_argument("--family", action="append", default=None,
                      choices=sorted(FAMILIES) + [IO_FAMILY], metavar="NAME",
                      help="restrict to an instance family (repeatable; "
                           f"choices: {', '.join(sorted(FAMILIES) + [IO_FAMILY])})")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="archive shrunk reproducers into DIR")
    fuzz.add_argument("--size", type=int, default=48,
                      help="target instance size (default 48)")
    fuzz.add_argument("--active-every", type=int, default=0, metavar="K",
                      help="also cross-check the active pipeline "
                           "(workers 1 vs 2) on every K-th run")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop early after this much wall-clock time "
                           "(deterministic prefix of the campaign)")
    fuzz.add_argument("--mutant", choices=sorted(MUTANTS), default=None,
                      help="self-test mode: activate a deliberately broken "
                           "solver mutant; the campaign must catch it")
    fuzz.add_argument("--replay", default=None, metavar="DIR",
                      help="replay a regression corpus instead of generating "
                           "new instances")

    profile = sub.add_parser(
        "profile", help="phase-attribution profile of a recorded trace")
    profile.add_argument("trace", help="Chrome trace file written by --trace-out")
    profile.add_argument("--sort", choices=["self", "cum", "calls"],
                         default="self",
                         help="table order: self time (default), cumulative "
                              "time, or call count")
    profile.add_argument("--top", type=int, default=None, metavar="N",
                         help="show only the N heaviest phases")
    profile.add_argument("--collapsed", default=None, metavar="FILE",
                         help="also write collapsed-stack lines to FILE "
                              "(flamegraph.pl / speedscope / inferno input)")

    for command in (gen, passive, active, fit, serve, width, audit, repair,
                    viz, experiment, fuzz):
        _add_metrics_flags(command)
    return parser


def _load(path: str):
    from .io import load_csv, load_json

    if path.endswith(".json"):
        return load_json(path)
    return load_csv(path)


def _save(points, path: str) -> None:
    from .io import save_csv, save_json

    if path.endswith(".json"):
        save_json(points, path)
    else:
        save_csv(points, path)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets import (
        generate_entity_matching,
        planted_monotone,
        planted_threshold_1d,
        width_controlled,
    )

    if args.kind == "threshold1d":
        points = planted_threshold_1d(args.n, noise=args.noise, rng=args.seed)
    elif args.kind == "monotone":
        points = planted_monotone(args.n, args.dim, noise=args.noise, rng=args.seed)
    elif args.kind == "width":
        points = width_controlled(args.n, args.width, noise=args.noise, rng=args.seed)
    elif args.kind == "records":
        from .datasets import generate_record_linkage

        # --n counts pairs; the generator takes entities (1 match + 3
        # non-matches per entity).
        points = generate_record_linkage(max(1, args.n // 4),
                                         rng=args.seed).points
    else:
        points = generate_entity_matching(args.n, dim=args.dim,
                                          label_noise=args.noise,
                                          rng=args.seed).points
    _save(points, args.output)
    print(f"wrote {points!r} to {args.output}")
    return 0


def _cmd_passive(args: argparse.Namespace) -> int:
    from .core.passive import solve_passive

    points = _load(args.input)
    result = solve_passive(points, backend=args.backend)
    print(format_table([{
        "n": points.n,
        "d": points.dim,
        "contending": result.num_contending,
        "optimal_weighted_error": result.optimal_error,
        "backend": result.backend,
    }]))
    return 0


def _resilience_config(args: argparse.Namespace):
    """Build a ResilienceConfig from the active-subcommand flags, or None."""
    wanted = (args.retry_max is not None or args.probe_timeout is not None
              or args.checkpoint is not None or args.inject_faults is not None
              or args.degrade)
    if args.resume and args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint PATH")
    if not wanted:
        return None
    from .resilience import FaultSpec, ResilienceConfig, RetryPolicy

    retry = None
    if args.retry_max is not None or args.probe_timeout is not None:
        retry = RetryPolicy(max_attempts=args.retry_max or 3,
                            timeout=args.probe_timeout)
    faults = None
    if args.inject_faults is not None:
        faults = FaultSpec.parse(args.inject_faults)
    return ResilienceConfig(retry=retry, faults=faults,
                            checkpoint=args.checkpoint, resume=args.resume,
                            degrade=args.degrade)


def _cmd_active(args: argparse.Namespace) -> int:
    from .core.active import active_classify
    from .core.errors import error_count
    from .core.oracle import LabelOracle
    from .core.passive import solve_passive

    points = _load(args.input)
    points.require_full_labels()
    oracle = LabelOracle(points)
    result = active_classify(points.with_hidden_labels(), oracle,
                             epsilon=args.epsilon, rng=args.seed,
                             decomposition=args.decomposition,
                             workers=args.workers,
                             resilience=_resilience_config(args))
    optimum = solve_passive(points).optimal_error
    err = error_count(points, result.classifier)
    print(format_table([{
        "n": points.n,
        "width_w": result.num_chains,
        "epsilon": args.epsilon,
        "probes": result.probing_cost,
        "probe_fraction": result.probing_cost / points.n,
        "achieved_error": err,
        "optimal_error": optimum,
        "ratio": err / optimum if optimum else float(err == 0) or float("inf"),
    }]))
    if result.report is not None:
        print(result.report.summary())
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .serve import fit_artifact, save_artifact

    points = _load(args.input)
    artifact = fit_artifact(points, args.mode,
                            epsilon=args.epsilon, seed=args.seed,
                            backend=args.backend,
                            decomposition=args.decomposition,
                            include_certificate=not args.no_certificate)
    digest = save_artifact(artifact, args.artifact)
    row = {"mode": args.mode, "n": points.n, "d": points.dim,
           "digest": digest[:12]}
    if artifact.certificate is not None:
        row["optimal_error"] = artifact.certificate["optimal_error"]
    if "probes" in artifact.fit:
        row["probes"] = artifact.fit["probes"]
    print(format_table([row]))
    print(f"wrote model artifact to {args.artifact} (sha256 {digest})")
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .serve import FleetFaultSpec, ModelFleet, run_chaos_fleet

    directory = Path(args.artifact)
    if not directory.is_dir():
        raise ValueError(
            f"serve --fleet: {args.artifact} is not a directory of artifacts"
        )

    if args.chaos is not None:
        artifacts = {
            p.stem: p for p in sorted(directory.glob("*.json")) if p.is_file()
        }
        if len(artifacts) < 2:
            raise ValueError(
                f"serve --fleet --chaos: {directory} holds "
                f"{len(artifacts)} artifact(s); need >= 2"
            )
        report = run_chaos_fleet(
            artifacts,
            queries=args.chaos_queries,
            batch_size=args.batch_size,
            spec=FleetFaultSpec.parse(args.chaos),
        )
        print(format_table([report.summary_row()]))
        return 0 if report.ok else 1

    retry = None
    if args.retry_max is not None:
        from .resilience import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retry_max)
    kwargs: dict = dict(
        resident_limit=args.resident_limit,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        journal_dir=args.journal,
    )
    if retry is not None:
        kwargs["retry"] = retry
    counts: dict = {}
    with ModelFleet.from_directory(directory, **kwargs) as fleet:
        for event in fleet.poll():
            print(f"swap {event['model']}: {event['action']} "
                  f"({event.get('reason') or event.get('digest', '')})")
        if args.queries is not None:
            if args.model is None:
                raise ValueError(
                    "serve --fleet: --model NAME is required with a "
                    "queries file"
                )
            points = _load(args.queries)
            batch = max(1, args.batch_size)
            for start in range(0, points.n, batch):
                result = fleet.dispatch(
                    args.model, points.coords[start:start + batch]
                )
                counts[result.status] = counts.get(result.status, 0) + 1
        print(format_table([health.row() for health in fleet.health()]))
        if counts:
            print(format_table([dict(sorted(counts.items()))]))
    # Degraded answers are survivable and explicitly flagged; a model that
    # cannot answer at all, a bulkhead rejection or an unreadable query
    # fails the exit.
    bad = sum(counts.get(status, 0)
              for status in ("failed", "unavailable", "invalid"))
    return 0 if bad == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeEngine, ServeFaultSpec, run_chaos_serve

    if args.fleet:
        return _cmd_serve_fleet(args)

    if args.chaos is not None:
        report = run_chaos_serve(
            args.artifact,
            queries=args.chaos_queries,
            batch_size=args.batch_size,
            spec=ServeFaultSpec.parse(args.chaos),
            deadline=args.deadline,
        )
        print(format_table([report.summary_row()]))
        return 0 if report.ok else 1

    if args.queries is None:
        raise ValueError("serve: a queries file is required unless --chaos")
    if args.resume and args.journal is None:
        raise ValueError("--resume requires --journal PATH")
    from pathlib import Path

    from .serve import last_good_path

    # A deployed artifact going bad mid-flight is survivable (the engine
    # degrades); a path that never existed is a CLI input error — unless
    # its last-good copy remains, the legitimate post-crash state.
    if not Path(args.artifact).exists() and not last_good_path(args.artifact).exists():
        raise ValueError(f"{args.artifact}: model artifact not found")
    points = _load(args.queries)

    retry = None
    if args.retry_max is not None:
        from .resilience import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retry_max)
    kwargs = dict(queue_limit=args.queue_limit,
                  default_deadline=args.deadline)
    if retry is not None:
        kwargs["retry"] = retry
    if args.resume:
        engine = ServeEngine.warm_restart(args.artifact, args.journal,
                                          **kwargs)
    else:
        engine = ServeEngine(args.artifact, journal_path=args.journal,
                             **kwargs)

    labels: List[Optional[int]] = [None] * points.n
    counts: dict = {}
    with engine:
        offsets = list(range(0, points.n, max(1, args.batch_size)))
        pending_offsets = []
        results = []
        for start in offsets:
            chunk = points.coords[start:start + args.batch_size]
            shed = engine.submit(chunk)
            if shed is not None:
                results.append((start, shed))
                continue
            pending_offsets.append(start)
            for answered in engine.drain():
                results.append((pending_offsets.pop(0), answered))
        for answered in engine.drain():
            results.append((pending_offsets.pop(0), answered))
        for start, result in results:
            counts[result.status] = counts.get(result.status, 0) + 1
            if result.labels is not None:
                for i, label in enumerate(result.labels):
                    labels[start + i] = int(label)
        row = {"n": points.n, "source": engine.source,
               "verified": engine.serving_verified,
               "answered": engine.answered, "shed": engine.shed,
               "quarantined": engine.quarantines}
        row.update(sorted(counts.items()))
    print(format_table([row]))
    if args.output is not None:
        import json as _json

        from ._util import atomic_write_text

        atomic_write_text(args.output, _json.dumps({
            "artifact": str(args.artifact),
            "model_digest": engine.model_digest,
            "source": engine.source,
            "statuses": counts,
            "labels": labels,
        }, indent=1))
        print(f"wrote answers to {args.output}")
    # Degraded serving is graceful, not an error; a total inability to
    # answer (no fallback either) or an unreadable query is a failure exit.
    return 0 if counts.get("failed", 0) + counts.get("invalid", 0) == 0 else 1


def _cmd_width(args: argparse.Namespace) -> int:
    from .poset import minimum_chain_decomposition

    points = _load(args.input)
    decomposition = minimum_chain_decomposition(points)
    sizes = decomposition.sizes()
    print(format_table([{
        "n": points.n,
        "d": points.dim,
        "width_w": decomposition.num_chains,
        "largest_chain": sizes[0] if sizes else 0,
        "smallest_chain": sizes[-1] if sizes else 0,
    }]))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .core.passive import solve_passive
    from .core.validation import audit_passive_result, conflict_matching_lower_bound

    points = _load(args.input)
    result = solve_passive(points, backend=args.backend)
    report = audit_passive_result(points, result)
    rows = [{"check": name,
             "status": "FAIL" if name in report.failures else "pass"}
            for name in report.checks]
    print(format_table(rows))
    print(f"\noptimal weighted error: {result.optimal_error:g}")
    print(f"matching lower bound:   {conflict_matching_lower_bound(points):g}")
    return 0 if report.ok else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from .core.repair import repair_labels

    points = _load(args.input)
    report = repair_labels(points)
    print(format_table([{
        "n": points.n,
        "flips": report.num_flips,
        "flips_0_to_1": report.flips_0_to_1,
        "flips_1_to_0": report.flips_1_to_0,
        "repair_weight": report.repair_weight,
        "consistent_after": report.repaired.is_monotone_labeling(),
    }]))
    if args.output:
        _save(report.repaired, args.output)
        print(f"wrote repaired set to {args.output}")
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from .viz import render_decision_region, render_points

    points = _load(args.input)
    if args.solve:
        from .core.passive import solve_passive

        result = solve_passive(points)
        print(render_decision_region(result.classifier, points=points,
                                     width=args.width, height=args.height))
        print(f"optimal weighted error: {result.optimal_error:g}")
    else:
        print(render_points(points, width=args.width, height=args.height))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import replay_corpus, run_fuzz

    if args.replay is not None:
        failures = replay_corpus(args.replay)
        rows = [{"entry": str(path), "findings": len(findings)}
                for path, findings in failures]
        print(format_table(rows) if rows
              else "corpus replay clean (no regressions)")
        for path, findings in failures:
            for finding in findings:
                print(f"  {path.name}: {finding}")
        return 1 if failures else 0

    report = run_fuzz(
        runs=args.runs,
        seed=args.seed,
        families=args.family,
        size=args.size,
        corpus_dir=args.corpus,
        mutant=args.mutant,
        active_every=args.active_every,
        time_budget=args.time_budget,
    )
    print(format_table([report.summary_row()]))
    for family, index, finding in report.findings[:50]:
        print(f"  run {index} [{family}]: {finding}")
    for violation in report.io_violations[:50]:
        print(f"  io: {violation}")
    for path in report.reproducers:
        print(f"  reproducer: {path}")
    if report.truncated_by_budget:
        print(f"  (campaign truncated by --time-budget after "
              f"{report.runs} runs)")
    if args.mutant is not None:
        # Self-test: a campaign against a broken mutant MUST find it.
        if report.ok:
            print(f"error: mutant {args.mutant!r} was NOT detected",
                  file=sys.stderr)
            return 1
        print(f"mutant {args.mutant!r} detected "
              f"({report.num_disagreements} finding(s))")
        return 0
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from . import obs

    events = obs.load_trace_events(args.trace)
    print(obs.profile_report(events, sort=args.sort, top=args.top))
    if args.collapsed is not None:
        obs.to_collapsed(events, args.collapsed)
        print(f"wrote collapsed stacks to {args.collapsed}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.runner import EXPERIMENTS, main as run_main

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    runner_argv = list(args.names)
    if args.workers != 1:
        runner_argv += ["--workers", str(args.workers)]
    if args.out_dir is not None:
        runner_argv += ["--out-dir", args.out_dir]
    if args.resume:
        runner_argv += ["--resume"]
    return run_main(runner_argv)


def _check_writable(path: str, flag: str) -> None:
    """Fail fast when an output path cannot be written.

    Checked *before* the workload runs: a long solve that then dies
    writing its metrics or trace wastes the whole run, so unwritable
    destinations are a one-line exit-2 error up front.
    """
    import os

    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{flag} {path}: directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"{flag} {path}: directory {directory!r} is not writable")
    if os.path.exists(path):
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.access(path, os.W_OK):
            raise ValueError(f"{flag} {path}: file is not writable")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Input problems (missing file, malformed CSV/JSON, unwritable
    ``--metrics-out``/``--trace-out`` destinations) are reported as a
    one-line ``error:`` message on stderr with exit code 2 — user mistakes
    are not tracebacks.  When ``--metrics``/``--metrics-out``/
    ``--trace-out`` is given the whole command runs inside a metrics
    session (tracing enabled iff a trace is requested); the report prints
    after the command's own output so tables stay machine-greppable.  The
    trace file is written even when the command fails — a trace of the
    run that died is exactly the trace worth looking at.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "passive": _cmd_passive,
        "active": _cmd_active,
        "fit": _cmd_fit,
        "serve": _cmd_serve,
        "width": _cmd_width,
        "audit": _cmd_audit,
        "repair": _cmd_repair,
        "viz": _cmd_viz,
        "experiment": _cmd_experiment,
        "fuzz": _cmd_fuzz,
        "profile": _cmd_profile,
    }
    handler = handlers[args.command]
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    want_metrics = (getattr(args, "metrics", False)
                    or metrics_out is not None or trace_out is not None)
    try:
        if metrics_out is not None:
            _check_writable(metrics_out, "--metrics-out")
        if trace_out is not None:
            _check_writable(trace_out, "--trace-out")
        if not want_metrics:
            return handler(args)
        from . import obs

        registry = obs.MetricsRegistry(args.command,
                                       trace=trace_out is not None)
        try:
            with obs.metrics_session(registry):
                code = handler(args)
        finally:
            if trace_out is not None:
                obs.to_chrome_trace(registry, trace_out)
                print(f"wrote trace to {trace_out}")
        if args.metrics:
            print()
            print(obs.report(registry))
        if metrics_out is not None:
            obs.export_file(registry, metrics_out)
            print(f"wrote metrics to {metrics_out}")
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
