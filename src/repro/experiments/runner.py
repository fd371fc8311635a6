"""Registry and CLI driver for the experiment suite.

``python -m repro.experiments.runner [name ...]`` prints the table of every
requested experiment (all of them by default).  The same registry backs the
``repro-monotone experiment`` CLI subcommand and the benchmark suite.

Flags:

* ``--metrics`` wraps each experiment in its own
  :func:`repro.obs.metrics_session` and prints the instrumentation report
  (probe counters, span timings, flow telemetry) after its table — the
  cost side of every claim next to the claim itself;
* ``--workers N`` fans the requested experiments out across ``N`` worker
  processes (they are independent, seeded configs, so the tables are
  identical to a serial run);
* ``--out-dir DIR`` additionally writes each experiment's rows to
  ``DIR/<name>.json``, atomically and from inside the worker that
  produced them — a crashed or failing experiment can neither corrupt
  its own file nor take down results that already landed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import obs
from .._util import format_table
from ..parallel.grid import GridConfig, run_grid

__all__ = ["EXPERIMENTS", "run_experiment", "main"]


def _registry() -> Dict[str, Callable[..., List[dict]]]:
    from . import (
        ablations,
        active_scaling,
        baseline_comparison,
        chaos,
        confidence,
        entity_matching_exp,
        figure1,
            lowerbound_exp,
        passive_scaling,
        poset_scaling,
        recursion_geometry,
        robustness,
        width_profile,
    )

    return {
        "figure1": figure1.run,
        "passive_scaling": passive_scaling.run,
        "active_scaling": active_scaling.run,
        "baseline_comparison": baseline_comparison.run,
        "lowerbound": lowerbound_exp.run,
        "poset_scaling": poset_scaling.run,
        "entity_matching": entity_matching_exp.run,
        "confidence": confidence.run,
        "robustness": robustness.run,
        "recursion_geometry": recursion_geometry.run,
        "width_profile": width_profile.run,
        "ablations": ablations.run,
        "chaos": chaos.run,
    }


EXPERIMENTS: Dict[str, Callable[..., List[dict]]] = _registry()


def run_experiment(name: str, *,
                   registry: Optional["obs.MetricsRegistry"] = None,
                   **params) -> List[dict]:
    """Run a registered experiment by name, returning its table rows.

    When ``registry`` is given, the experiment runs inside a metrics
    session targeting it, so callers can inspect counters/spans alongside
    the returned rows.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    if registry is None:
        return runner(**params)
    with obs.metrics_session(registry):
        return runner(**params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Run registered experiments and print their tables.",
    )
    parser.add_argument("names", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--metrics", action="store_true",
                        help="print an instrumentation report per experiment")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event timeline of the "
                             "whole run to FILE (open in Perfetto)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for experiment fan-out "
                             "(default 1 = serial; results are identical)")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="write each experiment's rows to DIR/<name>.json "
                             "(atomic, crash-safe, per-experiment files)")
    parser.add_argument("--resume", action="store_true",
                        help="skip experiments whose output file in --out-dir "
                             "already exists from a previous (killed) run")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Print the tables of the requested experiments (default: all)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    names = args.names or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
            return 2

    if args.resume and args.out_dir is None:
        print("--resume requires --out-dir (prior results live there)")
        return 2
    configs = [GridConfig(name=name) for name in names]
    # With --trace-out the whole run happens inside a tracing session:
    # serial configs trace into it directly; worker-side sessions (grid
    # capture or pool capture) ride home in snapshots and are merged
    # below, so one coherent timeline covers every experiment.
    trace_registry: Optional[obs.MetricsRegistry] = None
    session: Any = nullcontext()
    if args.trace_out is not None:
        trace_registry = obs.MetricsRegistry("experiments", trace=True)
        session = obs.metrics_session(trace_registry)
    with session:
        results = run_grid(configs, workers=args.workers, out_dir=args.out_dir,
                           capture_metrics=args.metrics,
                           capture_trace=args.trace_out is not None,
                           resume=args.resume)
    failed = False
    for result in results:
        module = sys.modules[EXPERIMENTS[result.name].__module__]
        title = getattr(module, "TITLE", result.name)
        print(f"\n=== {title} ===")
        if result.resumed:
            print(f"(resumed from {result.out_path})")
        if not result.ok:
            print(f"FAILED: {result.error}")
            failed = True
            continue
        for group in group_rows_by_schema(result.rows or []):
            print(format_table(group))
            print()
        if result.out_path is not None:
            print(f"wrote rows to {result.out_path}")
        if result.metrics is not None and trace_registry is not None:
            trace_registry.merge_snapshot(result.metrics,
                                          span_prefix=result.label)
        if args.metrics and result.metrics is not None:
            registry = obs.MetricsRegistry(result.name)
            registry.merge_snapshot(result.metrics)
            print(f"--- instrumentation: {result.name} ---")
            print(obs.report(registry))
            print()
    if trace_registry is not None and args.trace_out is not None:
        obs.to_chrome_trace(trace_registry, args.trace_out)
        print(f"wrote trace to {args.trace_out}")
    return 1 if failed else 0


def group_rows_by_schema(rows: List[dict]) -> List[List[dict]]:
    """Split heterogeneous rows into runs sharing the same column set.

    Experiments like the ablations return rows with different schemas;
    printing them in one table would blank out the differing columns.
    """
    groups: List[List[dict]] = []
    for row in rows:
        if groups and set(groups[-1][0].keys()) == set(row.keys()):
            groups[-1].append(row)
        else:
            groups.append([row])
    return groups


if __name__ == "__main__":
    raise SystemExit(main())
