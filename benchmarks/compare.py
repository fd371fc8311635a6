"""Benchmark-regression gate: compare a pytest-benchmark JSON to a baseline.

Usage::

    python benchmarks/compare.py baseline.json current.json [--threshold 0.30]

Both files are ``--benchmark-json`` exports.  Benchmarks are matched by
``fullname``; for each match the best round (``stats.min``, or the mean
when a file has no ``min``) is compared, and the gate fails (exit 1) if
any benchmark is more than ``threshold`` slower than its baseline.  The
best round is the one least disturbed by other load on the host: a
burst of noise during a run inflates the mean but rarely every round.
Benchmarks present in only one file are reported but never fail the
gate (new benchmarks must be allowed to land before a baseline refresh;
retired ones must not haunt it).

When both files hold the fixed calibration benchmark (``CALIBRATION``,
which runs no project code), every ratio is divided by its ratio first:
a host that runs the yardstick 1.6x slower is allowed 1.6x everywhere,
so the gate measures the code and not the host.

Stdlib only, on purpose: CI runs this before any project dependency is
importable-by-accident, and local runs should not need the bench venv.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List


def _positive(value: object) -> bool:
    return isinstance(value, (int, float)) and value > 0


def load_times(path: str) -> Dict[str, float]:
    """Map benchmark ``fullname`` -> seconds of its best round.

    Reads ``stats.min``, falling back to ``stats.mean`` for exports
    without it.
    """
    with open(path) as handle:
        payload = json.load(handle)
    times: Dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        best = stats.get("min")
        if not _positive(best):
            best = stats.get("mean")
        if name and _positive(best):
            times[name] = float(best)
    return times


#: ``fullname`` of the host-speed yardstick in ``test_bench_smoke.py``.
CALIBRATION = "benchmarks/test_bench_smoke.py::test_smoke_calibration"


def host_factor(baseline: Dict[str, float], current: Dict[str, float]) -> float:
    """How much slower the current host runs the calibration (1.0 if absent)."""
    if CALIBRATION in baseline and CALIBRATION in current:
        factor = current[CALIBRATION] / baseline[CALIBRATION]
        print(f"host factor: {factor:.2f} (calibration ratio; every ratio "
              "is divided by it)")
        return factor
    print("host factor: 1.00 (calibration not in both files; raw ratios)")
    return 1.0


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float,
) -> List[str]:
    """Return one failure line per benchmark regressing beyond ``threshold``.

    Ratios are host-normalised by :func:`host_factor`.
    """
    factor = host_factor(baseline, current)
    failures: List[str] = []
    for name in sorted(baseline):
        if name not in current:
            print(f"  [gone]  {name} (in baseline only; not gating)")
            continue
        base, cur = baseline[name], current[name]
        ratio = cur / base / factor
        marker = "FAIL" if ratio > 1.0 + threshold else "ok"
        print(f"  [{marker:>4}] {name}: {base * 1e3:.2f}ms -> {cur * 1e3:.2f}ms "
              f"({ratio:.2f}x baseline, host-normalised)")
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: best {cur * 1e3:.2f}ms vs baseline {base * 1e3:.2f}ms "
                f"({ratio:.2f}x host-normalised, threshold "
                f"{1.0 + threshold:.2f}x)"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"  [new ]  {name} (no baseline; not gating)")
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline --benchmark-json file")
    parser.add_argument("current", help="freshly produced --benchmark-json file")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed slowdown fraction over the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = load_times(args.baseline)
    current = load_times(args.current)
    if not baseline:
        print(f"error: no benchmarks found in baseline {args.baseline}",
              file=sys.stderr)
        return 2
    if not current:
        print(f"error: no benchmarks found in {args.current}", file=sys.stderr)
        return 2

    print(f"comparing {len(current)} benchmark(s) against "
          f"{len(baseline)} baseline entr(y/ies), threshold "
          f"+{args.threshold:.0%}:")
    failures = compare(baseline, current, args.threshold)
    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
