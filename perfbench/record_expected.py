#!/usr/bin/env python3
"""Record the exact passive optima the benchmark checks its fits against.

    python3 perfbench/record_expected.py [--seeds 32]

For seeds ``0 .. seeds-1`` it solves every ``fit_passive_d3`` instance
at full size with ``solve_passive``, and likewise the four
``serve_fleet`` models (which do not depend on the seed), and writes
``perfbench/expected.json`` (``"fit_passive_d3/<seed>/<k>"`` and
``"serve_fleet/<k>"`` map to optima).
A run whose seed is in the table must reproduce these optima to 1e-9
relative; for other seeds the benchmark still checks the certificate
against the served classifier's error.  Regenerate only when the inputs
of a workload change, never to make a failing check pass.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import solve_passive  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    scale = workloads.SCALES["full"]
    table = {}
    for k in range(scale.serve_models):
        points = workloads.served_instance(scale, k)
        table[f"serve_fleet/{k}"] = solve_passive(points).optimal_error
    for seed in range(args.seeds):
        for k in range(scale.instances):
            points = workloads.passive_instance(scale, seed, k)
            table[f"fit_passive_d3/{seed}/{k}"] = solve_passive(points).optimal_error
        print(f"seed {seed} done", flush=True)
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
