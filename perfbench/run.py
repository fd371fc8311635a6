#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit_passive_d3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced pass and reports the per-layer
metrics.  Both sets are named, with their units, in ``BENCHMARK.json``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the provenance and a readable table.  ``--out FILE`` appends the
full result (provenance, samples and, when traced, every span path's
self time) to FILE as one JSON line, the input of ``layer_diff.py``.

Exit codes: 0 on a completed run (even when a check failed — see
``correct``), 2 when the repository sources are missing or the
arguments are bad.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra set-up samples taken in child processes (``setup_s`` is the
#: median of these and the main process's own set-up).
SETUP_CHILDREN = 2
#: Units of timings, which are divided by a host-speed factor.
TIME_UNITS = {"s", "ms", "us"}
#: Calibration kernel runs right after a set-up.
SETUP_CALIBRATION = 5


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes (the smoke test)")
    parser.add_argument("--out", help="append the full result to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected():
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def child_setups(args):
    """Set-up samples of fresh processes doing the same set-up."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normalise(metrics, units, factor):
    """Per-layer timings as on a host of nominal speed, by the run's factor
    (see ``workloads.Calibration``)."""
    out = dict(metrics)
    for name, unit in units.items():
        if unit in TIME_UNITS:
            out[name] = metrics[name] / factor
        elif unit.endswith("/s"):
            out[name] = metrics[name] * factor
    return out


def render(metrics, units):
    width = max(len(name) for name in metrics)
    return "\n".join(f"  {name:<{width}}  {metrics[name]!r:>24}  {units[name]}"
                     for name in metrics)


def main(argv=None):
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run the benchmark "
              "from the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import provenance
    import workloads
    from repro import obs

    scale = workloads.SCALES["tiny" if args.tiny else "full"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Context(scale=scale, seed=args.seed, work=work,
                            expected={} if args.tiny else load_expected())
    workload = workloads.make_workload(args.workload, ctx)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        factor = ctx.calibration.sample(SETUP_CALIBRATION)
        setup = {"setup_s": setup_s / factor,
                 "fit_s": [fit / factor for fit in workload.setup_fits]}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        prov = provenance.provenance(ROOT, work)
        phases = None
        if args.trace:
            traced = workload.trace(args.seconds)
            metrics = layers.layer_metrics(traced["registry"], traced["wall_s"],
                                           traced["extras"])
            phases = obs.profile_events(traced["registry"])
            prov["trace_dropped"] = traced["registry"].trace_dropped
            wanted = spec["per_layer"]
        else:
            setups = [setup] + child_setups(args)
            metrics = workload.measure(args.seconds,
                                       [fit for one in setups for fit in one["fit_s"]])
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = statistics.median(one["setup_s"] for one in setups)
            prov["setup_samples_s"] = [one["setup_s"] for one in setups]
            wanted = spec["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    tally = ctx.tally
    prov["loadavg_end"] = provenance.load_average()
    prov["host_speed_factor"] = ctx.calibration.factor
    prov["calibration_samples"] = len(ctx.calibration.samples)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark bug: metrics not computed: {missing}")
    values = {name: float(metrics[name]) for name in units}
    if args.trace:
        values = normalise(values, units, ctx.calibration.factor)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(render(values, units))
    print(f"  failed_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(1, tally.attempted)!r}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    if args.out:
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "provenance": prov, "result": result,
               "phases": phases}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
