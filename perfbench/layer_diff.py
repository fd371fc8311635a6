#!/usr/bin/env python3
"""Compare two benchmark result files layer by layer.

    python3 perfbench/layer_diff.py BASE NEW [--top 25]

BASE and NEW each hold results of one workload: JSON lines appended by
``run.py --out FILE``, or the captured standard output of ``run.py``
(its last line is the result object).  Several runs in a file are
reduced to per-metric medians.  The report has three parts:

1. end-to-end metrics (untraced runs): base, new, change and the bound
   from ``BENCHMARK.json``; a metric that got worse by more than its
   bound is marked ``OUTSIDE BOUND``;
2. span paths (traced ``--out`` runs): self time base, new and change,
   sorted by the size of the change, each with the layer that owns it —
   the first rows name the layer a regression came from;
3. per-layer metrics (traced runs), sorted by relative change.

Exit status: 1 when an end-to-end metric is outside its bound, 2 on
unreadable input, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import layers  # noqa: E402  (pure helpers; needs no repository import)


def read_results(path):
    """Every result document in ``path`` (``--out`` lines or stdout)."""
    docs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "result" in doc:
            docs.append(doc)
        elif {"correct", "metrics"} <= set(doc):
            docs.append({"result": doc, "phases": None})
    if not docs:
        raise ValueError(f"{path}: no benchmark result found")
    return docs


def metric_medians(docs):
    values = {}
    for doc in docs:
        for name, entry in doc["result"]["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def phase_medians(docs):
    """Median self time of every span path, divided like every other
    per-layer timing by its run's host-speed factor."""
    runs = [({row["phase"]: row["self_s"] for row in doc["phases"]},
             doc["provenance"].get("host_speed_factor", 1.0))
            for doc in docs if doc.get("phases")]
    paths = {path for rows, _ in runs for path in rows}
    return {path: statistics.median(rows.get(path, 0.0) / factor
                                    for rows, factor in runs)
            for path in paths}


def change(base, new):
    return (new - base) / abs(base) if base else (0.0 if new == base else float("inf"))


def worse_by(base, new, better):
    delta = change(base, new)
    return delta if better == "lower" else -delta


def table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--top", type=int, default=25, help="span paths to show")
    args = parser.parse_args(argv)
    try:
        base_docs, new_docs = read_results(args.base), read_results(args.new)
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = {d.get("workload") for d in base_docs + new_docs} - {None}
    if len(workloads) > 1:
        print(f"warning: comparing different workloads {sorted(workloads)}")
    base, new = metric_medians(base_docs), metric_medians(new_docs)
    status = 0

    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in base or name not in new:
            continue
        worse = worse_by(base[name], new[name], metric["better"])
        flag = "OUTSIDE BOUND" if worse > metric["bound"] else ""
        status = 1 if flag else status
        rows.append([name, f"{base[name]:.6g}", f"{new[name]:.6g}",
                     f"{change(base[name], new[name]):+.1%}",
                     f"{metric['bound']:.0%}", flag])
    if rows:
        print(f"end-to-end ({len(base_docs)} base / {len(new_docs)} new results)")
        print(table(rows, ["metric", "base", "new", "change", "bound", ""]))

    base_phases, new_phases = phase_medians(base_docs), phase_medians(new_docs)
    if base_phases and new_phases:
        paths = set(base_phases) | set(new_phases)
        ranked = sorted(paths, key=lambda p: -abs(new_phases.get(p, 0.0)
                                                  - base_phases.get(p, 0.0)))
        rows = [[path, layers.layer_of(path), f"{base_phases.get(path, 0.0):.6f}",
                 f"{new_phases.get(path, 0.0):.6f}",
                 f"{new_phases.get(path, 0.0) - base_phases.get(path, 0.0):+.6f}"]
                for path in ranked[: args.top]]
        print("\nspan self time, largest change first")
        print(table(rows, ["span path", "layer", "base_s", "new_s", "change_s"]))

    rows = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in base and name in new:
            rows.append((abs(change(base[name], new[name])) if base[name] or new[name]
                         else 0.0, [name, f"{base[name]:.6g}", f"{new[name]:.6g}",
                                    f"{change(base[name], new[name]):+.1%}",
                                    metric["unit"]]))
    if rows:
        rows.sort(key=lambda r: -r[0])
        print("\nper-layer metrics, largest relative change first")
        print(table([r for _, r in rows], ["metric", "base", "new", "change", "unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
