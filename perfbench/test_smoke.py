"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload in both modes through the real command line, and
checks the result format: every metric named in ``BENCHMARK.json`` is
present with its unit, no operation failed, the traced pass leaves at
most a few percent of its wall time outside named spans, the benchmark
refuses to run without the repository sources, and ``layer_diff.py``
reads what ``run.py --out`` writes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload, trace, cwd=ROOT, out=None):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
               "--trace", str(trace), "--tiny"]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_format(workload, trace, tmp_path):
    out = tmp_path / "result.jsonl"
    done = run_bench(workload, trace, out=out)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        assert 0.0 <= values["obs.unattributed_frac"] <= 0.05
    else:
        assert all(value > 0 for value in values.values()), values
    doc = json.loads(out.read_text())
    assert doc["result"] == result
    assert {"nproc", "python", "numpy", "git_commit", "loadavg_start",
            "loadavg_end", "journal_tmpfs"} <= set(doc["provenance"])


def test_layer_diff_reads_results(tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    for out in (base, new):
        assert run_bench("serve_fleet", 1, out=out).returncode == 0
    done = subprocess.run([sys.executable, str(HERE / "layer_diff.py"), str(base),
                           str(new)], capture_output=True, text=True, timeout=60)
    assert done.returncode in (0, 1), done.stderr
    assert "span self time" in done.stdout and "dispatch_" in done.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("fit_passive_d3", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
