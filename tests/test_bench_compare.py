"""Tests for the bench-smoke regression gate (benchmarks/compare.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

CAL = compare.CALIBRATION


def _write(path: Path, means: dict) -> str:
    path.write_text(json.dumps({"benchmarks": [
        {"fullname": name, "stats": {"mean": mean}}
        for name, mean in means.items()]}))
    return str(path)


def _write_stats(path: Path, stats: dict) -> str:
    path.write_text(json.dumps({"benchmarks": [
        {"fullname": name, "stats": {"mean": mean, "min": best}}
        for name, (mean, best) in stats.items()]}))
    return str(path)


def test_slower_host_is_normalised_away(tmp_path, capsys):
    base = _write(tmp_path / "b.json", {CAL: 1.0, "a": 1.0, "b": 2.0})
    cur = _write(tmp_path / "c.json", {CAL: 1.6, "a": 1.7, "b": 3.3})
    assert compare.main([base, cur]) == 0
    assert "host factor: 1.60" in capsys.readouterr().out


def test_code_regression_still_fails_on_a_slower_host(tmp_path):
    base = _write(tmp_path / "b.json", {CAL: 1.0, "a": 1.0})
    cur = _write(tmp_path / "c.json", {CAL: 1.6, "a": 1.6 * 1.35})
    assert compare.main([base, cur]) == 1


@pytest.mark.parametrize("cal_in", ["baseline", "current"])
def test_raw_ratios_without_calibration_in_both(tmp_path, capsys, cal_in):
    base_means = {"a": 1.0}
    cur_means = {"a": 1.35}
    (base_means if cal_in == "baseline" else cur_means)[CAL] = 1.0
    base = _write(tmp_path / "b.json", base_means)
    cur = _write(tmp_path / "c.json", cur_means)
    assert compare.main([base, cur]) == 1
    assert "raw ratios" in capsys.readouterr().out


def test_noisy_mean_with_steady_best_round_passes(tmp_path):
    base = _write_stats(tmp_path / "b.json", {CAL: (1.0, 1.0), "a": (1.0, 0.9)})
    cur = _write_stats(tmp_path / "c.json", {CAL: (1.0, 1.0), "a": (2.2, 0.92)})
    assert compare.main([base, cur]) == 0


def test_best_round_regression_fails(tmp_path, capsys):
    base = _write_stats(tmp_path / "b.json", {CAL: (1.0, 1.0), "a": (1.0, 0.9)})
    cur = _write_stats(tmp_path / "c.json",
                       {CAL: (1.0, 1.0), "a": (1.0, 0.9 * 1.35)})
    assert compare.main([base, cur]) == 1
    assert "a: best" in capsys.readouterr().err
