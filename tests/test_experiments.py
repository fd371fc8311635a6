"""Smoke and correctness tests for the experiment harness (repro.experiments).

Each experiment runs here with deliberately tiny parameters; the full-size
runs live under benchmarks/ and their outcomes in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro._util import format_table
from repro.experiments import run_experiment
from repro.experiments import (
    ablations,
    active_scaling,
    baseline_comparison,
    confidence,
    entity_matching_exp,
    figure1,
    lowerbound_exp,
    passive_scaling,
    poset_scaling,
)
from repro.experiments._common import chainwise_optimum
from repro.experiments.runner import EXPERIMENTS, group_rows_by_schema, main


class TestFigure1Experiment:
    def test_every_row_matches_the_paper(self):
        rows = figure1.run()
        assert len(rows) == 9
        assert all(row["match"] for row in rows)


class TestPassiveScaling:
    def test_small_run_all_checks_pass(self):
        rows = passive_scaling.run(ns=(30, 60), ds=(1, 2), seed=1)
        assert len(rows) == 4
        for row in rows:
            assert row["optimality_check"] in ("ok", "n/a")
            assert row["time_s"] >= 0


class TestActiveScaling:
    def test_sweeps_report_guarantee(self):
        rows = active_scaling.run_n_sweep(ns=(500, 1_000), width=2,
                                          epsilon=1.0, trials=1, seed=2)
        assert len(rows) == 2
        for row in rows:
            assert row["max_error_ratio"] <= row["guarantee"] + 1e-9

    def test_eps_sweep(self):
        rows = active_scaling.run_eps_sweep(epsilons=(1.0, 0.5), n=1_000,
                                            width=2, trials=1, seed=3)
        assert rows[0]["probes"] <= rows[1]["probes"]


class TestChainwiseOptimum:
    def test_matches_full_solver_on_width_controlled(self):
        from repro import solve_passive
        from repro.datasets.synthetic import width_controlled

        ps = width_controlled(600, 4, noise=0.15, rng=4)
        assert chainwise_optimum(ps) == \
            pytest.approx(solve_passive(ps).optimal_error)

    def test_requires_labels(self):
        from repro.datasets.synthetic import width_controlled

        ps = width_controlled(20, 2, rng=0).with_hidden_labels()
        with pytest.raises(ValueError):
            chainwise_optimum(ps)


class TestBaselineComparison:
    def test_ordering_claims(self):
        rows = baseline_comparison.run(n=2_000, width=2, epsilon=1.0,
                                       trials=1, seed=5)
        by_method = {row["method"]: row for row in rows}
        assert by_method["probe_all"]["mean_probes"] == 2_000
        assert by_method["probe_all"]["mean_error_ratio"] == pytest.approx(1.0)
        assert by_method["tao2018"]["mean_probes"] < 100
        assert by_method["theorem2"]["max_error_ratio"] <= 2.0 + 1e-9


class TestLowerboundExperiment:
    def test_formulas_match_simulation(self):
        rows = lowerbound_exp.run(n=16)
        assert all(row["cost_match"] for row in rows)
        assert all(row["lb_holds"] for row in rows)

    def test_accuracy_cost_tradeoff_visible(self):
        rows = lowerbound_exp.run(n=32)
        accurate = [r for r in rows if r["accurate(nonopt<=n/3)"]]
        sloppy = [r for r in rows if not r["accurate(nonopt<=n/3)"]]
        assert accurate and sloppy
        assert min(r["totalcost"] for r in accurate) > \
            min(r["totalcost"] for r in sloppy)


class TestPosetScaling:
    def test_small_run(self):
        rows = poset_scaling.run(controlled=((60, 3),), random_ns=(40,), seed=6)
        assert all(row["exact"] for row in rows)


class TestEntityMatching:
    def test_budget_accuracy_rows(self):
        rows = entity_matching_exp.run(n_pairs=600, epsilons=(1.0,), seed=8)
        methods = {row["method"] for row in rows}
        assert "probe_all" in methods and "tao2018" in methods
        probe_all_row = next(r for r in rows if r["method"] == "probe_all")
        assert probe_all_row["error_ratio"] == pytest.approx(1.0)
        assert 0 <= probe_all_row["match_f1"] <= 1

    def test_f1_helper(self):
        from repro import ConstantClassifier, PointSet
        from repro.experiments.entity_matching_exp import match_f1

        ps = PointSet([(0.0,), (1.0,)], [1, 1])
        assert match_f1(ps, ConstantClassifier(1)) == 1.0
        assert match_f1(ps, ConstantClassifier(0)) == 0.0


class TestConfidence:
    def test_small_run_within_delta(self):
        rows = confidence.run(n=3_000, settings=((1.0, 0.2),), runs=8, seed=12)
        assert len(rows) == 1
        row = rows[0]
        assert row["within_delta"]
        assert 0 <= row["empirical_failure_rate"] <= 1
        assert row["worst_ratio"] >= 1.0


class TestRobustness:
    def test_all_models_within_guarantee(self):
        from repro.experiments import robustness

        rows = robustness.run(n=1_500, width=2, epsilon=1.0, rate=0.08,
                              trials=1, seed=13)
        assert {row["noise_model"] for row in rows} == \
            {"uniform", "boundary", "asymmetric"}
        for row in rows:
            assert row["max_error_ratio"] <= row["guarantee"] + 1e-9


class TestRecursionGeometry:
    def test_levels_and_summary(self):
        from repro.experiments import recursion_geometry

        rows = recursion_geometry.run(n=5_000, runs=3, seed=14)
        assert rows[-1]["level"] == "summary"
        level_rows = rows[:-1]
        assert level_rows[0]["mean_population"] == 5_000
        populations = [row["mean_population"] for row in level_rows]
        assert populations == sorted(populations, reverse=True)


class TestWidthProfile:
    def test_profiles_every_generator(self):
        from repro.experiments import width_profile

        rows = width_profile.run(n=300, seed=15)
        assert len(rows) == 8
        for row in rows:
            assert row["width_w"] >= 1
            assert row["height"] >= 1
            # Dilworth x Mirsky: a width-w, height-h poset has <= w*h points.
            assert row["width_w"] * row["height"] >= row["n"]


class TestAblations:
    def test_contending(self):
        rows = ablations.run_contending(ns=(60,), seed=9)
        assert all(row["same_optimum"] for row in rows)

    def test_constants_tradeoff(self):
        rows = ablations.run_constants(constants=(2.0, 8.0), n=4_000, seed=10)
        assert rows[0]["probes"] < rows[1]["probes"]

    def test_decomposition(self):
        rows = ablations.run_decomposition(n=800, width=3, trials=1, seed=11)
        by_method = {row["method"]: row for row in rows}
        assert by_method["exact"]["chains_used"] == 3
        assert by_method["greedy"]["chains_used"] >= 3


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "figure1", "passive_scaling", "active_scaling",
            "baseline_comparison", "lowerbound", "poset_scaling",
            "entity_matching", "confidence", "robustness",
            "recursion_geometry", "width_profile", "ablations", "chaos",
        }

    def test_run_experiment_by_name(self):
        rows = run_experiment("lowerbound", n=8)
        assert rows

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_experiment("nope")

    def test_main_rejects_unknown(self, capsys):
        assert main(["nope"]) == 2

    def test_main_prints_table(self, capsys):
        assert main(["figure1"]) == 0
        assert "dominance width" in capsys.readouterr().out

    def test_group_rows_by_schema(self):
        rows = [{"a": 1}, {"a": 2}, {"b": 3}, {"a": 4}]
        groups = group_rows_by_schema(rows)
        assert [len(g) for g in groups] == [2, 1, 1]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"
