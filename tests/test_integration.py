"""Cross-module integration tests: full pipelines, failure injection.

Unit tests pin each module; these exercise realistic end-to-end flows —
generate → persist → solve → audit → serve — and the failure modes a
production user hits (budget exhaustion, hidden labels, corrupt files).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    LabelOracle,
    PointSet,
    ProbeBudgetExceeded,
    active_classify,
    audit_active_result,
    audit_passive_result,
    error_count,
    load_classifier,
    save_classifier,
    solve_passive,
    with_exceptions,
)
from repro.cli import main as cli_main
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.experiments._common import chainwise_optimum
from repro.io import load_csv, save_csv


class TestFullPipelines:
    def test_generate_persist_solve_audit(self, tmp_path):
        """Dataset round-trips through CSV and the audited solve passes."""
        points = planted_monotone(150, 3, noise=0.1, rng=0, weights="random")
        path = tmp_path / "workload.csv"
        save_csv(points, path)
        loaded = load_csv(path)
        result = solve_passive(loaded)
        report = audit_passive_result(loaded, result)
        assert report.ok, report.failures
        # Same optimum as solving the in-memory original.
        assert result.optimal_error == \
            pytest.approx(solve_passive(points).optimal_error)

    def test_train_serialize_serve(self, tmp_path):
        """An actively-trained classifier survives save/load and serves."""
        points = width_controlled(3_000, 4, noise=0.08, rng=1)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=2)
        path = tmp_path / "model.json"
        save_classifier(result.classifier, path)
        served = load_classifier(path)
        assert (served.classify_set(points)
                == result.classifier.classify_set(points)).all()

    def test_train_with_exceptions_serialize_serve(self, tmp_path):
        points = width_controlled(1_500, 3, noise=0.1, rng=3)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=4)
        augmented = with_exceptions(result.classifier, points, oracle)
        path = tmp_path / "model.json"
        save_classifier(augmented, path)
        served = load_classifier(path)
        assert (served.classify_set(points)
                == augmented.classify_set(points)).all()

    def test_cli_generate_then_active_then_audit(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert cli_main(["generate", str(data), "--kind", "width",
                         "--n", "400", "--width", "4", "--seed", "7"]) == 0
        assert cli_main(["active", str(data), "--epsilon", "1.0"]) == 0
        assert cli_main(["audit", str(data)]) == 0

    def test_active_audit_end_to_end(self):
        points = width_controlled(2_500, 5, noise=0.08, rng=5)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=6)
        report = audit_active_result(points, result, oracle,
                                     true_optimum=chainwise_optimum(points))
        assert report.ok, report.failures


class TestFailureInjection:
    def test_budget_exhaustion_raises_cleanly(self):
        """Too small a probe budget aborts with the dedicated exception."""
        points = width_controlled(2_000, 4, noise=0.1, rng=7)
        oracle = LabelOracle(points, budget=10)
        with pytest.raises(ProbeBudgetExceeded):
            active_classify(points.with_hidden_labels(), oracle,
                            epsilon=0.5, rng=8)
        # The oracle still accounts exactly the budgeted probes.
        assert oracle.cost == 10

    def test_sufficient_budget_succeeds(self):
        points = width_controlled(2_000, 2, noise=0.05, rng=9)
        oracle = LabelOracle(points, budget=2_000)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=1.0, rng=10)
        assert result.probing_cost <= 2_000

    def test_passive_rejects_hidden_labels_everywhere(self):
        hidden = planted_monotone(50, 2, rng=11).with_hidden_labels()
        with pytest.raises(ValueError):
            solve_passive(hidden)

    def test_corrupt_csv_rejected(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("x0,label,weight\nnot_a_number,0,1.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_corrupt_model_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "threshold"}')
        with pytest.raises(ValueError):
            load_classifier(path)

    def test_oracle_ground_truth_mismatch_is_detectable(self):
        """Auditing against the wrong oracle flags the label check."""
        points = width_controlled(500, 2, noise=0.1, rng=12)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=1.0, rng=13)
        # A different workload's oracle — labels don't match Sigma.
        other = LabelOracle(width_controlled(500, 2, noise=0.4, rng=99))
        other.probe_many(range(500))
        report = audit_active_result(points, result, other)
        assert not report.ok


class TestConsistencyAcrossSolvers:
    """The same instance through every solver family must agree."""

    @pytest.mark.parametrize("seed", range(5))
    def test_passive_agreement_matrix(self, seed):
        points = planted_monotone(120, 2, noise=0.2, rng=seed, weights="random")
        # A constant third coordinate keeps the order and routes the solve
        # through the d >= 3 blockwise path instead of the 2-D sweeps.
        lifted = PointSet(np.hstack([points.coords, np.zeros((points.n, 1))]),
                          points.labels, points.weights)
        answers = {
            "dinic": solve_passive(points).optimal_error,
            "lifted_3d": solve_passive(lifted).optimal_error,
            "no_reduction": solve_passive(
                points, use_contending_reduction=False).optimal_error,
        }
        reference = answers["dinic"]
        for name, value in answers.items():
            assert value == pytest.approx(reference), name

    def test_active_exact_on_fully_probed_input(self):
        """When the active algorithm probes everything, it equals passive."""
        points = planted_monotone(80, 3, noise=0.2, rng=20)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=0.25, rng=21)
        assert result.probing_cost == points.n
        assert error_count(points, result.classifier) == \
            solve_passive(points).optimal_error
