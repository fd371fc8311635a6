"""Tests for the multi-dimensional active algorithm (repro.core.active)."""

from __future__ import annotations

import pytest

from repro import (
    LabelOracle,
    active_classify,
    error_count,
    solve_passive,
)
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.experiments._common import chainwise_optimum


class TestValidation:
    def test_rejects_empty(self):
        from repro import PointSet

        ps = PointSet([(0.0, 0.0)], [0])
        oracle = LabelOracle(ps)
        with pytest.raises(ValueError):
            active_classify(PointSet.from_points([]), oracle, epsilon=0.5)

    def test_rejects_bad_epsilon(self, tiny_2d):
        oracle = LabelOracle(tiny_2d)
        with pytest.raises(ValueError):
            active_classify(tiny_2d.with_hidden_labels(), oracle, epsilon=0.0)

    def test_rejects_bad_delta(self, tiny_2d):
        oracle = LabelOracle(tiny_2d)
        with pytest.raises(ValueError):
            active_classify(tiny_2d.with_hidden_labels(), oracle,
                            epsilon=0.5, delta=1.5)

    def test_rejects_bad_decomposition(self, tiny_2d):
        oracle = LabelOracle(tiny_2d)
        # Only "exact" and "greedy" exist; the exact method is not forced.
        for bad in ("bogus", "matching", "patience"):
            with pytest.raises(ValueError):
                active_classify(tiny_2d.with_hidden_labels(), oracle,
                                epsilon=0.5, decomposition=bad)


class TestSmallInputs:
    def test_tiny_input_solved_exactly(self, tiny_2d):
        oracle = LabelOracle(tiny_2d)
        result = active_classify(tiny_2d.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=0)
        # Small inputs are fully probed, so the answer is exactly optimal.
        assert error_count(tiny_2d, result.classifier) == 1

    def test_figure1_input(self):
        from repro.datasets.figures import figure1_point_set

        ps = figure1_point_set()
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=1)
        assert result.num_chains == 6
        assert error_count(ps, result.classifier) == 3

    def test_monotone_input_zero_error(self, monotone_2d):
        oracle = LabelOracle(monotone_2d)
        result = active_classify(monotone_2d.with_hidden_labels(), oracle,
                                 epsilon=1.0, rng=2)
        assert error_count(monotone_2d, result.classifier) == 0


class TestGuarantees:
    def test_sublinear_probing_small_width(self):
        n, w = 40_000, 4
        ps = width_controlled(n, w, noise=0.05, rng=3)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=1.0, rng=4)
        assert result.num_chains == w
        assert result.probing_cost < n // 4
        assert result.probing_cost == oracle.cost

    def test_error_within_guarantee(self):
        n, w, eps = 20_000, 4, 0.5
        ps = width_controlled(n, w, noise=0.08, rng=5)
        optimum = chainwise_optimum(ps)
        failures = 0
        for seed in range(5):
            oracle = LabelOracle(ps)
            result = active_classify(ps.with_hidden_labels(), oracle,
                                     epsilon=eps, rng=seed)
            err = error_count(ps, result.classifier)
            if err > (1 + eps) * optimum:
                failures += 1
        assert failures == 0

    def test_probing_scales_with_width(self):
        n = 24_000
        costs = {}
        for w in (2, 8):
            ps = width_controlled(n, w, noise=0.05, rng=6)
            oracle = LabelOracle(ps)
            result = active_classify(ps.with_hidden_labels(), oracle,
                                     epsilon=1.0, rng=7)
            costs[w] = result.probing_cost
        assert costs[8] > 2 * costs[2]

    def test_sigma_points_consistent(self):
        ps = width_controlled(4_000, 4, noise=0.1, rng=8)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=9)
        sigma = result.sigma_points
        assert sigma.n == result.sigma.size
        # Sigma labels must match ground truth at the recorded indices.
        indices, _weights, labels = result.sigma.arrays()
        assert (ps.labels[indices] == labels).all()
        # And the reported sigma error must be achieved by the classifier.
        from repro import weighted_error

        assert weighted_error(sigma, result.classifier) == \
            pytest.approx(result.sigma_error)

    def test_classifier_is_monotone_on_samples(self, rng):
        ps = planted_monotone(600, 3, noise=0.15, rng=10)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=11)
        probes = rng.random((300, 3))
        predictions = result.classifier.classify_matrix(probes)
        # Monotonicity spot-check on random comparable pairs.
        for _ in range(200):
            i, j = rng.integers(0, 300, size=2)
            if (probes[i] >= probes[j]).all():
                assert predictions[i] >= predictions[j]

    def test_3d_input_uses_matching_decomposition(self):
        ps = planted_monotone(300, 3, noise=0.1, rng=12)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=13)
        assert result.decomposition_method == "matching"
        optimum = solve_passive(ps).optimal_error
        err = error_count(ps, result.classifier)
        # Small input: fully probed, so exactly optimal.
        assert err == optimum

    def test_greedy_decomposition_works(self):
        ps = width_controlled(2_000, 4, noise=0.1, rng=14)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, decomposition="greedy", rng=15)
        assert result.decomposition_method == "greedy"
        assert result.num_chains >= 4

    def test_default_delta_set_from_n(self):
        ps = width_controlled(100, 2, noise=0.1, rng=16)
        oracle = LabelOracle(ps)
        result = active_classify(ps.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=17)
        assert result.delta == pytest.approx(1.0 / (100 * 100))
