"""Direct verification of the Section 3 comparison function ``f``.

These tests check the *mechanism* of Lemma 9 — the ε-comparison property
and Lemma 13's identity — not just the final classifier's error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LabelOracle, ThresholdClassifier, error_count
from repro.core.active_1d import SigmaErrorFunction, active_classify_1d
from .hypothesis_space import effective_thresholds
from repro.datasets.synthetic import planted_threshold_1d


@pytest.fixture(scope="module")
def run():
    points = planted_threshold_1d(30_000, noise=0.1, rng=0)
    oracle = LabelOracle(points)
    result = active_classify_1d(points.with_hidden_labels(), oracle,
                                epsilon=0.5, rng=1)
    return points, result


class TestLemma13Identity:
    def test_f_equals_weighted_sigma_error(self, run):
        """f(h^tau) == w-err_Sigma(h^tau) for every effective threshold."""
        points, result = run
        f = SigmaErrorFunction(points.coords[:, 0], result.sigma)
        indices, weights, labels = result.sigma.arrays()
        values = points.coords[indices, 0]
        for tau in [float("-inf"), 0.0, 0.3, 0.55, 0.9, float("inf")]:
            pred = (values > tau).astype(int)
            expected = float(weights[pred != labels].sum())
            assert f(tau) == pytest.approx(expected)

    def test_returned_classifier_minimizes_f(self, run):
        points, result = run
        f = SigmaErrorFunction(points.coords[:, 0], result.sigma)
        taus = effective_thresholds(points.coords[:200, 0])
        assert f(result.classifier.tau) <= min(f(t) for t in taus) + 1e-9
        assert f(result.classifier.tau) == pytest.approx(result.sigma_error)

    def test_vectorized_matches_scalar(self, run):
        points, result = run
        f = SigmaErrorFunction(points.coords[:, 0], result.sigma)
        taus = np.linspace(-0.2, 1.2, 57)
        vector = f.evaluate_many(taus)
        for tau, value in zip(taus, vector):
            assert f(float(tau)) == pytest.approx(float(value))


class TestEpsilonComparisonProperty:
    def test_property_holds_across_random_threshold_pairs(self, run):
        """f(x) <= f(y)  =>  err_P(x) <= (1+eps) err_P(y), eps = 0.5."""
        points, result = run
        f = SigmaErrorFunction(points.coords[:, 0], result.sigma)
        gen = np.random.default_rng(2)
        taus = np.concatenate([gen.uniform(0, 1, 60), [float("-inf")],
                               [float("inf")]])
        true_errors = {
            float(tau): error_count(points, ThresholdClassifier(float(tau)))
            for tau in taus
        }
        f_values = {float(tau): f(float(tau)) for tau in taus}
        violations = 0
        comparisons = 0
        for x in taus:
            for y in taus:
                comparisons += 1
                if f_values[float(x)] <= f_values[float(y)]:
                    if true_errors[float(x)] > 1.5 * true_errors[float(y)] + 1e-9:
                        violations += 1
        # The property holds w.h.p. for every pair; demand near-perfection.
        assert violations <= comparisons * 0.001

    def test_f_tracks_true_error_up_to_additive_band(self, run):
        """Eq. (8)-style: |f - err_P| stays within a small fraction of n."""
        points, result = run
        f = SigmaErrorFunction(points.coords[:, 0], result.sigma)
        gen = np.random.default_rng(3)
        deviations = []
        for tau in gen.uniform(0, 1, 40):
            true_error = error_count(points, ThresholdClassifier(float(tau)))
            deviations.append(abs(f(float(tau)) - true_error))
        # The proof allows eps*n/64 = 234 at eps=0.5, n=30k; practical
        # constants keep typical deviations well inside a 5% band.
        assert np.median(deviations) < 0.02 * points.n
        assert max(deviations) < 0.05 * points.n
