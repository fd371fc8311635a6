"""One test per paper claim — the reviewer's checklist, in executable form.

Each test restates a theorem/lemma and verifies its content end to end
through the public API.  Finer-grained coverage lives in the per-module
test files; this file is the navigable summary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConstantClassifier,
    DeterministicPairProber,
    LabelOracle,
    PointSet,
    active_classify,
    adversarial_family,
    brute_force_passive,
    dominance_width,
    error_count,
    evaluate_on_family,
    maximum_antichain,
    minimum_chain_decomposition,
    solve_passive,
    solve_passive_1d,
    theoretical_totalcost,
    weighted_error,
)
from repro.datasets.synthetic import planted_threshold_1d, width_controlled
from repro.experiments._common import chainwise_optimum
from repro.poset.chains import is_valid_chain_decomposition
from repro.poset.width import is_antichain
from repro.stats.estimation import lemma5_sample_size


class TestTheorem1:
    """Finding an optimal classifier actively needs Omega(n) probes."""

    def test_accuracy_forces_quadratic_family_cost(self):
        n = 96
        family = adversarial_family(n)
        assert len(family) == n
        # Any deterministic pair-prober accurate on > 2/3 of the family
        # probes >= (1-c) n/2 pairs with c = 4/5, paying Omega(n^2) total.
        for ell in range(0, n // 2 + 1):
            prober = DeterministicPairProber(
                tuple(range(1, ell + 1)), ConstantClassifier(0))
            evaluation = evaluate_on_family(prober, n)
            if evaluation.nonoptcnt <= n / 3:
                assert evaluation.totalcost >= n * n * 9 / 200
                # ... which is Omega(n) per input on average.
                assert evaluation.totalcost / n >= 9 * n / 200

    def test_lemma19_closed_form(self):
        n = 40
        for ell in (0, 5, 13, 20):
            prober = DeterministicPairProber(
                tuple(range(1, ell + 1)), ConstantClassifier(0))
            assert evaluate_on_family(prober, n).totalcost == \
                theoretical_totalcost(n, ell)


class TestTheorem2:
    """(1+eps)-approximation whp with ~ (w/eps^2) log n log(n/w) probes."""

    def test_error_guarantee_and_sublinearity(self):
        n, w, eps = 30_000, 4, 0.5
        points = width_controlled(n, w, noise=0.08, rng=0)
        optimum = chainwise_optimum(points)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=eps, rng=1)
        achieved = error_count(points, result.classifier)
        assert achieved <= (1 + eps) * optimum + 1e-9
        assert result.probing_cost < n  # strictly fewer labels than naive
        assert result.num_chains == w

    def test_zero_kstar_recovered_exactly(self):
        """Remark after Theorem 2: k* = 0 => optimal classifier whp."""
        points = width_controlled(20_000, 4, noise=0.0, rng=2)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=1.0, rng=3)
        assert error_count(points, result.classifier) == 0

    def test_probing_cost_holds_every_run(self):
        """Remark: the cost bound holds with probability 1 (cost <= n)."""
        points = planted_threshold_1d(5_000, noise=0.2, rng=4)
        from repro import active_classify_1d

        for seed in range(5):
            oracle = LabelOracle(points)
            result = active_classify_1d(points.with_hidden_labels(), oracle,
                                        epsilon=0.5, rng=seed)
            assert result.probing_cost <= points.n


class TestTheorem3:
    """Active reduces to passive: the finish is a Problem 2 instance."""

    def test_sigma_is_a_weighted_passive_instance(self):
        points = width_controlled(8_000, 4, noise=0.1, rng=5)
        oracle = LabelOracle(points)
        result = active_classify(points.with_hidden_labels(), oracle,
                                 epsilon=0.5, rng=6)
        sigma = result.sigma_points
        # The returned classifier is the exact Problem 2 optimum on Sigma.
        assert weighted_error(sigma, result.classifier) == \
            pytest.approx(solve_passive(sigma).optimal_error)
        # Sigma is much smaller than P (that's the point of Theorem 3).
        assert sigma.n < points.n


class TestTheorem4:
    """Problem 2 solved exactly in O(dn^2) + T_maxflow(n)."""

    def test_mincut_equals_exhaustive_optimum(self):
        gen = np.random.default_rng(7)
        for _ in range(15):
            n = int(gen.integers(2, 11))
            d = int(gen.integers(1, 4))
            ps = PointSet(gen.integers(0, 4, size=(n, d)).astype(float),
                          gen.integers(0, 2, size=n),
                          gen.random(n) + 0.1)
            assert solve_passive(ps).optimal_error == \
                pytest.approx(brute_force_passive(ps))

    def test_weighted_answer_differs_from_unweighted(self):
        """Section 1.1: weights change the optimal classifier (Fig 1b)."""
        from repro.datasets.figures import (
            figure1_point_set,
            figure1_weighted_point_set,
        )

        unweighted = solve_passive(figure1_point_set())
        weighted = solve_passive(figure1_weighted_point_set())
        assert unweighted.optimal_error == 3.0
        assert weighted.optimal_error == 104.0
        assert (unweighted.assignment != weighted.assignment).any()


class TestLemma5:
    def test_sample_size_guarantees_deviation_bound(self):
        phi, delta, mu = 0.1, 0.25, 0.5
        t = lemma5_sample_size(phi, delta)
        gen = np.random.default_rng(8)
        failures = sum(
            abs((gen.random(t) < mu).mean() - mu) >= phi
            for _ in range(200)
        )
        assert failures / 200 <= delta


class TestLemma6:
    def test_decomposition_has_exactly_w_chains(self):
        gen = np.random.default_rng(9)
        for _ in range(10):
            n = int(gen.integers(2, 40))
            d = int(gen.integers(1, 4))
            ps = PointSet(gen.integers(0, 5, size=(n, d)).astype(float),
                          [0] * n)
            decomposition = minimum_chain_decomposition(ps)
            antichain = maximum_antichain(ps)
            assert is_valid_chain_decomposition(ps, decomposition)
            assert is_antichain(ps, antichain)
            # Dilworth: both sides certify w.
            assert decomposition.num_chains == len(antichain)
            assert decomposition.num_chains == dominance_width(ps)


class TestLemmas7And8:
    def test_maxflow_equals_mincut_weight(self):
        from repro.flow import solve_min_cut
        from repro.fuzz.generators import random_flow_network

        for seed in range(10):
            net = random_flow_network(30, 0.2, seed=seed)
            cut = solve_min_cut(net, 0, 29, check=False)
            assert cut.weight(net) == pytest.approx(cut.value)


class TestLemma9:
    def test_1d_guarantee(self):
        from repro import active_classify_1d

        points = planted_threshold_1d(25_000, noise=0.1, rng=10)
        optimum = solve_passive_1d(points).optimal_error
        oracle = LabelOracle(points)
        result = active_classify_1d(points.with_hidden_labels(), oracle,
                                    epsilon=0.5, delta=0.05, rng=11)
        assert error_count(points, result.classifier) <= 1.5 * optimum + 1e-9
        assert result.probing_cost < points.n / 2


class TestLemma13:
    def test_sigma_weight_telescopes_to_n(self):
        from repro import active_classify_1d

        points = planted_threshold_1d(10_000, noise=0.1, rng=12)
        oracle = LabelOracle(points)
        result = active_classify_1d(points.with_hidden_labels(), oracle,
                                    epsilon=0.5, rng=13)
        assert result.sigma.total_weight == pytest.approx(points.n)


class TestLemma15:
    def test_contending_restriction_preserves_optimum(self):
        gen = np.random.default_rng(14)
        for _ in range(8):
            n = int(gen.integers(5, 60))
            ps = PointSet(gen.integers(0, 4, size=(n, 2)).astype(float),
                          gen.integers(0, 2, size=n), gen.random(n) + 0.1)
            with_reduction = solve_passive(ps, use_contending_reduction=True)
            without = solve_passive(ps, use_contending_reduction=False)
            assert with_reduction.optimal_error == \
                pytest.approx(without.optimal_error)
