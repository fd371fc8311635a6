"""Tests for the record-linkage simulation (repro.datasets.records)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve_passive
from repro.datasets.records import (
    generate_record_linkage,
    normalized_levenshtein,
    numeric_proximity,
    token_jaccard,
    trigram_jaccard,
)


class TestSimilarityFunctions:
    def test_token_jaccard(self):
        assert token_jaccard("john smith", "john smith") == 1.0
        assert token_jaccard("john smith", "jane smith") == pytest.approx(1 / 3)
        assert token_jaccard("abc", "xyz") == 0.0
        assert token_jaccard("", "") == 1.0
        assert token_jaccard("a", "") == 0.0

    def test_trigram_jaccard_typo_tolerant(self):
        exact = trigram_jaccard("johnson", "johnson")
        typo = trigram_jaccard("johnson", "jhonson")
        different = trigram_jaccard("johnson", "martinez")
        assert exact == 1.0
        assert different < typo < exact
        assert typo > 0.3

    def test_normalized_levenshtein(self):
        assert normalized_levenshtein("kitten", "kitten") == 1.0
        # Classic distance 3 over max length 7.
        assert normalized_levenshtein("kitten", "sitting") == \
            pytest.approx(1 - 3 / 7)
        assert normalized_levenshtein("", "abc") == 0.0
        assert normalized_levenshtein("abc", "") == 0.0

    def test_levenshtein_symmetry(self):
        pairs = [("smith", "smyth"), ("12345", "12354"), ("a", "ab")]
        for a, b in pairs:
            assert normalized_levenshtein(a, b) == \
                pytest.approx(normalized_levenshtein(b, a))

    def test_numeric_proximity(self):
        assert numeric_proximity(1980, 1980, 10) == 1.0
        assert numeric_proximity(1980, 1985, 10) == 0.5
        assert numeric_proximity(1980, 2000, 10) == 0.0
        with pytest.raises(ValueError):
            numeric_proximity(1, 2, 0)

    def test_all_similarities_in_unit_interval(self, rng):
        strings = ["john smith", "jon smith", "mary jones", "", "x"]
        for a in strings:
            for b in strings:
                for fn in (token_jaccard, trigram_jaccard,
                           normalized_levenshtein):
                    assert 0.0 <= fn(a, b) <= 1.0


class TestWorkloadGeneration:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_record_linkage(n_entities=300, nonmatch_ratio=3.0,
                                       severity=0.5, rng=0)

    def test_shapes_and_counts(self, workload):
        assert workload.n == 300 * 4  # matches + 3x non-matches
        assert workload.points.dim == 4
        assert int((workload.points.labels == 1).sum()) == 300
        assert len(workload.pair_records) == workload.n

    def test_scores_in_unit_interval(self, workload):
        assert (workload.points.coords >= 0).all()
        assert (workload.points.coords <= 1).all()

    def test_matches_score_higher(self, workload):
        points = workload.points
        match_mean = points.coords[points.labels == 1].mean()
        nonmatch_mean = points.coords[points.labels == 0].mean()
        assert match_mean > nonmatch_mean + 0.25

    def test_pairs_align_with_labels(self, workload):
        for i in range(0, workload.n, 97):
            a, b = workload.pair_records[i]
            expected = 1 if a.entity_id == b.entity_id else 0
            assert int(workload.points.labels[i]) == expected

    def test_noise_makes_kstar_positive_but_small(self, workload):
        optimum = solve_passive(workload.points).optimal_error
        # Typos create genuine score-label conflicts...
        assert optimum > 0
        # ...but far fewer than a constant classifier's error.
        assert optimum < 0.2 * workload.n

    def test_monotone_classifier_is_accurate(self, workload):
        """A passive fit on 3/4 of the pairs scores F1 > 0.8 on the rest."""
        points = workload.points
        test = np.random.default_rng(1).permutation(points.n)[: points.n // 4]
        train = np.setdiff1d(np.arange(points.n), test)
        classifier = solve_passive(points.subset(train)).classifier
        predicted = classifier.classify_matrix(points.coords[test])
        actual = points.labels[test]
        true_positives = np.count_nonzero((predicted == 1) & (actual == 1))
        f1 = 2 * true_positives / (np.count_nonzero(predicted == 1)
                                   + np.count_nonzero(actual == 1))
        assert f1 > 0.8

    def test_deterministic(self):
        a = generate_record_linkage(50, rng=7)
        b = generate_record_linkage(50, rng=7)
        assert (a.points.coords == b.points.coords).all()
        assert (a.points.labels == b.points.labels).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_record_linkage(0)
        with pytest.raises(ValueError):
            generate_record_linkage(10, nonmatch_ratio=-1)
        with pytest.raises(ValueError):
            generate_record_linkage(10, severity=2.0)

    def test_namesakes_create_the_conflicts(self):
        """Hard negatives (namesakes) are what drives k* above zero.

        Individual seeds are noisy (a namesake only conflicts when its
        quantized scores dominate some true match's), so aggregate over
        several seeds.
        """
        def total_kstar(fraction: float) -> float:
            return sum(
                solve_passive(generate_record_linkage(
                    400, namesake_fraction=fraction, severity=0.5,
                    rng=seed).points).optimal_error
                for seed in range(3)
            )

        assert total_kstar(0.4) > 2 * total_kstar(0.0)

    def test_namesake_validation(self):
        with pytest.raises(ValueError):
            generate_record_linkage(10, namesake_fraction=1.5)
