"""Tests for the classifier codec and its on-disk form, the model artifact.

``classifier_to_dict`` / ``classifier_from_dict`` (``repro.serve.artifact``)
encode the classifier payloads an artifact body holds; ``save_artifact`` /
``load_artifact`` are the only way a classifier reaches or leaves disk.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    ConstantClassifier,
    ThresholdClassifier,
    UpsetClassifier,
)
from repro.serve.artifact import (
    ModelArtifact,
    artifact_digest,
    classifier_from_dict,
    classifier_to_dict,
    fit_artifact,
    load_artifact,
    save_artifact,
)


def _predictions_match(a, b, coords):
    return (a.classify_matrix(coords) == b.classify_matrix(coords)).all()


def _round_trip(classifier, path):
    """Save ``classifier`` as an artifact at ``path`` and load it back."""
    save_artifact(ModelArtifact(classifier=classifier), path)
    loaded = load_artifact(path).classifier
    assert classifier_to_dict(loaded) == classifier_to_dict(classifier)
    return loaded


@pytest.fixture
def probe_coords(rng):
    return rng.random((50, 2))


class TestRoundTrips:
    def test_constant(self, tmp_path):
        for value in (0, 1):
            loaded = _round_trip(ConstantClassifier(value),
                                 tmp_path / f"c{value}.json")
            assert isinstance(loaded, ConstantClassifier)
            assert loaded.value == value

    def test_threshold(self, tmp_path, probe_coords):
        h = ThresholdClassifier(0.37, dim=1)
        loaded = _round_trip(h, tmp_path / "t.json")
        assert loaded.tau == 0.37 and loaded.dim == 1
        assert _predictions_match(h, loaded, probe_coords)

    def test_threshold_infinities(self, tmp_path):
        for tau in (float("inf"), float("-inf")):
            assert _round_trip(ThresholdClassifier(tau),
                               tmp_path / "inf.json").tau == tau

    def test_upset(self, tmp_path, probe_coords):
        h = UpsetClassifier([(0.2, 0.8), (0.7, 0.1)])
        loaded = _round_trip(h, tmp_path / "u.json")
        assert isinstance(loaded, UpsetClassifier)
        assert loaded.num_anchors == 2
        assert _predictions_match(h, loaded, probe_coords)

    def test_empty_upset(self, tmp_path, probe_coords):
        h = UpsetClassifier([], dim=2)
        loaded = _round_trip(h, tmp_path / "u0.json")
        assert loaded.num_anchors == 0
        assert loaded.anchors.shape == (0, 2)
        assert _predictions_match(h, loaded, probe_coords)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"format_version": 1, "kind": "mystery"})

    def test_wrong_version(self):
        payload = classifier_to_dict(ConstantClassifier(0))
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            classifier_from_dict(payload)

    def test_unserializable_type(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            classifier_to_dict(Weird())

    @pytest.mark.parametrize("classifier", [
        ConstantClassifier(0),
        ThresholdClassifier(2, dim=0),
        ThresholdClassifier(-0.5, dim=3),
        ThresholdClassifier(float("-inf"), dim=1),
        UpsetClassifier([(0.5,), (0.25,)]),
        UpsetClassifier([(1.0, 2.0, 3.0)]),
        UpsetClassifier([], dim=0),
        UpsetClassifier([], dim=4),
    ], ids=repr)
    def test_every_written_payload_loads(self, classifier):
        """The strict decoder accepts everything the encoder writes."""
        payload = json.loads(json.dumps(classifier_to_dict(classifier)))
        loaded = classifier_from_dict(payload)
        assert classifier_to_dict(loaded) == payload


class TestHardenedBoundary:
    """`load_artifact` is a strict validation boundary: hostile or
    truncated bytes raise ValueError naming the file — never a raw
    TypeError/KeyError traceback — and writes are atomic."""

    def test_unparseable_json_names_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match=str(path)):
            load_artifact(path)

    def test_non_object_document_names_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match=str(path)):
            load_artifact(path)

    def test_truncated_file_names_file(self, tmp_path):
        path = tmp_path / "t.json"
        save_artifact(ModelArtifact(UpsetClassifier([(0.2, 0.8)])), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=str(path)):
            load_artifact(path)

    def test_bare_classifier_file_is_not_an_artifact(self, tmp_path):
        """A bare classifier payload is not a loadable model file."""
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            {"format_version": 1, "kind": "constant", "value": 1}))
        with pytest.raises(ValueError, match="not a model artifact") as info:
            load_artifact(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("payload", [
        {"format_version": 1, "kind": "constant"},            # missing value
        {"format_version": 1, "kind": "threshold", "tau": 0.5},  # missing dim
        {"format_version": 1, "kind": "threshold", "tau": {}, "dim": 1},
        {"format_version": 1, "kind": "upset", "anchors": 7, "dim": 2},
        {"format_version": 1, "kind": "upset",
         "anchors": [[0.1], [0.2, 0.3]], "dim": 2},           # ragged
        # Fields are taken as stored, never coerced.
        {"format_version": 1, "kind": "upset",
         "anchors": [[0.1, 0.2, 0.3]], "dim": 2},             # dim mismatch
        {"format_version": 1, "kind": "upset", "anchors": [], "dim": -2},
        {"format_version": 1, "kind": "threshold", "tau": 0.5, "dim": -1},
        {"format_version": 1, "kind": "threshold", "tau": 0.5, "dim": 1.7},
        {"format_version": 1, "kind": "threshold", "tau": 0.5, "dim": True},
        {"format_version": 1, "kind": "threshold", "tau": True, "dim": 0},
        {"format_version": 1, "kind": "threshold", "tau": "0.5", "dim": 0},
        {"format_version": 1, "kind": "threshold", "tau": 10 ** 400, "dim": 0},
        {"format_version": 1, "kind": "constant", "value": 1.9},
        {"format_version": 1, "kind": "constant", "value": "1"},
        {"format_version": 1, "kind": "constant", "value": True},
    ])
    def test_structural_violations_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            classifier_from_dict(payload)

    def test_digest_valid_dim_mismatch_rejected(self, tmp_path):
        """A well-digested artifact whose upset misstates its dim is
        rejected at load, not served to fail every request."""
        body = ModelArtifact(UpsetClassifier([(0.1, 0.2, 0.3)])).body()
        body["classifier"]["dim"] = 2
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "magic": "repro-model-artifact", "schema_version": 1,
            "digest": artifact_digest(body), "body": body,
        }))
        with pytest.raises(ValueError, match="'dim' is 2"):
            load_artifact(path)

    def test_byte_mutation_regression(self, tmp_path, rng):
        """Every byte-mutated artifact either loads or raises a clean
        ValueError — the same contract the fuzzer enforces."""
        from repro.fuzz.generators import mutate_bytes

        source = tmp_path / "source.json"
        save_artifact(
            ModelArtifact(UpsetClassifier([(0.2, 0.8), (0.7, 0.1)]),
                          fallback=ConstantClassifier(1)),
            source)
        text = source.read_text()
        target = tmp_path / "mutated.json"
        for k in range(64):
            target.write_bytes(mutate_bytes(text, rng, mutations=1 + k % 4))
            try:
                loaded = load_artifact(target)
            except ValueError as exc:
                assert str(target) in str(exc)
            else:
                loaded.classifier.classify_matrix(np.zeros((1, 2)))

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous file intact."""
        import repro._util as util

        path = tmp_path / "c.json"
        save_artifact(ModelArtifact(ConstantClassifier(1)), path)

        real_replace = util.os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(util.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_artifact(ModelArtifact(ConstantClassifier(0)), path)
        monkeypatch.setattr(util.os, "replace", real_replace)
        assert load_artifact(path).classifier.value == 1


class TestTrainedClassifierRoundTrip:
    def test_passive_solution_survives_round_trip(self, tmp_path, rng):
        from repro import solve_passive
        from repro.datasets.synthetic import planted_monotone

        ps = planted_monotone(200, 2, noise=0.1, rng=5)
        result = solve_passive(ps)
        path = tmp_path / "trained.json"
        save_artifact(fit_artifact(ps), path)
        loaded = load_artifact(path).classifier
        assert (loaded.classify_set(ps) == result.assignment).all()
