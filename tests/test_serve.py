"""Tests for the hardened serving layer (repro.serve)."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.active import active_classify
from repro.core.classifier import (
    ConstantClassifier,
    ThresholdClassifier,
    UpsetClassifier,
)
from repro.core.oracle import LabelOracle
from repro.core.points import PointSet
from repro.poset import minimum_chain_decomposition
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.serve import (
    ARTIFACT_MAGIC,
    ARTIFACT_SCHEMA_VERSION,
    ModelArtifact,
    ModelFleet,
    QueryResult,
    ServeEngine,
    ServeFaultSpec,
    ServeLoadTransient,
    artifact_digest,
    fit_artifact,
    last_good_path,
    load_artifact,
    quarantine_artifact,
    read_serve_journal,
    rotated_journal_segments,
    save_artifact,
)


#: An artifact written by ``repro fit`` on ``repro generate --n 300
#: --seed 1`` before fits stopped embedding the chain decomposition.
SCHEMA1_CHAINS_FIXTURE = (Path(__file__).parent / "data"
                          / "artifact_schema1_chains.json")


@pytest.fixture
def labeled_points(rng):
    coords = rng.random((40, 2))
    labels = (coords.sum(axis=1) > 1.0).astype(int)
    labels[:3] ^= 1  # a little noise so the fit is non-trivial
    return PointSet(coords, labels)


@pytest.fixture
def artifact(labeled_points):
    return fit_artifact(labeled_points, "passive")


@pytest.fixture
def deployed(tmp_path, artifact):
    path = tmp_path / "model.json"
    save_artifact(artifact, path)
    return path


@pytest.fixture
def legacy_deployed(tmp_path):
    """A writable copy of the committed chain-embedding artifact."""
    path = tmp_path / "legacy.json"
    shutil.copyfile(SCHEMA1_CHAINS_FIXTURE, path)
    return path


def _assert_tamper_rejected(path):
    envelope = json.loads(path.read_text())
    envelope["body"]["fit"]["n"] = 999_999  # tamper, keep stale digest
    path.write_text(json.dumps(envelope))
    with pytest.raises(ValueError, match="digest mismatch"):
        load_artifact(path)


def _assert_truncation_rejected(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match=str(path)):
        load_artifact(path)


def _assert_wrong_magic_and_schema_rejected(path):
    envelope = json.loads(path.read_text())
    envelope["magic"] = "something-else"
    path.write_text(json.dumps(envelope))
    with pytest.raises(ValueError, match="not a model artifact"):
        load_artifact(path)
    envelope["magic"] = ARTIFACT_MAGIC
    envelope["schema_version"] = 99
    path.write_text(json.dumps(envelope))
    with pytest.raises(ValueError, match="schema version"):
        load_artifact(path)


def _write_with_chains(path, artifact, chains):
    """Save ``artifact`` with ``chains`` put in its body, digest recomputed."""
    body = artifact.body()
    body["chains"] = chains
    envelope = {"magic": ARTIFACT_MAGIC,
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "digest": artifact_digest(body), "body": body}
    path.write_text(json.dumps(envelope))


class TestArtifact:
    def test_round_trip_preserves_predictions(self, deployed, artifact, rng):
        loaded = load_artifact(deployed)
        probes = rng.random((64, 2))
        assert (loaded.classifier.classify_matrix(probes)
                == artifact.classifier.classify_matrix(probes)).all()
        assert loaded.digest == artifact.digest
        assert loaded.fit["mode"] == "passive"
        assert loaded.chains is None
        assert loaded.certificate is not None
        assert loaded.fallback is not None

    def test_digest_is_canonical(self, artifact):
        body = artifact.body()
        digest = artifact_digest(body)
        # Key order must not matter: the digest is over sorted-key JSON.
        reordered = dict(reversed(list(body.items())))
        assert artifact_digest(reordered) == digest

    def test_envelope_fields(self, deployed):
        envelope = json.loads(deployed.read_text())
        assert envelope["magic"] == ARTIFACT_MAGIC
        assert envelope["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert envelope["digest"] == artifact_digest(envelope["body"])

    def test_content_mutation_rejected(self, deployed):
        _assert_tamper_rejected(deployed)

    def test_truncation_rejected_naming_file(self, deployed):
        _assert_truncation_rejected(deployed)

    def test_wrong_magic_and_schema_rejected(self, tmp_path, artifact):
        path = tmp_path / "m.json"
        save_artifact(artifact, path)
        _assert_wrong_magic_and_schema_rejected(path)

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_artifact(tmp_path / "nope.json")

    def test_cosmetic_whitespace_still_verifies(self, deployed):
        envelope = json.loads(deployed.read_text())
        deployed.write_text(json.dumps(envelope, indent=4))  # reformat only
        loaded = load_artifact(deployed)
        assert loaded.digest == envelope["digest"]

    def test_quarantine_moves_bytes_aside(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("hostile")
        target = quarantine_artifact(path, reason="test")
        assert target is not None and target.exists()
        assert not path.exists()
        assert target.read_text() == "hostile"
        # Second quarantine of the same name picks a fresh slot.
        path.write_text("hostile2")
        target2 = quarantine_artifact(path)
        assert target2 != target

    def test_quarantine_vanished_file(self, tmp_path):
        assert quarantine_artifact(tmp_path / "gone.json") is None

    def test_fit_active_mode(self, labeled_points):
        art = fit_artifact(labeled_points, "active", epsilon=0.5, seed=3)
        assert art.fit["mode"] == "active"
        assert art.fit["probes"] > 0
        assert art.fit["num_chains"] >= 1
        assert art.fallback is not None

    @pytest.mark.parametrize("dim, method", [(2, "patience"), (3, "matching")])
    def test_fit_active_reused_chains_same_digest(self, tmp_path, rng, dim, method):
        # The active fit decomposes (Theorem 2 needs the chains) but does
        # not serialize the decomposition: only its size survives, and it
        # is the width a fresh decomposition of the fit set reports.
        coords = rng.random((60, dim))
        points = PointSet(coords, (coords.sum(axis=1) > dim / 2).astype(int))
        first = fit_artifact(points, "active", epsilon=0.5, seed=3)
        again = fit_artifact(points, "active", epsilon=0.5, seed=3)
        assert first.chains is None
        decomp = minimum_chain_decomposition(points)
        assert decomp.method == method
        assert first.fit["num_chains"] == decomp.num_chains
        assert (save_artifact(first, tmp_path / "a.json")
                == save_artifact(again, tmp_path / "b.json"))

    def test_auto_decomposition_rejected(self, labeled_points):
        message = "decomposition must be 'exact' or 'greedy'"
        oracle = LabelOracle(labeled_points)
        with pytest.raises(ValueError, match=message):
            active_classify(labeled_points.with_hidden_labels(), oracle,
                            epsilon=0.5, decomposition="auto")
        with pytest.raises(ValueError, match=message):
            fit_artifact(labeled_points, "active", decomposition="auto")

    def test_fit_unknown_mode(self, labeled_points):
        with pytest.raises(ValueError, match="unknown fit mode"):
            fit_artifact(labeled_points, "psychic")

    def test_fallback_is_weighted_majority(self):
        pts = PointSet([[0.0], [1.0], [2.0]], [1, 1, 0], weights=[1, 1, 5])
        art = fit_artifact(pts, "passive")
        assert isinstance(art.fallback, ConstantClassifier)
        assert art.fallback.value == 0  # weight 5 beats 2


class TestEmbeddedChains:
    """Bodies that embed a chain decomposition load only if every index
    is a distinct JSON integer naming a fit point."""

    def test_valid_chains_round_trip(self, tmp_path, artifact, labeled_points):
        chains = minimum_chain_decomposition(labeled_points).chains
        path = tmp_path / "m.json"
        _write_with_chains(path, artifact, chains)
        loaded = load_artifact(path)
        assert loaded.chains == chains
        assert save_artifact(loaded, tmp_path / "again.json") == loaded.digest

    @pytest.mark.parametrize("chains", [
        [["3", 2.7, True]], [["3"]], [[2.7]], [[2.0]], [[True]],
        [[-5, 999]], [[-5]], [[20]], [[0, 0, 0]], [[0], [0]],
        [[0], 1], {"0": [0]},
    ], ids=["str-float-bool", "str", "float", "integral-float", "bool",
            "negative-and-past-n", "negative", "index-n", "repeated-in-chain",
            "repeated-across-chains", "non-list-chain", "object"])
    def test_hostile_chains_rejected_naming_file(self, tmp_path, chains):
        pts = PointSet(np.arange(20.0)[:, None], [0] * 10 + [1] * 10)
        path = tmp_path / "hostile.json"
        _write_with_chains(path, fit_artifact(pts, "passive"), chains)
        with pytest.raises(ValueError, match=str(path)):
            load_artifact(path)


class TestSchema1ChainsFixture:
    """The committed artifact embeds chains, as every fit used to."""

    def test_loads_verifies_and_answers_like_its_classifier(
            self, legacy_deployed, tmp_path, capsys):
        from repro.cli import main
        from repro.io import load_csv

        envelope = json.loads(legacy_deployed.read_text())
        loaded = load_artifact(legacy_deployed)
        assert loaded.digest == envelope["digest"]
        assert loaded.chains is not None
        assert sorted(i for c in loaded.chains for i in c) == list(range(300))
        data = tmp_path / "data.csv"
        assert main(["generate", str(data), "--n", "300", "--seed", "1"]) == 0
        points = load_csv(data)
        # Refitting today writes the same classifier sub-document.
        refit = fit_artifact(points, "passive")
        assert refit.body()["classifier"] == envelope["body"]["classifier"]
        assert refit.body()["fallback"] == envelope["body"]["fallback"]
        with ServeEngine(legacy_deployed) as engine:
            result = engine.classify_batch(points.coords)
            assert result.ok and engine.serving_verified
            assert engine.source == "primary"
        assert (np.asarray(result.labels)
                == loaded.classifier.classify_matrix(points.coords)).all()

    def test_save_round_trip_keeps_digest(self, legacy_deployed, tmp_path):
        loaded = load_artifact(legacy_deployed)
        again = tmp_path / "again.json"
        assert save_artifact(loaded, again) == loaded.digest
        assert load_artifact(again).chains == loaded.chains

    def test_content_mutation_rejected(self, legacy_deployed):
        _assert_tamper_rejected(legacy_deployed)

    def test_truncation_rejected_naming_file(self, legacy_deployed):
        _assert_truncation_rejected(legacy_deployed)

    def test_wrong_magic_and_schema_rejected(self, legacy_deployed):
        _assert_wrong_magic_and_schema_rejected(legacy_deployed)


class TestServeEngine:
    def test_primary_serving_is_verified(self, deployed, rng):
        with ServeEngine(deployed) as engine:
            result = engine.classify_batch(rng.random((32, 2)))
            assert result.ok and not result.degraded
            assert result.source == "primary"
            assert engine.serving_verified
            single = engine.classify((0.9, 0.9))
            assert single.label in (0, 1)

    def test_corrupt_primary_falls_back_to_last_good(self, deployed, rng):
        engine = ServeEngine(deployed)
        engine.reload()  # writes the last-good copy
        assert last_good_path(deployed).exists()
        deployed.write_text("garbage")
        assert engine.reload() is True  # last-good is digest-verified
        assert engine.source == "last_good"
        result = engine.classify_batch(rng.random((8, 2)))
        assert result.ok and not result.degraded
        assert engine.quarantines == 1
        assert not deployed.exists()  # quarantined aside

    def test_no_rungs_left_degrades_to_embedded_fallback(self, deployed, rng):
        engine = ServeEngine(deployed)
        engine.reload()
        deployed.write_text("garbage")
        last_good_path(deployed).write_text("also garbage")
        assert engine.reload() is False
        assert engine.source == "fallback"
        result = engine.classify_batch(rng.random((8, 2)))
        assert result.status == "degraded" and result.degraded

    def test_cold_start_on_corrupt_uses_constructor_fallback(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("garbage")
        engine = ServeEngine(path, fallback=ConstantClassifier(1),
                             keep_last_good=False)
        result = engine.classify((0.5, 0.5))
        assert result.status == "degraded"
        assert result.label == 1

    def test_no_fallback_fails_explicitly(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("garbage")
        engine = ServeEngine(path, fallback=None, keep_last_good=False)
        result = engine.classify((0.5, 0.5))
        assert result.status == "failed" and result.labels is None

    def test_transient_loads_retry(self, deployed):
        real = load_artifact
        failures = {"left": 2}

        def flaky(path):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ServeLoadTransient("slow volume")
            return real(path)

        engine = ServeEngine(deployed, loader=flaky,
                             retry=RetryPolicy(max_attempts=3))
        assert engine.reload() is True
        assert engine.source == "primary"

    def test_transients_past_budget_degrade(self, deployed):
        def always_slow(path):
            raise ServeLoadTransient("dead volume")

        engine = ServeEngine(deployed, loader=always_slow,
                             retry=RetryPolicy(max_attempts=2),
                             keep_last_good=False)
        assert engine.reload() is False
        assert engine.source == "fallback"

    def test_breaker_short_circuits_flapping_store(self, deployed):
        calls = {"n": 0}

        def always_slow(path):
            calls["n"] += 1
            raise ServeLoadTransient("flapping")

        breaker = CircuitBreaker(threshold=2, cooldown=1000)
        engine = ServeEngine(deployed, loader=always_slow, breaker=breaker,
                             retry=RetryPolicy(max_attempts=5),
                             keep_last_good=False)
        engine.reload()
        first = calls["n"]
        assert first == 2  # breaker opened after the threshold
        engine.reload()
        assert calls["n"] == first  # open breaker: no load attempts at all

    def test_queue_sheds_excess_load(self, deployed, rng):
        engine = ServeEngine(deployed, queue_limit=2)
        outcomes = [engine.submit(rng.random((4, 2))) for _ in range(5)]
        admitted = [o for o in outcomes if o is None]
        shed = [o for o in outcomes if o is not None]
        assert len(admitted) == 2 and len(shed) == 3
        assert all(s.status == "overloaded" for s in shed)
        assert engine.queue_depth == 2
        answered = engine.drain()
        assert len(answered) == 2 and all(a.ok for a in answered)
        assert engine.queue_depth == 0

    def test_deadline_expires_in_queue(self, deployed, rng):
        now = {"t": 0.0}
        engine = ServeEngine(deployed, clock=lambda: now["t"],
                             queue_limit=8)
        engine.submit(rng.random((4, 2)), deadline=1.0)
        engine.submit(rng.random((4, 2)), deadline=100.0)
        now["t"] = 5.0  # the first request is now stale
        expired, fresh = engine.drain()
        assert expired.status == "deadline_exceeded"
        assert expired.labels is None
        assert fresh.ok

    def test_malformed_query_fails_alone(self, deployed, rng):
        engine = ServeEngine(deployed)
        bad = engine.classify_batch(rng.random((4, 7)))  # wrong dim
        assert bad.status == "invalid"
        good = engine.classify_batch(rng.random((4, 2)))
        assert good.ok  # the server survived the bad request

    @pytest.mark.parametrize("bad", [
        [[float("nan"), 0.5]], [[0.5, float("-inf")]], [[0.5, 0.5], [0.5]],
        [["x", 0.5]], object(),
    ], ids=["nan", "inf", "ragged", "text", "object"])
    def test_unreadable_query_is_invalid_not_raised(self, deployed, bad):
        engine = ServeEngine(deployed)
        assert engine.classify_batch(bad).status == "invalid"
        shed = engine.submit(bad)
        assert shed is not None and shed.status == "invalid"
        assert engine.queue_depth == 0
        assert engine.classify((0.5, 0.5)).ok

    def test_malformed_query_to_all_zero_model_fails(self, tmp_path, rng):
        art = ModelArtifact(classifier=UpsetClassifier([], dim=2),
                            fit={"mode": "manual", "dim": 2})
        path = tmp_path / "zero.json"
        save_artifact(art, path)
        engine = ServeEngine(path)
        assert engine.classify_batch(rng.random((4, 7))).status == "invalid"
        good = engine.classify_batch(rng.random((4, 2)))
        assert good.ok and not good.labels.any()

    def test_journal_and_warm_restart(self, deployed, tmp_path, rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal)
        for _ in range(3):
            engine.classify_batch(rng.random((5, 2)))
        engine.abandon()  # SIGKILL-equivalent: no shutdown marker

        meta, last_seq, answered, digest = read_serve_journal(journal)
        assert meta is not None and meta["artifact_path"] == str(deployed)
        assert answered == 3 and last_seq == 2
        assert digest is not None

        restarted = ServeEngine.warm_restart(deployed, journal)
        assert restarted.resumed_requests == 3
        result = restarted.classify_batch(rng.random((5, 2)))
        assert result.ok
        assert result.request_id == 3  # sequence resumed, not restarted

    def test_journal_tolerates_truncated_tail(self, deployed, tmp_path, rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal)
        engine.classify_batch(rng.random((5, 2)))
        engine.abandon()
        with open(journal, "a") as handle:
            handle.write('{"seq": 1, "n":')  # crash mid-append
        meta, last_seq, answered, _ = read_serve_journal(journal)
        assert last_seq == 0 and answered == 1

    def test_journal_mid_file_corruption_is_an_error(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_text('{"seq": 0, "n": 1, "status": "ok"}\n'
                           "GARBAGE\n"
                           '{"seq": 1, "n": 1, "status": "ok"}\n')
        with pytest.raises(ValueError, match=str(journal)):
            read_serve_journal(journal)

    def test_query_result_views(self):
        r = QueryResult(0, "ok", "primary", labels=np.array([1, 0]))
        assert r.ok and r.label == 1 and r.n == 2
        empty = QueryResult(1, "overloaded", "primary")
        assert empty.label is None and empty.n == 0

    def test_bad_queue_limit_rejected(self, deployed):
        with pytest.raises(ValueError, match="queue_limit"):
            ServeEngine(deployed, queue_limit=0)


class TestServeMetrics:
    def test_latency_histogram_and_counters(self, deployed, rng):
        from repro import obs

        registry = obs.MetricsRegistry("serve-test")
        with obs.metrics_session(registry):
            engine = ServeEngine(deployed, queue_limit=1)
            engine.classify_batch(rng.random((16, 2)))
            engine.submit(rng.random((4, 2)))
            engine.submit(rng.random((4, 2)))  # shed
            engine.drain()
        counters = registry.counters
        assert counters["serve.requests"].value == 2
        assert counters["serve.points"].value == 20
        assert counters["serve.shed"].value == 1
        assert counters["serve.installs.primary"].value == 1
        assert "serve.request_seconds" in registry.timers

    def test_every_journal_line_is_fsynced_and_timed(self, deployed,
                                                     tmp_path, rng):
        from repro import obs

        registry = obs.MetricsRegistry("serve-test")
        with obs.metrics_session(registry):
            engine = ServeEngine(deployed, journal_path=tmp_path / "j",
                                 journal_max_bytes=256)
            for _ in range(6):
                engine.classify_batch(rng.random((2, 2)))
            engine.close()
        lines = sum(len(path.read_text().splitlines()) for path in
                    rotated_journal_segments(tmp_path / "j") + [tmp_path / "j"])
        assert registry.counters["serve.journal_appends"].value == lines
        assert registry.counters["serve.journal_rotations"].value >= 1
        assert registry.timers["journal.fsync_seconds"].count == lines


class TestLastGoodCopy:
    """The last-good copy is the verified primary's bytes, written only
    when the file on disk differs."""

    def test_second_reload_leaves_last_good_untouched(self, deployed):
        engine = ServeEngine(deployed)
        assert engine.reload() is True
        before = last_good_path(deployed).stat()
        assert engine.reload() is True
        after = last_good_path(deployed).stat()
        assert after.st_ino == before.st_ino
        assert after.st_mtime_ns == before.st_mtime_ns

    def test_last_good_bytes_equal_primary(self, deployed, legacy_deployed):
        for path in (deployed, legacy_deployed):
            assert ServeEngine(path).reload() is True
            assert last_good_path(path).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "tamper"])
    def test_damaged_last_good_is_rewritten(self, deployed, damage):
        ServeEngine(deployed).reload()
        lg = last_good_path(deployed)
        if damage == "truncate":
            lg.write_bytes(lg.read_bytes()[:150])
        elif damage == "garbage":
            lg.write_text("garbage")
        else:
            _assert_tamper_rejected(lg)
        assert ServeEngine(deployed).reload() is True
        assert lg.read_bytes() == deployed.read_bytes()
        assert load_artifact(lg).digest == load_artifact(deployed).digest

    def test_install_verified_writes_loadable_last_good(
        self, tmp_path, labeled_points
    ):
        fresh = fit_artifact(labeled_points, "passive")
        save_artifact(fresh, tmp_path / "saved.json")
        engine = ServeEngine(tmp_path / "model.json")
        engine.install_verified(fresh)
        lg = last_good_path(tmp_path / "model.json")
        assert load_artifact(lg).digest == fresh.digest
        assert lg.read_bytes() == (tmp_path / "saved.json").read_bytes()

    def test_loader_hook_without_cached_text(self, deployed):
        def loader(path):
            return dataclasses.replace(load_artifact(path))

        engine = ServeEngine(deployed, loader=loader)
        assert engine.reload() is True
        assert engine.artifact.verified_text is not None  # rendered on write
        lg = last_good_path(deployed)
        assert load_artifact(lg).digest == engine.model_digest
        assert lg.read_bytes() == deployed.read_bytes()

    def test_keep_last_good_off_writes_nothing(self, deployed):
        assert ServeEngine(deployed, keep_last_good=False).reload() is True
        assert not last_good_path(deployed).exists()

    def test_cached_text_ignored_by_equality_and_repr(self, deployed, artifact):
        loaded = load_artifact(deployed)
        assert loaded.verified_text == deployed.read_text()
        bare = dataclasses.replace(loaded)
        assert bare.verified_text is None
        assert bare == loaded
        assert repr(bare) == repr(loaded)
        assert "verified_text" not in repr(loaded)
        assert set(loaded.body()) == set(artifact.body())
        with pytest.raises(TypeError):
            ModelArtifact(classifier=artifact.classifier, verified_text="x")

    def test_reload_span_and_counters(self, deployed):
        from repro import obs

        with obs.metrics_session(name="lg", trace=True) as reg:
            engine = ServeEngine(deployed)
            engine.reload()
            engine.reload()
            deployed.write_text("garbage")
            engine.reload()
            absent = deployed.with_name("absent.json")
            ServeEngine(absent, keep_last_good=False).reload()
        spans = [e for e in reg.trace_events if e["name"] == "serve.reload"]
        assert [e["args"] for e in spans] == [
            {"rung": "primary", "last_good": "written"},
            {"rung": "primary", "last_good": "unchanged"},
            {"rung": "last_good"},
            {"rung": "fallback", "last_good": "off"},
        ]
        assert reg.counter_value("serve.last_good_writes") == 1
        assert reg.counter_value("serve.last_good_unchanged") == 1


class TestFaultSpec:
    def test_parse_round_trip(self):
        spec = ServeFaultSpec.parse("corrupt=0.05, delay=0.1, kill=0.02, seed=7")
        assert spec == ServeFaultSpec(0.05, 0.1, 0.02, seed=7)
        assert spec.active

    def test_parse_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown serve fault spec"):
            ServeFaultSpec.parse("corupt=0.5")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="not a number"):
            ServeFaultSpec.parse("corrupt=lots")

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="corrupt_rate"):
            ServeFaultSpec(corrupt_rate=1.5)

    def test_empty_spec_inactive(self):
        assert not ServeFaultSpec.parse("").active


class TestServeCli:
    def test_fit_serve_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        answers = tmp_path / "answers.json"
        assert main(["generate", str(data), "--n", "80", "--seed", "5"]) == 0
        assert main(["fit", str(data), str(model)]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out
        assert main(["serve", str(model), str(data),
                     "--output", str(answers)]) == 0
        doc = json.loads(answers.read_text())
        assert len(doc["labels"]) == 80
        assert all(label in (0, 1) for label in doc["labels"])
        assert doc["source"] == "primary"

    def test_serve_degrades_on_corrupt_artifact(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        assert main(["generate", str(data), "--n", "40", "--seed", "5"]) == 0
        assert main(["fit", str(data), str(model)]) == 0
        model.write_text("hostile bytes")
        # Graceful degradation: exit 0, answers flagged, file quarantined.
        assert main(["serve", str(model), str(data)]) == 0
        out = capsys.readouterr().out
        assert "fallback" in out
        assert not model.exists()
        assert model.with_name("model.json.quarantined").exists()

    def test_serve_requires_queries_or_chaos(self, tmp_path):
        from repro.cli import main

        model = tmp_path / "model.json"
        assert main(["serve", str(model)]) == 2

    def test_serve_missing_artifact_is_input_error(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        assert main(["generate", str(data), "--n", "20", "--seed", "5"]) == 0
        capsys.readouterr()
        # A never-existed artifact path is a CLI input error (exit 2), not
        # a degradation scenario -- there is no deployment to fall back on.
        assert main(["serve", str(tmp_path / "nope.json"), str(data)]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err and "not found" in err

    def test_serve_missing_primary_with_last_good_degrades_gracefully(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.serve import last_good_path

        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        assert main(["generate", str(data), "--n", "30", "--seed", "5"]) == 0
        assert main(["fit", str(data), str(model)]) == 0
        # Prime the last-good copy, then lose the primary (post-crash state).
        assert main(["serve", str(model), str(data)]) == 0
        model.unlink()
        assert last_good_path(model).exists()
        assert main(["serve", str(model), str(data)]) == 0
        out = capsys.readouterr().out
        assert "last_good" in out

    def test_wrong_dimension_queries_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        data3 = tmp_path / "data3.csv"
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        model = fleet / "m.json"
        assert main(["generate", str(data), "--n", "30", "--seed", "5"]) == 0
        assert main(["generate", str(data3), "--n", "30", "--dim", "3",
                     "--seed", "5"]) == 0
        assert main(["fit", str(data), str(model)]) == 0
        capsys.readouterr()
        assert main(["serve", str(model), str(data3)]) == 1
        assert "invalid" in capsys.readouterr().out
        assert main(["serve", str(fleet), str(data3), "--fleet",
                     "--model", "m"]) == 1
        assert "invalid" in capsys.readouterr().out
        assert main(["serve", str(fleet), str(data), "--fleet",
                     "--model", "m"]) == 0

    def test_fit_active_cli(self, tmp_path):
        from repro.cli import main

        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        assert main(["generate", str(data), "--n", "30", "--seed", "1"]) == 0
        assert main(["fit", str(data), str(model), "--mode", "active",
                     "--epsilon", "0.5"]) == 0
        art = load_artifact(model)
        assert art.fit["mode"] == "active"

    def test_serve_chaos_cli(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        assert main(["generate", str(data), "--n", "60", "--seed", "2"]) == 0
        assert main(["fit", str(data), str(model)]) == 0
        assert main(["serve", str(model), "--chaos",
                     "corrupt=0.2,delay=0.2,kill=0.1,seed=3",
                     "--chaos-queries", "3000",
                     "--batch-size", "256"]) == 0
        out = capsys.readouterr().out
        assert "wrong" in out


class TestArtifactFuzz:
    def test_envelope_boundary_holds(self, labeled_points, rng):
        from repro.fuzz.runner import fuzz_artifact_roundtrip

        tried, violations, archived = fuzz_artifact_roundtrip(
            labeled_points, rng, mutations_per_text=24)
        assert tried == 24
        assert violations == []
        assert archived == []

    def test_threshold_artifact_serves(self, tmp_path, rng):
        # Non-upset families ride the same envelope.
        art = ModelArtifact(classifier=ThresholdClassifier(0.5, dim=0),
                            fit={"mode": "manual", "dim": 1})
        path = tmp_path / "t.json"
        save_artifact(art, path)
        engine = ServeEngine(path)
        result = engine.classify_batch(rng.random((8, 1)))
        assert result.ok


class TestJournalRotation:
    def test_rotation_caps_live_file(self, deployed, tmp_path, rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=256, journal_keep=4)
        for _ in range(20):
            engine.classify_batch(rng.random((3, 2)))
        engine.close()
        assert journal.stat().st_size <= 256
        segments = rotated_journal_segments(journal)
        assert segments  # at least one rotation happened
        # Oldest-first stitching order: .k, ..., .1
        names = [segment.name for segment in segments]
        assert names == [f"serve.journal.{k}"
                         for k in range(len(segments), 0, -1)]

    def test_rotated_segments_each_self_describing(self, deployed, tmp_path,
                                                   rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=256)
        for _ in range(20):
            engine.classify_batch(rng.random((3, 2)))
        engine.close()
        for segment in rotated_journal_segments(journal) + [journal]:
            first = json.loads(segment.read_text().splitlines()[0])
            assert "meta" in first  # every segment re-writes the meta line

    def test_oldest_segment_dropped_beyond_keep(self, deployed, tmp_path,
                                                rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=128, journal_keep=2)
        for _ in range(40):
            engine.classify_batch(rng.random((3, 2)))
        engine.close()
        assert len(rotated_journal_segments(journal)) <= 2

    def test_read_stitches_rotated_segments(self, deployed, tmp_path, rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=256, journal_keep=8)
        for _ in range(15):
            engine.classify_batch(rng.random((3, 2)))
        engine.close()
        assert rotated_journal_segments(journal)
        meta, last_seq, answered, digest = read_serve_journal(journal)
        assert meta is not None
        assert answered == 15 and last_seq == 14
        assert digest is not None

    def test_warm_restart_across_rotation_boundary(self, deployed, tmp_path,
                                                   rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=256, journal_keep=8)
        for _ in range(15):
            engine.classify_batch(rng.random((3, 2)))
        engine.abandon()  # SIGKILL-equivalent mid-stream

        restarted = ServeEngine.warm_restart(
            deployed, journal, journal_max_bytes=256, journal_keep=8)
        assert restarted.resumed_requests == 15
        result = restarted.classify_batch(rng.random((3, 2)))
        assert result.ok
        assert result.request_id == 15  # sequence spans the rotation
        restarted.close()

    def test_corruption_in_rotated_segment_is_an_error(self, deployed,
                                                       tmp_path, rng):
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal,
                             journal_max_bytes=256)
        for _ in range(15):
            engine.classify_batch(rng.random((3, 2)))
        engine.close()
        segment = rotated_journal_segments(journal)[0]
        with open(segment, "a") as handle:
            handle.write('{"seq": 99, "n":')  # torn tail in an OLD segment
        # Only the *newest* file may have a torn tail; rotation only ever
        # happens between complete fsynced lines.
        with pytest.raises(ValueError, match=str(segment)):
            read_serve_journal(journal)

    def test_journal_params_validated(self, deployed, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ServeEngine(deployed, journal_path=tmp_path / "j",
                        journal_max_bytes=0)
        with pytest.raises(ValueError, match="keep_segments"):
            ServeEngine(deployed, journal_path=tmp_path / "j",
                        journal_keep=0)


class TestTornTail:
    @pytest.mark.parametrize("cut", [3, 11, 23])
    def test_multi_record_torn_tail_tolerated(self, deployed, tmp_path, rng,
                                              cut):
        """A crash can tear *several* trailing records (repeated
        crash/append cycles); warm restart must survive all of them."""
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal)
        for _ in range(4):
            engine.classify_batch(rng.random((3, 2)))
        engine.abandon()
        torn_a = '{"seq": 4, "n": 3, "status": "ok", "source": "primary"}'
        torn_b = '{"seq": 5, "n": 3, "status"'
        with open(journal, "a") as handle:
            # Record 4 is cut mid-record at a parametrized byte offset and
            # record 5 is cut as well: two partial trailing records.
            handle.write(torn_a[:cut] + "\n")
            handle.write(torn_b)
        meta, last_seq, answered, _ = read_serve_journal(journal)
        assert meta is not None
        assert last_seq == 3 and answered == 4  # torn records never happened

        restarted = ServeEngine.warm_restart(deployed, journal)
        assert restarted.resumed_requests == 4
        result = restarted.classify_batch(rng.random((3, 2)))
        assert result.ok and result.request_id == 4
        restarted.close()

    @pytest.mark.parametrize("cut", [3, 11, 23])
    def test_torn_tail_survives_two_warm_restarts(self, deployed, tmp_path,
                                                  rng, cut):
        """Reopening cuts the torn tail off: appending onto it would merge
        the next record into it, and the second restart's read would find
        a corrupt line followed by valid ones."""
        journal = tmp_path / "serve.journal"
        engine = ServeEngine(deployed, journal_path=journal)
        for _ in range(4):
            engine.classify_batch(rng.random((3, 2)))
        engine.abandon()
        with open(journal, "a") as handle:
            handle.write('{"seq": 4, "n": 3, "status": "ok"}'[:cut])
        first = ServeEngine.warm_restart(deployed, journal)
        for _ in range(2):
            assert first.classify_batch(rng.random((3, 2))).ok
        first.abandon()
        second = ServeEngine.warm_restart(deployed, journal)
        assert second.resumed_requests == 6
        assert read_serve_journal(journal)[1:3] == (5, 6)
        assert second.classify_batch(rng.random((3, 2))).request_id == 6
        second.close()

    @pytest.mark.parametrize("cut", [3, 11, 23])
    def test_torn_fleet_journal_keeps_model_loadable(self, deployed, tmp_path,
                                                     rng, cut):
        journals = tmp_path / "journals"
        journal = journals / "m.journal.jsonl"
        with ModelFleet({"m": deployed}, journal_dir=journals) as fleet:
            for _ in range(4):
                fleet.dispatch("m", rng.random((3, 2)))
            fleet.abandon("m")
            with open(journal, "a") as handle:
                handle.write('{"seq": 4, "n": 3, "status": "ok"}'[:cut])
            for _ in range(2):  # the first dispatch warm-restarts
                assert fleet.dispatch("m", rng.random((3, 2))).ok
            fleet.abandon("m")
            result = fleet.dispatch("m", rng.random((3, 2)))
            assert result.ok and result.request_id == 6
            assert fleet.resumed_requests("m") == 7

    def test_torn_then_valid_line_is_corruption(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_text('{"seq": 0, "n": 1, "status": "ok"}\n'
                           '{"seq": 1, "n"\n'
                           '{"seq": 2, "n": 1, "status": "ok"}\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            read_serve_journal(journal)


class TestQuarantineConcurrency:
    def test_concurrent_quarantines_never_collide(self, tmp_path):
        """5 threads quarantining the same path race on suffix slots; the
        O_EXCL claim must give every file a distinct destination."""
        import threading

        path = tmp_path / "bad.json"
        results: list = [None] * 5
        barrier = threading.Barrier(5)

        def attempt(i: int) -> None:
            barrier.wait()
            results[i] = quarantine_artifact(path, reason=f"t{i}")

        for round_no in range(5):
            path.write_text(f"hostile-{round_no}")
            threads = [threading.Thread(target=attempt, args=(i,))
                       for i in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Exactly one thread wins the os.replace of the single source
            # file; the others either claim-and-release or lose the race,
            # but nobody may clobber a prior quarantine's bytes.
            winners = [r for r in results if r is not None]
            assert len(winners) == 1
            assert not path.exists()
        quarantined = sorted(tmp_path.glob("bad.json.quarantined*"))
        contents = {p.read_text() for p in quarantined}
        assert contents == {f"hostile-{k}" for k in range(5)}

    def test_sequential_quarantines_take_fresh_slots(self, tmp_path):
        path = tmp_path / "bad.json"
        seen = set()
        for k in range(5):
            path.write_text(f"v{k}")
            target = quarantine_artifact(path)
            assert target is not None and target not in seen
            seen.add(target)
        assert {p.read_text() for p in seen} == {f"v{k}" for k in range(5)}
