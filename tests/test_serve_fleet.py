"""Tests for the multi-model serve fleet (repro.serve.fleet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classifier import ConstantClassifier, ThresholdClassifier
from repro.core.points import PointSet
from repro.serve import (
    INVALID,
    UNAVAILABLE,
    ModelArtifact,
    ModelFleet,
    ServeLoadTransient,
    fit_artifact,
    load_artifact,
    save_artifact,
)


@pytest.fixture
def fleet_dir(tmp_path, rng):
    """Three deployed models (alpha/beta/gamma) with distinct fits."""
    directory = tmp_path / "models"
    directory.mkdir()
    for k, name in enumerate(("alpha", "beta", "gamma")):
        coords = rng.random((40, 2))
        labels = (coords.sum(axis=1) > 0.8 + 0.2 * k).astype(int)
        artifact = fit_artifact(PointSet(coords, labels), "passive")
        save_artifact(artifact, directory / f"{name}.json")
    return directory


def _refit(artifact: ModelArtifact, marker: int) -> ModelArtifact:
    """Same classifier, new digest: a canary-agreeing redeploy."""
    return ModelArtifact(
        classifier=artifact.classifier,
        fallback=artifact.fallback,
        fit={**artifact.fit, "refit": marker},
        chains=artifact.chains,
        certificate=artifact.certificate,
    )


class TestFleetDispatch:
    def test_routes_to_named_model(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            assert fleet.models == ["alpha", "beta", "gamma"]
            coords = rng.random((8, 2))
            for name in fleet.models:
                result = fleet.dispatch(name, coords)
                assert result.ok and result.n == 8
            digests = {h.name: h.digest for h in fleet.health()}
            assert len(set(digests.values())) == 3  # one engine per model

    def test_unknown_model_is_an_error(self, fleet_dir):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            with pytest.raises(ValueError, match="unknown model"):
                fleet.dispatch("delta", [(0.5, 0.5)])

    def test_duplicate_registration_rejected(self, fleet_dir):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            with pytest.raises(ValueError, match="already registered"):
                fleet.register("alpha", fleet_dir / "alpha.json")

    def test_classify_single_point(self, fleet_dir):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            result = fleet.classify("alpha", (0.9, 0.9))
            assert result.ok and result.n == 1

    def test_submit_and_drain_per_model_queues(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir, queue_limit=2) as fleet:
            outcomes = [
                fleet.submit("alpha", rng.random((4, 2))) for _ in range(5)
            ]
            shed = [o for o in outcomes if o is not None]
            assert len(shed) == 3
            assert all(s.status == "overloaded" for s in shed)
            # alpha's storm left beta's queue untouched.
            assert fleet.submit("beta", rng.random((4, 2))) is None
            answered = fleet.drain("alpha")
            assert len(answered) == 2 and all(a.ok for a in answered)
            assert len(fleet.drain("beta")) == 1

    def test_validation(self, fleet_dir):
        with pytest.raises(ValueError, match="resident_limit"):
            ModelFleet(resident_limit=0)
        with pytest.raises(ValueError, match="canary_count"):
            ModelFleet(canary_count=0)
        with pytest.raises(ValueError, match="canary_tolerance"):
            ModelFleet(canary_tolerance=1.5)
        with pytest.raises(ValueError, match="watch_min"):
            ModelFleet(watch_min=4, watch_window=2)
        with pytest.raises(ValueError, match="no model artifacts"):
            ModelFleet.from_directory(fleet_dir / "empty")


class TestFleetResidency:
    def test_lru_eviction_bounds_live_engines(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir, resident_limit=2) as fleet:
            coords = rng.random((4, 2))
            fleet.dispatch("alpha", coords)
            fleet.dispatch("beta", coords)
            assert fleet.resident == ["alpha", "beta"]
            fleet.dispatch("gamma", coords)  # alpha is LRU -> evicted
            assert fleet.resident == ["beta", "gamma"]
            fleet.dispatch("beta", coords)  # refresh beta's recency
            fleet.dispatch("alpha", coords)  # cold load; gamma is now LRU
            assert fleet.resident == ["beta", "alpha"]
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].evictions == 1 and rows["alpha"].cold_loads == 2
            assert not rows["gamma"].resident
            # Counters survive eviction.
            assert rows["gamma"].answered == 1

    def test_eviction_closes_journal_and_reload_resumes(
        self, fleet_dir, tmp_path, rng
    ):
        journals = tmp_path / "journals"
        with ModelFleet.from_directory(
            fleet_dir, resident_limit=1, journal_dir=journals
        ) as fleet:
            coords = rng.random((4, 2))
            for _ in range(3):
                fleet.dispatch("alpha", coords)
            fleet.dispatch("beta", coords)  # evicts alpha, journal closed
            assert fleet.resident == ["beta"]
            assert fleet.resumed_requests("alpha") == 3
            result = fleet.dispatch("alpha", coords)  # warm restart
            assert result.ok
            assert result.request_id == 3  # sequence resumed, not restarted

    def test_close_evicts_everything(self, fleet_dir, rng):
        fleet = ModelFleet.from_directory(fleet_dir)
        fleet.dispatch("alpha", rng.random((4, 2)))
        fleet.dispatch("beta", rng.random((4, 2)))
        fleet.close()
        assert fleet.resident == []


class TestFleetBulkheads:
    def test_manual_quarantine_answers_unavailable(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            coords = rng.random((4, 2))
            fleet.dispatch("beta", coords)
            fleet.quarantine_model("beta", reason="operator hold")
            result = fleet.dispatch("beta", coords)
            assert result.status == UNAVAILABLE
            assert result.source == "bulkhead"
            assert result.labels is None and result.degraded
            # Siblings are untouched.
            assert fleet.dispatch("alpha", coords).ok
            rows = {h.name: h for h in fleet.health()}
            assert rows["beta"].state == "quarantined"
            assert not rows["beta"].resident  # quarantine evicts
            fleet.reinstate_model("beta")
            assert fleet.dispatch("beta", coords).ok
            assert fleet.swap_history("beta")[-1]["action"] == "reinstate"

    def test_failing_model_trips_breaker_then_quarantine(
        self, fleet_dir, rng
    ):
        def broken(path):
            raise ValueError("artifact store returns garbage")

        with ModelFleet.from_directory(
            fleet_dir,
            loader=broken,
            fallback=None,
            breaker_threshold=2,
            breaker_cooldown=1,
            quarantine_after_trips=2,
        ) as fleet:
            coords = rng.random((4, 2))
            statuses = [fleet.dispatch("alpha", coords).status for _ in range(12)]
            assert "failed" in statuses
            assert statuses[-1] == UNAVAILABLE
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].state == "quarantined"

    def test_engine_exception_stays_inside_the_bulkhead(self, fleet_dir):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            result = fleet.dispatch("alpha", object())  # unconvertible coords
            assert result.status in ("failed", "invalid", UNAVAILABLE)
            # The fleet survives and siblings still answer.
            assert fleet.dispatch("beta", [(0.5, 0.5)]).ok


    def test_malformed_queries_do_not_quarantine_a_healthy_model(
        self, fleet_dir
    ):
        bad_queries = ([[float("nan"), 0.5]], [[float("inf"), 0.5]],
                       [[0.5, 0.5, 0.5]])
        with ModelFleet.from_directory(fleet_dir) as fleet:
            for bad in bad_queries:
                for _ in range(200):
                    result = fleet.dispatch("alpha", bad)
                    assert result.status == INVALID and result.labels is None
            assert fleet.dispatch("alpha", [(0.5, 0.5)]).ok
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].state == "active"


class TestFleetHotSwap:
    def test_poll_ignores_unchanged_files(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            assert fleet.poll() == []

    def test_canary_agreement_promotes(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir, canary_count=16) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            old = {h.name: h.digest for h in fleet.health()}["alpha"]
            refit = _refit(load_artifact(fleet_dir / "alpha.json"), marker=1)
            save_artifact(refit, fleet_dir / "alpha.json")
            events = fleet.poll()
            assert [e["action"] for e in events] == ["promote"]
            assert events[0]["model"] == "alpha"
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].digest != old
            assert rows["alpha"].promotions == 1 and rows["alpha"].watching
            # Surviving the watch window accepts the candidate.
            for _ in range(fleet.watch_window):
                assert fleet.dispatch("alpha", rng.random((4, 2))).ok
            rows = {h.name: h for h in fleet.health()}
            assert not rows["alpha"].watching
            assert fleet.swap_history("alpha")[-1]["action"] == "accept"

    def test_canary_disagreement_rejects_and_repins(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir, canary_count=16) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            incumbent = load_artifact(fleet_dir / "alpha.json")
            hostile = ModelArtifact(
                classifier=ConstantClassifier(1),
                fit={"mode": "manual", "dim": 2},
            )
            save_artifact(hostile, fleet_dir / "alpha.json")
            events = fleet.poll()
            assert [e["action"] for e in events] == ["reject"]
            assert "canary" in events[0]["reason"]
            # The hostile bytes are preserved for forensics...
            assert list(fleet_dir.glob("alpha.json.quarantined*"))
            # ...and the incumbent re-pinned on disk, still serving.
            assert load_artifact(fleet_dir / "alpha.json").digest == incumbent.digest
            assert fleet.dispatch("alpha", rng.random((4, 2))).ok
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].rejected_swaps == 1
            assert rows["alpha"].digest == incumbent.digest

    def test_dim_mismatch_rejects(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            wrong_shape = ModelArtifact(
                classifier=ThresholdClassifier(0.5, dim=0),
                fit={"mode": "manual", "dim": 3},
            )
            save_artifact(wrong_shape, fleet_dir / "alpha.json")
            (event,) = fleet.poll()
            assert event["action"] == "reject"
            assert "dim 3" in event["reason"]

    def test_corrupt_candidate_rejects_and_repins(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            incumbent = load_artifact(fleet_dir / "alpha.json")
            (fleet_dir / "alpha.json").write_text('{"definitely": "not a model"}')
            (event,) = fleet.poll()
            assert event["action"] == "reject"
            assert "verification" in event["reason"]
            assert list(fleet_dir.glob("alpha.json.quarantined*"))
            assert load_artifact(fleet_dir / "alpha.json").digest == incumbent.digest
            assert fleet.dispatch("alpha", rng.random((4, 2))).ok

    def test_transient_store_trouble_retries_next_poll(self, fleet_dir, rng):
        calls = {"fail": True}
        real = load_artifact

        def flaky(path):
            if calls["fail"]:
                raise ServeLoadTransient("slow volume")
            return real(path)

        with ModelFleet.from_directory(fleet_dir, loader=flaky) as fleet:
            calls["fail"] = False
            fleet.dispatch("alpha", rng.random((4, 2)))
            refit = _refit(load_artifact(fleet_dir / "alpha.json"), marker=2)
            save_artifact(refit, fleet_dir / "alpha.json")
            calls["fail"] = True
            assert fleet.poll() == []  # transient: no reject, no quarantine
            assert not list(fleet_dir.glob("alpha.json.quarantined*"))
            calls["fail"] = False
            (event,) = fleet.poll()  # fingerprint stayed stale -> retried
            assert event["action"] == "promote"

    def test_cold_load_never_serves_unvetted_bytes(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            coords = rng.random((4, 2))
            fleet.dispatch("alpha", coords)
            incumbent = load_artifact(fleet_dir / "alpha.json")
            fleet.evict("alpha")
            # New bytes land while the engine is cold; nobody canaried them.
            hostile = ModelArtifact(
                classifier=ConstantClassifier(1),
                fit={"mode": "manual", "dim": 2},
            )
            save_artifact(hostile, fleet_dir / "alpha.json")
            result = fleet.dispatch("alpha", coords)  # cold load
            assert result.ok
            rows = {h.name: h for h in fleet.health()}
            # The vetted incumbent serves from memory, not the new file.
            assert rows["alpha"].digest == incumbent.digest
            # The deploy file is left for poll to judge (and reject).
            (event,) = fleet.poll()
            assert event["action"] == "reject"

    def test_spike_rollback_repins_incumbent(self, fleet_dir, rng):
        storm = {"on": False}
        real = load_artifact

        def browning_out(path):
            if storm["on"]:
                raise ServeLoadTransient("store brownout")
            return real(path)

        with ModelFleet.from_directory(
            fleet_dir,
            loader=browning_out,
            watch_min=3,
            watch_window=16,
            watch_threshold=0.5,
            canary_count=8,
        ) as fleet:
            coords = rng.random((4, 2))
            fleet.dispatch("alpha", coords)
            incumbent = load_artifact(fleet_dir / "alpha.json")
            refit = _refit(incumbent, marker=3)
            save_artifact(refit, fleet_dir / "alpha.json")
            (event,) = fleet.poll()
            assert event["action"] == "promote"
            # Post-promotion the artifact store browns out and the engine
            # is lost: dispatches degrade, the watch spikes, and the
            # promotion is rolled back.
            storm["on"] = True
            fleet.abandon("alpha")
            for _ in range(4):
                fleet.dispatch("alpha", coords)
            rows = {h.name: h for h in fleet.health()}
            assert rows["alpha"].rollbacks == 1
            assert not rows["alpha"].watching
            assert fleet.swap_history("alpha")[-1]["action"] == "rollback"
            # Rollback re-pinned the incumbent in memory AND on disk.
            assert rows["alpha"].digest == incumbent.digest
            storm["on"] = False
            assert load_artifact(fleet_dir / "alpha.json").digest == incumbent.digest
            # The rejected candidate was quarantined for forensics.
            assert list(fleet_dir.glob("alpha.json.quarantined*"))
            assert fleet.dispatch("alpha", coords).ok


class TestFleetHealthAndMetrics:
    def test_health_rows_cover_every_model(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir) as fleet:
            fleet.dispatch("beta", rng.random((4, 2)))
            rows = fleet.health()
            assert [h.name for h in rows] == ["alpha", "beta", "gamma"]
            by_name = {h.name: h for h in rows}
            assert by_name["beta"].resident and by_name["beta"].verified
            assert by_name["beta"].source == "primary"
            assert by_name["alpha"].source == "cold"
            flat = by_name["beta"].row()
            assert flat["model"] == "beta" and flat["answered"] == 1
            assert len(flat["digest"]) == 12

    def test_fleet_metrics_flow_through_obs(self, fleet_dir, rng):
        from repro import obs

        registry = obs.MetricsRegistry("fleet-test")
        with obs.metrics_session(registry):
            with ModelFleet.from_directory(fleet_dir, resident_limit=1) as fleet:
                coords = rng.random((4, 2))
                fleet.dispatch("alpha", coords)
                fleet.dispatch("beta", coords)  # evicts alpha
                fleet.quarantine_model("beta")
                fleet.dispatch("beta", coords)  # unavailable
                fleet.poll()
        counters = registry.counters
        assert counters["serve.fleet.dispatches"].value == 3
        assert counters["serve.fleet.cold_loads"].value == 2
        assert counters["serve.fleet.evictions"].value >= 2
        assert counters["serve.fleet.unavailable"].value == 1
        assert counters["serve.fleet.unavailable.quarantined"].value == 1
        assert counters["serve.fleet.quarantined_models"].value == 1
        assert counters["serve.fleet.polls"].value == 1

    def test_swap_spans_carry_outcome_and_reason(self, fleet_dir, rng):
        from repro import obs

        original = (fleet_dir / "alpha.json").read_bytes()
        with obs.metrics_session(name="swap", trace=True) as reg:
            with ModelFleet.from_directory(fleet_dir, canary_count=16) as fleet:
                fleet.dispatch("alpha", rng.random((4, 2)))
                hostile = ModelArtifact(
                    classifier=ConstantClassifier(1),
                    fit={"mode": "manual", "dim": 2},
                )
                save_artifact(hostile, fleet_dir / "alpha.json")
                fleet.poll()
                # The re-pinned incumbent is its verified bytes, unchanged.
                assert (fleet_dir / "alpha.json").read_bytes() == original
                refit = _refit(load_artifact(fleet_dir / "alpha.json"), 1)
                save_artifact(refit, fleet_dir / "alpha.json")
                fleet.poll()
        spans = [e["args"] for e in reg.trace_events
                 if e["name"] == "serve.swap"]
        assert [a["outcome"] for a in spans] == ["reject", "promote"]
        assert all(a["model"] == "alpha" for a in spans)
        assert spans[0]["reason"].startswith("canary:")
        assert "reason" not in spans[1]

    def test_repr(self, fleet_dir, rng):
        with ModelFleet.from_directory(fleet_dir, resident_limit=2) as fleet:
            fleet.dispatch("alpha", rng.random((4, 2)))
            assert repr(fleet) == "ModelFleet(models=3, resident=1/2)"


@pytest.fixture
def fleet_3d(tmp_path):
    """Two deployed 3-D models with a few dozen anchors each."""
    from repro.datasets.synthetic import planted_monotone

    directory = tmp_path / "models3d"
    directory.mkdir()
    for k, name in enumerate(("alpha", "beta")):
        points = planted_monotone(400, 3, noise=0.1,
                                  rng=np.random.default_rng([23, k]))
        save_artifact(fit_artifact(points, "passive"),
                      directory / f"{name}.json")
    return directory


class TestSingleRequestPath:
    """A single-point request answers exactly like the same row in a batch."""

    def test_single_dispatch_matches_batch(self, fleet_3d):
        coords = np.random.default_rng(5).random((512, 3))
        coords[::7] = np.round(coords[::7], 1)  # ties with grid anchors
        with ModelFleet.from_directory(fleet_3d) as fleet:
            for name in fleet.models:
                batch = fleet.dispatch(name, coords)
                assert batch.ok and batch.labels.dtype == np.int8
                assert 0 < batch.labels.sum() < len(coords)
                for i in range(len(coords)):
                    alone = fleet.dispatch(name, coords[i:i + 1])
                    assert alone.ok and alone.labels.tolist() == [batch.labels[i]]
                for i in range(0, len(coords), 37):
                    row = [tuple(coords[i])]
                    assert fleet.dispatch(name, row).label == batch.labels[i]
                    assert fleet.classify(name, coords[i]).label == batch.labels[i]

    def test_queued_requests_keep_deadlines_and_labels(self, fleet_3d):
        now = {"t": 0.0}
        coords = np.random.default_rng(6).random((64, 3))
        with ModelFleet.from_directory(fleet_3d, clock=lambda: now["t"],
                                       queue_limit=8) as fleet:
            want = fleet.dispatch("alpha", coords).labels
            assert fleet.submit("alpha", coords[:32], deadline=1.0) is None
            assert fleet.submit("alpha", coords[32:], deadline=100.0) is None
            assert fleet.submit("alpha", coords[:1]) is None
            now["t"] = 5.0  # the first request is now stale
            expired, fresh, single = fleet.drain("alpha")
            assert expired.status == "deadline_exceeded" and expired.labels is None
            assert fresh.ok and np.array_equal(fresh.labels, want[32:])
            assert single.ok and single.labels.tolist() == [want[0]]
            assert expired.request_id < fresh.request_id < single.request_id

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, np.nan, 0.5]]),  # a NaN row
        np.array([[0.5, 0.5]]),  # wrong d
        [[0.5, 0.5, 0.5], [0.5, 0.5]],  # ragged
    ], ids=["nan", "wrong-d", "ragged"])
    def test_invalid_feeds_neither_breaker_nor_watch(self, fleet_3d, bad):
        coords = np.random.default_rng(7).random((4, 3))
        with ModelFleet.from_directory(fleet_3d, breaker_threshold=2,
                                       canary_count=8) as fleet:
            fleet.dispatch("alpha", coords)
            refit = _refit(load_artifact(fleet_3d / "alpha.json"), marker=1)
            save_artifact(refit, fleet_3d / "alpha.json")
            assert [e["action"] for e in fleet.poll()] == ["promote"]
            # The watch counts valid answers only: window - 1 of them plus
            # any number of invalid ones leave it open.
            for _ in range(fleet.watch_window - 1):
                assert fleet.dispatch("alpha", coords).ok
            for _ in range(3 * fleet.watch_window):
                result = fleet.dispatch("alpha", bad)
                assert result.status == INVALID and result.labels is None
            assert {h.name: h for h in fleet.health()}["alpha"].watching
            # A success would reset the breaker's failure run; an invalid
            # request must not, so one failure + invalid + one failure trips.
            breaker = fleet._slots["alpha"].breaker
            breaker.record_failure()
            assert fleet.dispatch("alpha", bad).status == INVALID
            breaker.record_failure()
            assert breaker.state == "open"
