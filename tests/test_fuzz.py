"""Tests for the differential fuzzing subsystem (repro.fuzz).

The centerpiece is the mutation self-test: a fuzzer that has never caught
a bug proves nothing, so we point the campaign at a deliberately broken
solver and assert the whole detect → shrink → archive → replay loop
closes (ISSUE acceptance: disagreement found, reproducer shrunk to a
handful of points, corpus round-trips deterministically).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro import PointSet
from repro.fuzz import (
    ALL_PASSIVE_CONFIGS,
    FAMILIES,
    apply_mutant,
    check_poset_structure,
    fuzz_io_roundtrip,
    generate,
    iter_corpus,
    load_reproducer,
    mutate_bytes,
    replay_corpus,
    run_flow_differential,
    run_fuzz,
    run_passive_differential,
    save_reproducer,
    shrink_instance,
)
from repro.fuzz.runner import IO_FAMILY

from tests.strategies import flow_networks, point_sets

CORPUS_DIR = Path(__file__).parent / "corpus"


class TestGenerators:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_produces_valid_instances(self, family, rng):
        points = generate(family, rng, 32)
        assert isinstance(points, PointSet)
        assert 1 <= points.n <= 64
        assert np.isfinite(points.coords).all()
        assert set(np.unique(points.labels)) <= {0, 1}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_are_deterministic(self, family):
        a = generate(family, np.random.default_rng(7), 24)
        b = generate(family, np.random.default_rng(7), 24)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_unknown_family_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown"):
            generate("no_such_family", rng, 8)

    def test_mutate_bytes_deterministic(self):
        text = "a,b,c\n1,2,3\n"
        a = mutate_bytes(text, np.random.default_rng(5), mutations=3)
        b = mutate_bytes(text, np.random.default_rng(5), mutations=3)
        assert isinstance(a, bytes) and a == b


class TestPassiveDifferential:
    def test_clean_on_healthy_instances(self, tiny_2d, monotone_2d):
        assert run_passive_differential(tiny_2d) == []
        assert run_passive_differential(monotone_2d) == []

    def test_uniform_rejection_is_not_a_finding(self):
        # Ill-conditioned weights: every configuration raises the same
        # clean ValueError — the validation boundary working as designed.
        points = PointSet([(0.1,), (0.8,)], [1, 0], [1e-4, 1e11])
        assert run_passive_differential(points) == []
        with pytest.raises(ValueError, match="rescale"):
            from repro import solve_passive

            solve_passive(points)

    @settings(max_examples=20, deadline=None)
    @given(point_sets(max_n=10))
    def test_grid_agrees_with_brute_force_on_random_sets(self, points):
        # n <= 10 keeps the exponential oracle in the loop for every case.
        assert run_passive_differential(points) == []


class TestFlowDifferential:
    @settings(max_examples=25, deadline=None)
    @given(flow_networks())
    def test_backends_agree_and_flows_are_feasible(self, case):
        network, source, sink = case
        assert run_flow_differential(network, source, sink) == []

    def test_flags_dinic_flows_that_differ_from_reference(self, monkeypatch):
        """A production Dinic with the right value but different per-arc
        flows than loop Dinic is a finding."""
        from repro.experiments.flow_backends import random_flow_network
        from repro.flow import FLOW_BACKENDS, push_relabel_array_max_flow

        monkeypatch.setitem(FLOW_BACKENDS, "dinic", push_relabel_array_max_flow)
        findings = run_flow_differential(random_flow_network(30, 0.3, 0), 0, 29)
        assert [f.config for f in findings] == ["loop_dinic vs dinic"]
        assert "bit-identical" in findings[0].detail


class TestStructureCheck:
    def test_clean_reduction_passes(self, tiny_2d):
        assert check_poset_structure(tiny_2d) == []

    def test_catches_uint8_overflow_on_long_chain(self):
        # The historical mod-256 bug needs >= 258 comparable points: the
        # (top, bottom) pair of a 258-chain has 256 points strictly
        # between, which a uint8 counter wraps to zero.
        n = 258
        chain = PointSet(np.arange(n, dtype=float).reshape(-1, 1),
                         np.zeros(n, dtype=int))
        assert check_poset_structure(chain) == []
        with apply_mutant("hasse_uint8_overflow"):
            findings = check_poset_structure(chain)
        assert findings and findings[0].kind == "structure"
        assert "non-covering" in findings[0].detail

    def test_catches_matching_last_free(self, rng):
        # A maximum matching that differs from the reference's: sizes,
        # chain counts and widths all still agree, so only the
        # vertex-for-vertex comparison can flag it.
        points = PointSet(rng.random((40, 2)), rng.integers(0, 2, size=40))
        assert check_poset_structure(points) == []
        with apply_mutant("matching_last_free"):
            findings = check_poset_structure(points)
        assert [f.config for f in findings] == ["hopcroft_karp_bitset"]
        assert "loop Hopcroft-Karp" in findings[0].detail

    def test_catches_corrupted_konig_extraction(self, monkeypatch):
        """The König check runs the production (bitset) extraction: an
        antichain of the right size holding a comparable pair is flagged."""
        from repro.poset import width

        # (1,1), (2,0), (0,2) are pairwise incomparable; (0,0) lies below all.
        points = PointSet([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0)],
                          [0, 0, 0, 0])
        assert check_poset_structure(points) == []
        original = width._bitset_antichain

        def corrupted(pts):
            antichain, size = original(pts)
            assert antichain == [1, 2, 3]
            return [0, 2, 3], size  # same size, but 0 is below 2 and 3

        monkeypatch.setattr(width, "_bitset_antichain", corrupted)
        findings = check_poset_structure(points)
        assert [f.config for f in findings] == [
            "matching_chain_decomposition", "patience_chain_decomposition"]
        assert all("König antichain" in f.detail for f in findings)

    def test_catches_strict_patience_peel(self):
        # Duplicates tie with the running maximum: a strict peel splits
        # them into separate chains, so the decomposition is no longer
        # first fit's and has more chains than the width.
        points = PointSet([(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0)],
                          [0, 0, 1, 1])
        assert check_poset_structure(points) == []
        with apply_mutant("patience_peel_strict"):
            findings = check_poset_structure(points)
        assert [f.config for f in findings] == [
            "patience_chain_decomposition"] * 2
        assert "first fit without peeling" in findings[0].detail
        assert "König antichain of 1 point(s)" in findings[1].detail

    def test_mutants_restore_on_exit(self):
        from repro.core import classifier, pairwise, passive
        from repro.flow import array
        from repro.poset import bitset, chains, sparse

        original_peel = chains._peel_mask
        original_prune = array._sink_reaching
        original_reverse = array._reverse_adjacency
        original_dominance = classifier.pairwise_weak_dominance
        original_box = pairwise._box_candidates
        original_red = sparse.transitive_reduction
        original_inf = passive._effective_infinity
        original_greedy = bitset._greedy_first_phase
        original_pairs = passive.blocked_dominance_pair_arrays
        original_accept = passive._accept
        with apply_mutant("hasse_uint8_overflow"):
            assert sparse.transitive_reduction is not original_red
        with apply_mutant("capacity_plus_one"):
            assert passive._effective_infinity is not original_inf
        with apply_mutant("matching_last_free"):
            assert bitset._greedy_first_phase is not original_greedy
        with apply_mutant("duplicate_edges_dropped"):
            assert passive.blocked_dominance_pair_arrays is not original_pairs
        with apply_mutant("edge_box_strict"):
            assert pairwise._box_candidates is not original_box
            assert passive.blocked_dominance_pair_arrays is original_pairs
        with apply_mutant("classify_strict_ties"):
            assert classifier.pairwise_weak_dominance is not original_dominance
            assert passive.blocked_dominance_pair_arrays is original_pairs
        with apply_mutant("dinic_prune_off_by_one"):
            assert array._sink_reaching is not original_prune
            assert pairwise._box_candidates is original_box
        with apply_mutant("dinic_reverse_arc_dropped"):
            assert array._reverse_adjacency is not original_reverse
            assert array._sink_reaching is original_prune
        with apply_mutant("patience_peel_strict"):
            assert chains._peel_mask is not original_peel
            assert bitset._greedy_first_phase is original_greedy
        with apply_mutant("preflow_over_accept"):
            assert passive._accept is not original_accept
            assert array._sink_reaching is original_prune
        assert passive._accept is original_accept
        assert chains._peel_mask is original_peel
        assert sparse.transitive_reduction is original_red
        assert passive._effective_infinity is original_inf
        assert bitset._greedy_first_phase is original_greedy
        assert passive.blocked_dominance_pair_arrays is original_pairs
        assert classifier.pairwise_weak_dominance is original_dominance
        assert pairwise._box_candidates is original_box
        assert array._sink_reaching is original_prune
        assert array._reverse_adjacency is original_reverse

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            with apply_mutant("nope"):
                pass


class TestShrink:
    def test_shrinks_to_single_required_point(self, rng):
        coords = rng.random((40, 2))
        coords[17] = (100.0, 100.0)
        points = PointSet(coords, rng.integers(0, 2, size=40))

        def has_beacon(candidate: PointSet) -> bool:
            return bool((candidate.coords == 100.0).any())

        shrunk, evaluations = shrink_instance(points, has_beacon)
        assert shrunk.n == 1
        assert float(shrunk.coords[0, 0]) == 100.0
        assert evaluations > 0

    def test_requires_failing_original(self, tiny_2d):
        with pytest.raises(ValueError, match="predicate does not hold"):
            shrink_instance(tiny_2d, lambda candidate: False)

    def test_is_deterministic(self, rng):
        coords = rng.random((30, 2))
        points = PointSet(coords, rng.integers(0, 2, size=30))

        def pair(candidate: PointSet) -> bool:
            return candidate.n >= 2 and bool(
                (candidate.coords[:, 0] > 0.5).any()
                and (candidate.coords[:, 0] < 0.5).any())

        first, _ = shrink_instance(points, pair)
        second, _ = shrink_instance(points, pair)
        np.testing.assert_array_equal(first.coords, second.coords)


class TestCorpus:
    def test_save_is_idempotent_and_loads_back(self, tiny_2d, tmp_path):
        a = save_reproducer(tmp_path, tiny_2d, family="chain", seed=1,
                            findings=[])
        b = save_reproducer(tmp_path, tiny_2d, family="chain", seed=1,
                            findings=[])
        assert a == b and a.exists()
        loaded, meta = load_reproducer(a)
        np.testing.assert_array_equal(loaded.coords, tiny_2d.coords)
        np.testing.assert_array_equal(loaded.labels, tiny_2d.labels)
        np.testing.assert_array_equal(loaded.weights, tiny_2d.weights)
        assert meta["family"] == "chain" and meta["seed"] == 1

    def test_malformed_entries_rejected(self, tmp_path):
        bad = tmp_path / "repro-x-000000000000.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_reproducer(bad)
        bad.write_text(json.dumps({"schema": 999, "points": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_reproducer(bad)
        bad.write_text(json.dumps({"no": "points"}))
        with pytest.raises(ValueError, match="points"):
            load_reproducer(bad)

    def test_seed_corpus_exists_and_replays_clean(self):
        # tier-1 regression gate: every archived bug must stay fixed.
        entries = list(iter_corpus(CORPUS_DIR))
        assert entries, f"seed corpus missing under {CORPUS_DIR}"
        failures = replay_corpus(CORPUS_DIR)
        assert failures == [], (
            "corpus entries disagree again: "
            + "; ".join(f"{path.name}: {[str(f) for f in fs]}"
                        for path, fs in failures))


class TestMutantSelfTest:
    """ISSUE acceptance: the fuzzer must catch a deliberately broken solver."""

    def test_detect_shrink_archive_replay_loop(self, tmp_path):
        corpus = tmp_path / "corpus"
        report = run_fuzz(runs=4, seed=3, families=["duplicates"], size=24,
                          corpus_dir=str(corpus),
                          mutant="duplicate_edges_dropped")
        assert not report.ok, "mutant was not detected"
        assert report.reproducers, "no reproducer archived"

        for path in report.reproducers:
            shrunk, meta = load_reproducer(path)
            assert shrunk.n <= 12, f"{path}: shrunk to {shrunk.n} points"
            assert meta["mutant"] == "duplicate_edges_dropped"
            # Round-trip determinism: re-saving the loaded instance lands
            # on the identical file (content digest unchanged).
            again = save_reproducer(corpus, shrunk, family=meta["family"],
                                    seed=meta["seed"],
                                    findings=meta["findings"],
                                    mutant=meta["mutant"])
            assert str(again) == path

        # With the mutant gone the archived instances must agree again.
        assert replay_corpus(corpus) == []

    def test_reproducer_still_fails_under_mutant(self, tmp_path):
        corpus = tmp_path / "corpus"
        report = run_fuzz(runs=4, seed=3, families=["duplicates"], size=24,
                          corpus_dir=str(corpus),
                          mutant="duplicate_edges_dropped")
        assert report.reproducers
        points, _meta = load_reproducer(report.reproducers[0])
        with apply_mutant("duplicate_edges_dropped"):
            assert run_passive_differential(
                points, configs=ALL_PASSIVE_CONFIGS), \
                "shrunk reproducer no longer triggers the mutant"


    def test_classify_kernel_mutant_is_detected(self):
        # Only the served classifier's dominance test is broken; the
        # certificate audit's extension-agreement check must catch it.
        report = run_fuzz(runs=2, seed=3, families=["duplicates"], size=16,
                          mutant="classify_strict_ties", shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any("classifier extension agrees with assignment" in d.detail
                   for _family, _run, d in report.findings)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_classify_mutant_reaches_the_served_kernel(self, dim):
        # The mutant rebinds a module-level name; classify_matrix must
        # call through it, or the served path escapes the mutation test.
        from repro import UpsetClassifier

        anchor = np.arange(1.0, dim + 1.0)
        h = UpsetClassifier([anchor])
        tied = (anchor + np.r_[np.ones(dim - 1), 0.0])[None, :]
        above = (anchor + 1.0)[None, :]
        assert h.classify_matrix(tied).tolist() == [1]
        with apply_mutant("classify_strict_ties"):
            assert h.classify_matrix(tied).tolist() == [0]
            assert h.classify_matrix(above).tolist() == [1]
        assert h.classify_matrix(tied).tolist() == [1]

    def test_edge_prune_mutant_is_detected(self):
        # A strict box prefilter drops every pair tied with its block's
        # maximum; the duplicates family's Lemma 16 check must catch it.
        report = run_fuzz(runs=8, seed=3, families=["duplicates"], size=24,
                          mutant="edge_box_strict", shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any("Lemma 16" in d.detail
                   for _family, _run, d in report.findings)

    def test_patience_peel_mutant_is_detected(self):
        # A strict peel splits duplicates off the first chain; the
        # structure check's first-fit comparison must catch it.
        report = run_fuzz(runs=8, seed=3, families=["duplicates"], size=24,
                          mutant="patience_peel_strict", shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any("first fit without peeling" in d.detail
                   for _family, _run, d in report.findings)

    def test_level_prune_mutant_is_detected(self):
        # A prune that wrongly kills one vertex per layer can end a Dinic
        # phase with no path while the sink is still reachable; the cut
        # extraction's maximality check must catch the short flow.
        report = run_fuzz(runs=8, seed=3, families=["duplicates"], size=24,
                          mutant="dinic_prune_off_by_one", shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any("flow is not maximum" in d.detail
                   for _family, _run, d in report.findings)

    def test_reverse_arc_mutant_is_detected(self):
        # Dinic runs to the end with one flow-carrying reverse arc missing
        # from its BFS, so the reached set it hands over is not closed;
        # the cut readout's closure check must reject it.
        report = run_fuzz(runs=8, seed=3, mutant="dinic_reverse_arc_dropped",
                          shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any("flow is not maximum" in d.detail
                   for _family, _run, d in report.findings)

    def test_reverse_arc_mutant_escapes_the_engine(self):
        # The flow 0 -> 2 -> 3 -> 1 saturates 0 -> 2, so 2 (and 4 past
        # it) is reachable only back across 2 -> 3, the last edge carrying
        # flow.  Without that reverse arc the engine ends without error on
        # the reached set {0, 3}; only the readout's closure check can
        # tell.
        from repro.flow import FlowNetwork, min_cut_from_residual
        from repro.flow.array import dinic_array_solve

        net = FlowNetwork(5)
        net.add_edge(0, 3, 2.0)
        into_two = net.add_edge(0, 2, 1.0)
        into_sink = net.add_edge(3, 1, 1.0)
        across = net.add_edge(2, 3, 5.0)
        net.add_edge(2, 4, 1.0)
        for arc in (into_two, across, into_sink):
            net.push(arc, 1.0)
        with apply_mutant("dinic_reverse_arc_dropped"):
            value, reached = dinic_array_solve(net, 0, 1)
        assert value == 1.0
        assert np.flatnonzero(reached).tolist() == [0, 3]
        with pytest.raises(AssertionError, match="flow is not maximum"):
            min_cut_from_residual(net, 0, 1, value, reached)

    def test_preflow_over_accept_mutant_is_detected(self):
        # Targets that take every offer in full break conservation in the
        # seed; the passive differential's preflow check must catch it.
        report = run_fuzz(runs=8, seed=3, mutant="preflow_over_accept",
                          shrink=False)
        assert not report.ok, "mutant was not detected"
        assert any(d.config == "greedy_preflow" and "infeasible" in d.detail
                   for _family, _run, d in report.findings)


class TestIOFuzz:
    def test_loader_boundary_survives_mutations(self, tiny_2d, rng):
        tried, violations = fuzz_io_roundtrip(tiny_2d, rng,
                                              mutations_per_text=16)
        assert tried == 32
        assert violations == []


class TestRunner:
    def test_small_clean_campaign(self, tmp_path):
        report = run_fuzz(runs=9, seed=11, size=16,
                          corpus_dir=str(tmp_path / "corpus"))
        assert report.ok and report.runs == 9
        assert set(report.instances_by_family) <= set(FAMILIES) | {IO_FAMILY}
        assert report.reproducers == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="runs"):
            run_fuzz(runs=-1)
        with pytest.raises(ValueError, match="unknown fuzz family"):
            run_fuzz(runs=1, families=["nope"])

    def test_time_budget_truncates_deterministically(self):
        full = run_fuzz(runs=6, seed=2, families=["random"], size=12)
        truncated = run_fuzz(runs=6, seed=2, families=["random"], size=12,
                             time_budget=0.0)
        assert truncated.truncated_by_budget
        assert truncated.runs < full.runs
