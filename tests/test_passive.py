"""Tests for the Theorem 4 min-cut passive solver (repro.core.passive)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PointSet,
    brute_force_passive,
    is_monotone_assignment,
    solve_passive,
    solve_passive_1d,
    weighted_error,
)
from repro.core import classifier as classifier_module
from repro.core import passive as passive_module
from repro.core.pairwise import DEFAULT_BLOCK_SIZE
from repro.core.passive import (
    SINK,
    SOURCE,
    contending_mask,
    greedy_preflow,
    passive_network,
)
from repro.datasets.synthetic import planted_monotone
from repro.flow import (
    RESIDUAL_EPS,
    MinCut,
    dinic_max_flow,
    min_cut_from_residual,
    solve_min_cut,
)

from .conftest import FLOW_ENGINES


class TestContendingMask:
    def test_monotone_labeling_has_no_contenders(self, monotone_2d):
        assert not contending_mask(monotone_2d).any()

    def test_conflicting_pair(self):
        ps = PointSet([(0.0, 0.0), (1.0, 1.0)], [1, 0])
        assert contending_mask(ps).all()

    def test_duplicates_with_opposite_labels_contend(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0)], [0, 1])
        assert contending_mask(ps).all()

    def test_figure2a_exact_sets(self):
        from repro.datasets.figures import FIGURE1_CONTENDING, figure1_point_set

        ps = figure1_point_set()
        mask = contending_mask(ps)
        for label in (0, 1):
            got = sorted(f"p{i + 1}"
                         for i in np.flatnonzero(mask & (ps.labels == label)))
            assert got == sorted(FIGURE1_CONTENDING[label])

    def test_empty(self):
        assert contending_mask(PointSet.from_points([])).shape == (0,)


class TestSolvePassive:
    def test_tiny_example(self, tiny_2d):
        result = solve_passive(tiny_2d)
        assert result.optimal_error == 1.0
        assert is_monotone_assignment(tiny_2d, result.assignment)
        assert weighted_error(tiny_2d, result.classifier) == 1.0

    def test_monotone_input_zero_error(self, monotone_2d):
        result = solve_passive(monotone_2d)
        assert result.optimal_error == 0.0
        assert list(result.assignment) == list(monotone_2d.labels)

    def test_empty_input(self):
        result = solve_passive(PointSet.from_points([]))
        assert result.optimal_error == 0.0

    def test_classifier_extends_beyond_input(self, tiny_2d):
        result = solve_passive(tiny_2d)
        # Any point dominating everything must be classified like the top.
        top = result.classifier.classify((10.0, 10.0))
        assert top == result.assignment[3]

    def test_figure1_unweighted(self):
        from repro.datasets.figures import figure1_point_set

        assert solve_passive(figure1_point_set()).optimal_error == 3.0

    def test_figure1_weighted(self):
        from repro.datasets.figures import figure1_weighted_point_set

        result = solve_passive(figure1_weighted_point_set())
        assert result.optimal_error == 104.0
        assert result.flow_value == pytest.approx(104.0)

    def test_without_contending_reduction_same_answer(self, rng):
        ps = planted_monotone(120, 2, noise=0.2, rng=2, weights="random")
        a = solve_passive(ps, use_contending_reduction=True)
        b = solve_passive(ps, use_contending_reduction=False)
        assert a.optimal_error == pytest.approx(b.optimal_error)
        assert a.num_contending <= b.num_contending

    def test_agrees_with_1d_exact(self, rng):
        values = rng.random((200, 1))
        labels = (values[:, 0] > 0.5).astype(int)
        flips = rng.random(200) < 0.3
        labels = np.where(flips, 1 - labels, labels)
        weights = rng.random(200) + 0.1
        ps = PointSet(values, labels, weights)
        assert solve_passive(ps).optimal_error == \
            pytest.approx(solve_passive_1d(ps).optimal_error)

    def test_heavy_weights_steer_the_cut(self):
        # A label-1 point below a label-0 point: flip whichever is lighter.
        ps = PointSet([(0.0,), (1.0,)], [1, 0], [10.0, 1.0])
        result = solve_passive(ps)
        assert result.optimal_error == 1.0
        assert list(result.assignment) == [1, 1]
        ps2 = PointSet([(0.0,), (1.0,)], [1, 0], [1.0, 10.0])
        result2 = solve_passive(ps2)
        assert result2.optimal_error == 1.0
        assert list(result2.assignment) == [0, 0]

    def test_requires_labels(self, tiny_2d):
        with pytest.raises(ValueError):
            solve_passive(tiny_2d.with_hidden_labels())

    @pytest.mark.parametrize("inf", [-np.inf, np.inf])
    def test_infinite_coordinate_only_on_points_assigned_zero(self, inf):
        """A ``±inf`` point the fit assigns 0 is accepted; one it assigns 1
        fails the classifier build's finiteness check."""
        coords = [[inf, 0.0, 0.0], [1.0, 1.0, 1.0]]
        ok = solve_passive(PointSet(coords, [0, 1], validate=False))
        assert list(ok.assignment) == [0, 1]
        assert ok.optimal_error == 0.0
        with pytest.raises(ValueError,
                           match="coordinates must be finite real numbers"):
            solve_passive(PointSet(coords, [1, 0], validate=False))

    @pytest.mark.parametrize("weight", [None, 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_non_monotone_cut_trips_lemma16(self, monkeypatch, dim, weight):
        """Both verifies (the d <= 2 sweep and the d >= 3 classifier
        replay) catch a cut that keeps both labels, with unit (``None``)
        or explicit non-uniform weights."""
        # Label-1 point 0 lies below label-0 point 1 (vertices 2 and 3).
        weights = None if weight is None else [weight, 2.0]
        ps = PointSet([(0.0,) * dim, (1.0,) * dim], [1, 0], weights)
        monkeypatch.setattr(passive_module, "solve_min_cut",
                            lambda *args, **kwargs: MinCut(0.0, {0, 3}, []))
        with pytest.raises(AssertionError, match="Lemma 16"):
            solve_passive(ps)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_opposing_duplicates(self, dim):
        """Equal coordinate vectors with labels (0, 1) must cost one flip:
        the streamed edge builder keeps the pair's infinite edge."""
        ps = PointSet([(1.0,) * dim, (1.0,) * dim], [0, 1], [3.0, 5.0])
        result = solve_passive(ps)
        assert result.optimal_error == pytest.approx(3.0)
        assert list(result.assignment) == [1, 1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rejects_nan_coordinates(self, dim):
        """NaN reaches solve_passive only through PointSet(validate=False);
        it is rejected up front, naming the first bad point, at every d."""
        gen = np.random.default_rng(dim)
        coords = gen.integers(0, 3, size=(8, dim)).astype(float)
        coords[5, dim - 1] = np.nan
        coords[6, 0] = np.nan
        ps = PointSet(coords, [0, 1] * 4, validate=False)
        with pytest.raises(ValueError, match="point 5 has a NaN coordinate"):
            solve_passive(ps)

    def test_straddles_default_block_size(self):
        """n = 2049 = DEFAULT_BLOCK_SIZE + 1, d = 3: the streamed path
        must match the dense contending mask and monotonicity check."""
        ps = planted_monotone(2049, 3, noise=0.1, rng=2049, weights="random")
        assert ps.n == DEFAULT_BLOCK_SIZE + 1
        result = solve_passive(ps)
        assert 0 < result.num_contending == int(contending_mask(ps).sum())
        assert is_monotone_assignment(ps, result.assignment)
        assert weighted_error(ps, result.assignment) == \
            pytest.approx(result.optimal_error)


def _replay_verdict(ps: PointSet, assignment: np.ndarray) -> bool:
    """Whether the d >= 3 Lemma 16 replay accepts ``assignment``.

    The anchors come from the classifier's own prune, which (unlike the
    ``UpsetClassifier`` constructor) accepts ``±inf`` rows.
    """
    anchors = classifier_module._minimal_anchors(ps.coords[assignment == 1])
    try:
        passive_module._check_replay(ps, assignment, anchors)
    except AssertionError as exc:
        # A correct build never drops an anchor: only Lemma 16 can trip.
        assert "Lemma 16" in str(exc)
        return False
    return True


@st.composite
def _tie_heavy_3d(draw):
    """3-D points on a tiny grid (signed zeros and infinities included),
    with duplicate rows given opposing assignments, and an arbitrary
    assignment."""
    value = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf])
    rows = draw(st.lists(st.tuples(value, value, value), min_size=1,
                         max_size=24))
    assignment = draw(st.lists(st.integers(0, 1), min_size=len(rows),
                               max_size=len(rows)))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
        rows.append(rows[i])
        assignment.append(1 - assignment[i])
    ps = PointSet(np.asarray(rows), [0] * len(rows), validate=False)
    return ps, np.asarray(assignment, dtype=np.int8)


class TestLemma16Replay:
    """The d >= 3 Lemma 16 check replays the classifier over all points."""

    @settings(max_examples=200, deadline=None)
    @given(_tie_heavy_3d())
    def test_verdict_matches_dense_check(self, case):
        ps, assignment = case
        assert _replay_verdict(ps, assignment) == \
            is_monotone_assignment(ps, assignment)

    def test_straddles_row_blocks(self):
        """n = 2 * DEFAULT_BLOCK_SIZE + 1: the last block has one row, and
        it duplicates row 0 with the opposing assignment."""
        n = 2 * DEFAULT_BLOCK_SIZE + 1
        coords = np.random.default_rng(n).integers(0, 10, size=(n, 3))
        coords = coords.astype(float)
        coords[-1] = coords[0]
        ps = PointSet(coords, [0] * n)
        assignment = (coords.sum(axis=1) > 13).astype(np.int8)
        assert is_monotone_assignment(ps, assignment)
        assert _replay_verdict(ps, assignment)
        assignment[-1] = 1 - assignment[0]
        assert not is_monotone_assignment(ps, assignment)
        assert not _replay_verdict(ps, assignment)

    def test_dropped_anchor_is_a_classifier_build_error(self, monkeypatch):
        """A build that loses a needed anchor would return a classifier
        that disagrees with its own assignment; the replay names it."""
        ps = planted_monotone(300, 3, noise=0.1, rng=5, weights="random")
        assert solve_passive(ps).classifier.num_anchors >= 2
        original = classifier_module._minimal_anchors
        monkeypatch.setattr(classifier_module, "_minimal_anchors",
                            lambda matrix: original(matrix)[:-1])
        with pytest.raises(AssertionError, match="classifier build"):
            solve_passive(ps)


def _left_at_vertices(passive):
    """Supply and demand the seeded flow leaves, per network vertex."""
    net = passive.network
    k0, k = len(passive.zeros), passive.num_contending
    residual = (net.caps - net.flows)[0::2]
    supply = np.zeros(net.num_nodes)
    supply[net.heads[0::2][:k0]] = residual[:k0]
    demand = np.zeros(net.num_nodes)
    demand[net.tails[0::2][k0:k]] = residual[k0:k]
    return supply, demand


class TestGreedyPreflow:
    INSTANCES = [(seed, dim) for seed in range(5) for dim in (2, 3)]

    @staticmethod
    def _seeded(seed, dim, n=120):
        ps = planted_monotone(n, dim, noise=0.3, weights="random", rng=seed)
        passive = passive_network(ps)
        rounds = greedy_preflow(passive)
        return ps, passive, rounds

    @pytest.mark.parametrize("seed,dim", INSTANCES)
    def test_seed_is_feasible_and_leaves_no_live_arc(self, seed, dim):
        _ps, passive, rounds = self._seeded(seed, dim)
        net = passive.network
        assert rounds >= 1
        assert net.check_flow_conservation(SOURCE, SINK)
        supply, demand = _left_at_vertices(passive)
        pair_tails = net.tails[0::2][passive.num_contending:]
        pair_heads = net.heads[0::2][passive.num_contending:]
        live = ((supply[pair_tails] > RESIDUAL_EPS)
                & (demand[pair_heads] > RESIDUAL_EPS))
        assert not live.any()

    @pytest.mark.parametrize("seed,dim", INSTANCES)
    def test_warm_source_side_matches_cold_loop_dinic(self, seed, dim):
        _ps, passive, _rounds = self._seeded(seed, dim)
        net = passive.network
        warm = solve_min_cut(net, SOURCE, SINK)
        net.reset_flow()
        value = dinic_max_flow(net, SOURCE, SINK)
        cold = min_cut_from_residual(net, SOURCE, SINK, value)
        assert warm.source_side == cold.source_side
        assert warm.cut_arcs == cold.cut_arcs
        assert warm.value == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("seed,dim", INSTANCES)
    def test_flow_value_is_the_cut_capacity(self, seed, dim):
        ps, passive, _rounds = self._seeded(seed, dim)
        cut = solve_min_cut(passive.network, SOURCE, SINK)
        result = solve_passive(ps)
        assert result.flow_value == sum(
            passive.network.caps[cut.cut_arcs].tolist())

    def test_targets_accept_in_arc_order_up_to_demand(self):
        # One label-1 point under three label-0 points: all three offer
        # to it in the first round, and it takes them in arc order until
        # its demand of 1.0 is met.
        ps = PointSet([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0),
                       (3.0, 3.0, 3.0)], [1, 0, 0, 0], [1.0, 0.5, 0.25, 0.5])
        passive = passive_network(ps)
        assert greedy_preflow(passive) == 1
        forward = passive.network.flows[0::2].tolist()
        # source arcs (three label-0 points), sink arc, type-3 arcs
        assert forward == [0.5, 0.25, 0.25, 1.0, 0.5, 0.25, 0.25]
        assert solve_passive(ps).optimal_error == 1.0

    def test_offered_before_is_a_grouped_exclusive_cumsum(self):
        gen = np.random.default_rng(4)
        offers = gen.random(200)
        starts = gen.random(200) < 0.1
        starts[0] = True
        expected = []
        running = 0.0
        for offer, start in zip(offers.tolist(), starts.tolist()):
            running = 0.0 if start else running
            expected.append(running)
            running += offer
        got = passive_module._offered_before(offers, starts)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_no_pairs_no_rounds(self, monotone_2d):
        passive = passive_network(monotone_2d, use_contending_reduction=False)
        assert greedy_preflow(passive) == 0
        assert not passive.network.flows.any()


class TestBruteForce:
    def test_guard(self):
        ps = PointSet(np.zeros((20, 1)), [0] * 20)
        with pytest.raises(ValueError):
            brute_force_passive(ps)

    def test_tiny(self, tiny_2d):
        assert brute_force_passive(tiny_2d) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 100_000))
def test_solver_matches_brute_force(n, dim, seed):
    """Property (Theorem 4): min-cut optimum equals exhaustive optimum."""
    gen = np.random.default_rng(seed)
    coords = gen.integers(0, 4, size=(n, dim)).astype(float)
    labels = gen.integers(0, 2, size=n)
    weights = gen.random(n) + 0.1
    ps = PointSet(coords, labels, weights)
    result = solve_passive(ps)
    assert result.optimal_error == pytest.approx(brute_force_passive(ps))
    assert is_monotone_assignment(ps, result.assignment)
    assert weighted_error(ps, result.assignment) == pytest.approx(result.optimal_error)


class TestWeightScaleGuard:
    """The effective-infinity / conditioning guard on extreme weights.

    Found by the differential fuzzer: a min-cut of ~1e-4 computed among
    ~1e11-scale capacities drowns in flow rounding noise, tripping the
    solver's certificate assertions.  The guard turns that into an
    actionable ValueError.
    """

    @pytest.mark.parametrize("engine", sorted(FLOW_ENGINES))
    def test_ill_conditioned_weights_rejected_uniformly(self, engine,
                                                        monkeypatch):
        """The guard fires while the network is built, before any max flow
        runs, so the rejection cannot depend on the engine: each engine
        under test takes the cut's place in turn, and none may run."""
        ran = []

        def substitute(network, source, sink):
            ran.append(engine)
            return FLOW_ENGINES[engine](network, source, sink), None

        monkeypatch.setattr("repro.flow.mincut.dinic_array_solve", substitute)
        ps = PointSet([(0.1,), (0.8,)], [1, 0], [1e-4, 1e11])
        with pytest.raises(ValueError, match="rescale the weights"):
            solve_passive(ps)
        assert ran == []

    def test_overflowing_total_rejected(self):
        ps = PointSet([(0.1,), (0.8,)], [1, 0], [1e308, 1e308])
        with pytest.raises(ValueError, match="rescale the weights"):
            solve_passive(ps)

    def test_uniform_huge_weights_still_solve(self):
        # All-large weights are fine: the optimum is itself large, so the
        # relative certificate tolerance absorbs the rounding noise.  This
        # is the regime where "+ 1.0" would be silently absorbed, so the
        # capacity fallback (2 * total) must kick in.
        scale = 1e16
        ps = PointSet([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 2.0)],
                      [1, 0, 0, 1],
                      [scale, 2 * scale, 2 * scale, scale])
        result = solve_passive(ps)
        assert result.optimal_error == pytest.approx(scale, rel=1e-9)

    def test_moderate_scales_unaffected(self):
        ps = PointSet([(0.1,), (0.8,)], [1, 0], [1e-4, 1e6])
        assert solve_passive(ps).optimal_error == pytest.approx(1e-4)
