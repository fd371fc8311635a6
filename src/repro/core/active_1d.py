"""Active monotone classification in 1-D (paper Section 3, Lemma 9).

The algorithm estimates the error landscape of threshold classifiers using
two sampled estimators per recursion level:

* ``g1`` approximates ``err_P`` up to an additive ``eps|P|/256`` from a
  with-replacement sample ``S1`` (Section 3.4);
* it then identifies the *uncertainty window* ``[alpha, beta]`` — the span
  of thresholds whose estimated error drops below ``|P| (1/4 - eps/256)`` —
  and recurses on ``P' = P ∩ [alpha, beta]``, which Lemma 10 shows holds at
  most ``(5/8)|P|`` points;
* ``g2`` approximates ``err_{P \\ P'}`` from a second sample ``S2`` that, by
  construction, contains no point in ``[alpha, beta]`` and is therefore
  constant over the window (the second requirement of Section 3.2).

Rather than materializing the function ``f``, we exploit the *weighted
view* of Section 3.5 (Lemma 13): the union ``Σ`` of the per-level weighted
samples satisfies ``f(h) = w-err_Σ(h)``, so minimizing ``w-err_Σ`` over
effective thresholds yields the ``(1+eps)``-approximate classifier.

Ties in values are handled exactly: thresholds are evaluated only at sample
values (plus ``-inf``), so equal values always land on the same side.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .._util import RngLike, as_generator, log_levels
from ..obs import recorder
from ..stats.estimation import SamplingPlan, sample_with_replacement
from .classifier import ThresholdClassifier
from .oracle import ProbeOracle
from .passive_1d import best_threshold
from .points import PointSet

__all__ = [
    "WeightedSample",
    "Active1DResult",
    "LevelTrace",
    "SigmaErrorFunction",
    "build_weighted_sample_1d",
    "active_classify_1d",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Recursion base case: probe everything below this size.  The paper uses 7;
#: a slightly larger base absorbs the closed-interval handling of [alpha,
#: beta] (see DESIGN.md) and only strengthens the guarantee.
BASE_CASE_SIZE = 15


class WeightedSample:
    """The fully-labeled weighted sample ``Σ`` of Section 3.5.

    Maps each probed point (by its global index) to an accumulated weight;
    ``w-err_Σ`` equals the framework's estimator ``f`` (Lemma 13).

    Draws are appended as ``(indices, weights, labels)`` array chunks in
    draw order and folded on the next read with one ``np.unique`` and one
    ``np.add.at``.  ``np.add.at`` adds sequentially, so every point's
    weight is the same float sum, in the same order, as adding the draws
    one by one; a repeated index keeps its last label.  Points are kept
    in first-draw order, which is the iteration order of the
    :attr:`weights` / :attr:`labels` views.
    """

    def __init__(self) -> None:
        self._indices = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=float)
        self._labels = np.empty(0, dtype=np.int8)
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._views: Optional[Tuple[Dict[int, float], Dict[int, int]]] = None

    def add(self, index: int, weight: float, label: int) -> None:
        """Accumulate ``weight`` onto point ``index`` carrying ``label``."""
        self.add_many([index], weight, [label])

    def add_many(self, indices: Sequence[int], weights: Union[float, Sequence[float]],
                 labels: Sequence[int]) -> None:
        """Accumulate draws in order; ``weights`` may be one per-draw scalar."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        lab = np.asarray(labels, dtype=np.int8).reshape(-1)
        w = np.broadcast_to(np.asarray(weights, dtype=float), idx.shape)
        if len(lab) != len(idx):
            raise ValueError(
                f"{len(idx)} indices but {len(lab)} labels in a Σ chunk")
        if len(idx):
            self._chunks.append((idx, w, lab))
            self._views = None

    def merge(self, other: "WeightedSample") -> None:
        """Fold another weighted sample into this one."""
        other._fold()
        self.add_many(other._indices, other._weights, other._labels)

    def _fold(self) -> None:
        """Fold pending chunks into the first-draw-ordered arrays."""
        if not self._chunks:
            return
        parts = [(self._indices, self._weights, self._labels), *self._chunks]
        self._chunks = []
        idx = np.concatenate([p[0] for p in parts])
        w = np.concatenate([p[1] for p in parts])
        lab = np.concatenate([p[2] for p in parts])
        uniq, first, inverse = np.unique(idx, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        slot = rank[inverse]
        weights = np.zeros(len(uniq))
        np.add.at(weights, slot, w)
        last = np.zeros(len(uniq), dtype=np.intp)
        np.maximum.at(last, slot, np.arange(len(idx)))
        self._indices = uniq[order]
        self._weights = weights
        self._labels = lab[last]

    def _dict_views(self) -> Tuple[Dict[int, float], Dict[int, int]]:
        if self._views is None:
            self._fold()
            keys = self._indices.tolist()
            self._views = (dict(zip(keys, self._weights.tolist())),
                           dict(zip(keys, self._labels.tolist())))
        return self._views

    @property
    def weights(self) -> Mapping[int, float]:
        """Read-only view: point index -> accumulated weight."""
        return MappingProxyType(self._dict_views()[0])

    @property
    def labels(self) -> Mapping[int, int]:
        """Read-only view: point index -> label."""
        return MappingProxyType(self._dict_views()[1])

    @property
    def size(self) -> int:
        """Number of distinct points in ``Σ``."""
        self._fold()
        return len(self._indices)

    @property
    def total_weight(self) -> float:
        """Total accumulated weight (summed in first-draw order)."""
        self._fold()
        return float(sum(self._weights.tolist()))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(indices, weights, labels)`` arrays sorted by index."""
        self._fold()
        order = np.argsort(self._indices)
        return self._indices[order], self._weights[order], self._labels[order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedSample):
            return NotImplemented
        return (self._dict_views()[0] == other._dict_views()[0]
                and self._dict_views()[1] == other._dict_views()[1])

    def __repr__(self) -> str:
        return (f"WeightedSample(size={self.size}, "
                f"total_weight={self.total_weight!r})")


@dataclass(frozen=True)
class LevelTrace:
    """Telemetry of one recursion level (Section 3.2 instrumentation).

    ``kind`` is ``"base"`` (probed exhaustively), ``"no-window"`` (alpha
    and beta did not exist), ``"shrink"`` (recursed on ``P'``),
    ``"degenerate"`` (window covered everything; probed exhaustively), or
    ``"halted"`` (a degraded run stopped here on a halting failure —
    budget exhausted, retries exhausted, breaker open, dead point).
    """

    depth: int
    population: int
    sample_size: int
    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    shrunk_to: Optional[int] = None
    note: Optional[str] = None

    @property
    def shrink_factor(self) -> Optional[float]:
        """``|P'| / |P|`` for shrink levels (Lemma 10 bounds it by 5/8 whp)."""
        if self.kind != "shrink" or self.population == 0:
            return None
        return self.shrunk_to / self.population


@dataclass(frozen=True)
class Active1DResult:
    """Result of the 1-D active algorithm.

    Attributes
    ----------
    classifier:
        The returned threshold classifier ``h^tau``.
    sigma:
        The weighted sample ``Σ`` (side product, Lemma 13).
    probing_cost:
        Distinct points probed by this run.
    levels:
        Number of recursion levels executed.
    sigma_error:
        ``w-err_Σ`` of the returned classifier (the minimized objective).
    """

    classifier: ThresholdClassifier
    sigma: WeightedSample
    probing_cost: int
    levels: int
    sigma_error: float
    trace: Tuple[LevelTrace, ...] = ()


class SigmaErrorFunction:
    """The framework's comparison function ``f`` made explicit (Lemma 13).

    Section 3 constructs ``f : H_mono -> [0, inf)`` with the
    ε-comparison property — ``f(h^x) <= f(h^y)`` implies
    ``err_P(h^x) <= (1 + eps) err_P(h^y)`` — and Lemma 13 shows
    ``f(h^tau) = w-err_Σ(h^tau)``.  This class evaluates exactly that,
    vectorized over arbitrary thresholds, so tests and experiments can
    check the property *directly* instead of only through the final
    classifier.
    """

    def __init__(self, values: np.ndarray, sigma: WeightedSample) -> None:
        indices, weights, labels = sigma.arrays()
        sample_values = np.asarray(values, dtype=float)[indices]
        order = np.argsort(sample_values, kind="stable")
        self._values = sample_values[order]
        self._weights = weights[order]
        self._labels = labels[order]
        ones = np.where(self._labels == 1, self._weights, 0.0)
        zeros = np.where(self._labels == 0, self._weights, 0.0)
        self._ones_prefix = np.concatenate(([0.0], np.cumsum(ones)))
        self._zeros_suffix = np.concatenate(
            (np.cumsum(zeros[::-1])[::-1], [0.0]))

    def __call__(self, tau: float) -> float:
        """``f(h^tau) = w-err_Σ(h^tau)`` for any real (or ±inf) threshold."""
        # Points with value <= tau are predicted 0 (err if label 1);
        # points above tau predicted 1 (err if label 0).
        k = int(np.searchsorted(self._values, tau, side="right"))
        return float(self._ones_prefix[k] + self._zeros_suffix[k])

    def evaluate_many(self, taus: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation over an array of thresholds."""
        ks = np.searchsorted(self._values, np.asarray(taus, dtype=float),
                             side="right")
        return self._ones_prefix[ks] + self._zeros_suffix[ks]


def _empirical_threshold_errors(sample_values: np.ndarray,
                                sample_labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Error of each candidate threshold on a multiset sample.

    Returns ``(candidate_taus, error_counts)`` where ``candidate_taus[0]``
    is ``-inf`` followed by the distinct sorted sample values; entry ``k``
    counts sample draws misclassified by ``h^{tau_k}``.
    """
    order = np.argsort(sample_values, kind="stable")
    vals = sample_values[order]
    labs = sample_labels[order]
    t = len(vals)
    ones_prefix = np.concatenate(([0.0], np.cumsum(labs == 1)))
    zeros_suffix = np.concatenate((np.cumsum((labs == 0)[::-1])[::-1], [0.0]))
    distinct_end = np.flatnonzero(
        np.concatenate((vals[1:] != vals[:-1], [True]))
    ) + 1
    ks = np.concatenate(([0], distinct_end)).astype(int)
    errors = ones_prefix[ks] + zeros_suffix[ks]
    taus = np.concatenate(([NEG_INF], vals[ks[1:] - 1]))
    return taus, errors


class _Recursion1D:
    """Stateful driver for the Section 3 recursion over one value array."""

    def __init__(self, values: np.ndarray, global_indices: np.ndarray,
                 oracle: ProbeOracle, epsilon: float, delta: float,
                 plan: SamplingPlan, rng: np.random.Generator,
                 degrade: bool = False) -> None:
        self.values = values
        self.global_indices = global_indices
        self.oracle = oracle
        self.epsilon = epsilon
        self.delta = delta
        self.plan = plan
        self.rng = rng
        self.degrade = degrade
        self.halted: Optional[str] = None
        self.levels_bound = log_levels(len(values))
        self.levels_used = 0
        self.sigma = WeightedSample()
        self.trace: List[LevelTrace] = []
        self.rec = recorder()
        self._span: Any = None

    def _record_level(self, level: LevelTrace) -> None:
        """Append a trace entry and mirror it into the metrics session."""
        self.trace.append(level)
        rec = self.rec
        if not rec.enabled:
            return
        span = self._span
        span.set_attr("depth", level.depth)
        span.set_attr("kind", level.kind)
        span.set_attr("population", level.population)
        rec.incr("active1d.levels")
        rec.incr(f"active1d.levels.{level.kind.replace('-', '_')}")
        rec.gauge_max("active.recursion_depth", level.depth + 1)
        rec.observe("active1d.level_population", level.population)
        rec.observe("active1d.level_sample_size", level.sample_size)
        shrink = level.shrink_factor
        if shrink is not None:
            rec.observe("active1d.shrink_factor", shrink)

    # ------------------------------------------------------------------

    def run(self) -> WeightedSample:
        """Execute the recursion over all points; returns ``Σ``.

        Each level runs in its own ``active1d.level`` span, which carries
        the ``depth``, ``kind`` and ``population`` of the level's trace
        entry: one span per entry.

        With ``degrade`` set, a halting failure (see
        ``repro.resilience.errors.HALT_ERRORS``) stops the recursion where
        it stands and returns the partial ``Σ`` accumulated so far, with a
        ``"halted"`` trace entry marking the cut; anything else — a bug —
        keeps propagating.
        """
        halt_errors: Tuple[Type[BaseException], ...] = ()
        if self.degrade:
            from ..resilience.errors import HALT_ERRORS

            halt_errors = HALT_ERRORS
        local: Optional[np.ndarray] = np.argsort(self.values, kind="stable")
        depth = 0
        if len(local) == 0:
            self.levels_used = 1
            return self.sigma
        halt: Optional[BaseException] = None
        while local is not None:
            with self.rec.span("active1d.level") as span:
                self._span = span
                entries = len(self.trace)
                try:
                    local = self._level(local, depth)
                except halt_errors as exc:
                    # The halted entry takes this level's span unless the
                    # level recorded its own entry before probing (base
                    # and degenerate levels do).
                    if len(self.trace) == entries:
                        self._halt(exc)
                        return self.sigma
                    halt, local = exc, None
            depth += 1
        if halt is not None:
            with self.rec.span("active1d.level") as span:
                self._span = span
                self._halt(halt)
        return self.sigma

    def _halt(self, exc: BaseException) -> None:
        """Record the ``"halted"`` entry of a degraded run."""
        self.halted = f"{type(exc).__name__}: {exc}"
        self._record_level(LevelTrace(
            depth=self.levels_used, population=len(self.values),
            sample_size=0, kind="halted", note=self.halted,
        ))
        if self.rec.enabled:
            self.rec.incr("resilience.degraded_halts")

    def _probe_all(self, local: np.ndarray) -> None:
        """Base case: probe every point, contributing weight 1 each.

        Probed one at a time, so a halting failure keeps every label
        answered before it in ``Σ`` (the degraded run's partial sample).
        """
        indices = self.global_indices[local]
        labels: List[int] = []
        try:
            for index in indices.tolist():
                labels.append(self.oracle.probe(index))
        finally:
            self.sigma.add_many(indices[:len(labels)], 1.0, labels)

    def _probe_sample(self, local_pool: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` points of ``local_pool`` with replacement and probe them.

        One ``probe_many`` call per sample (a ``probe`` loop for an oracle
        without one): a failure part-way leaves the whole sample out of
        ``Σ``.
        """
        draws = sample_with_replacement(local_pool, size, self.rng)
        indices = self.global_indices[draws]
        probe_many = getattr(self.oracle, "probe_many", None)
        labels = (probe_many(indices) if probe_many is not None
                  else [self.oracle.probe(i) for i in indices.tolist()])
        return draws, np.asarray(labels, dtype=np.int8)

    def _add_scaled(self, draws: np.ndarray, labels: np.ndarray, scale: float) -> None:
        """Add a with-replacement sample to ``Σ`` with per-draw weight ``scale``."""
        self.sigma.add_many(self.global_indices[draws], scale, labels)

    # ------------------------------------------------------------------

    def _level(self, local: np.ndarray, depth: int) -> Optional[np.ndarray]:
        """One level of the Section 3.2 framework on sorted local positions.

        Returns the uncertainty window ``P'`` to recurse on, or ``None``
        when the recursion ends at this level.
        """
        m = len(local)
        self.levels_used = max(self.levels_used, depth + 1)
        if m <= BASE_CASE_SIZE or depth >= self.levels_bound:
            self._record_level(LevelTrace(depth, m, m, "base"))
            self._probe_all(local)
            return None

        # --- Estimator g1 from sample S1.
        t1 = min(self.plan.level_sample_size(self.epsilon, self.delta, m,
                                             self.levels_bound),
                 max(1, m))
        if t1 >= m:
            # A sample as large as the population cannot beat probing it.
            self._record_level(LevelTrace(depth, m, m, "base"))
            self._probe_all(local)
            return None
        draws1, labels1 = self._probe_sample(local, t1)
        sample_values = self.values[draws1]
        taus, errors = _empirical_threshold_errors(sample_values, labels1)
        g1 = (m / t1) * errors
        cutoff = m * (0.25 - self.epsilon / 256.0)
        qualifying = np.flatnonzero(g1 < cutoff)

        if len(qualifying) == 0:
            # alpha, beta do not exist: f = g1, Σ-level = S1 scaled.
            self._record_level(LevelTrace(depth, m, t1, "no-window"))
            self._add_scaled(draws1, labels1, m / t1)
            return None

        first, last = int(qualifying[0]), int(qualifying[-1])
        alpha = float(taus[first])  # -inf when the leftmost interval qualifies
        if last == len(taus) - 1:
            beta = POS_INF
        else:
            beta = float(taus[last + 1])  # supremum of the qualifying set

        vals_local = self.values[local]
        inside = (vals_local >= alpha) & (vals_local <= beta)
        p_prime = local[inside]
        rest = local[~inside]

        if len(p_prime) >= m or len(rest) == 0:
            # Degenerate window covering everything — cannot shrink; the
            # cheapest correct fallback is to probe the level exhaustively.
            self._record_level(LevelTrace(depth, m, t1, "degenerate",
                                         alpha=alpha, beta=beta))
            self._probe_all(local)
            return None

        # --- Estimator g2 from sample S2 ⊆ P \ P'.
        t2 = min(self.plan.level_sample_size(self.epsilon, self.delta, len(rest),
                                             self.levels_bound),
                 len(rest))
        draws2, labels2 = self._probe_sample(rest, t2)
        self._add_scaled(draws2, labels2, len(rest) / t2)

        self._record_level(LevelTrace(depth, m, t1 + t2, "shrink",
                                     alpha=alpha, beta=beta,
                                     shrunk_to=len(p_prime)))
        # --- Recurse on the uncertainty window.
        return p_prime


def build_weighted_sample_1d(values: Sequence[float], global_indices: Sequence[int],
                             oracle: ProbeOracle, epsilon: float, delta: float,
                             plan: Optional[SamplingPlan] = None,
                             rng: RngLike = None,
                             degrade: bool = False
                             ) -> Tuple[WeightedSample, int, Tuple[LevelTrace, ...]]:
    """Run the Section 3 recursion, returning ``(Σ, levels_used, trace)``.

    ``values[i]`` is the 1-D value (or chain position) of the point whose
    global index is ``global_indices[i]``; probes are issued against global
    indices so a shared oracle can serve many chains.  ``trace`` records
    one :class:`LevelTrace` per recursion level for instrumentation.

    With ``degrade`` set, a halting failure from the oracle (budget or
    retries exhausted, breaker open, dead point) returns the partial ``Σ``
    instead of raising; the final trace entry then has ``kind ==
    "halted"`` with the reason in its ``note``.
    """
    vals = np.asarray(values, dtype=float)
    gidx = np.asarray(global_indices, dtype=int)
    if vals.shape != gidx.shape:
        raise ValueError("values and global_indices must have equal length")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1]; got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1); got {delta}")
    driver = _Recursion1D(vals, gidx, oracle, epsilon, delta,
                          plan or SamplingPlan(), as_generator(rng),
                          degrade=degrade)
    sigma = driver.run()
    return sigma, driver.levels_used, tuple(driver.trace)


def active_classify_1d(points: PointSet, oracle: ProbeOracle, epsilon: float,
                       delta: Optional[float] = None,
                       plan: Optional[SamplingPlan] = None,
                       rng: RngLike = None) -> Active1DResult:
    """Solve Problem 1 in 1-D (Lemma 9): ``(1+eps)``-approximate threshold.

    Parameters
    ----------
    points:
        1-D point set; labels may be hidden (they are accessed only through
        ``oracle``).
    oracle:
        Label oracle over the same index space as ``points``.
    epsilon:
        Approximation slack in ``(0, 1]``.
    delta:
        Failure probability; defaults to ``1/n^2`` as in Theorem 2.
    """
    if points.dim != 1:
        raise ValueError(f"active_classify_1d requires d = 1; got d = {points.dim}")
    n = points.n
    if n == 0:
        return Active1DResult(ThresholdClassifier(POS_INF), WeightedSample(), 0, 0, 0.0)
    if delta is None:
        delta = 1.0 / max(4, n * n)
    cost_before = oracle.cost
    values = points.coords[:, 0]
    sigma, levels, trace = build_weighted_sample_1d(
        values, np.arange(n), oracle, epsilon, delta, plan, rng
    )
    indices, weights, labels = sigma.arrays()
    tau, sigma_error = best_threshold(values[indices], labels, weights)
    return Active1DResult(
        classifier=ThresholdClassifier(tau),
        sigma=sigma,
        probing_cost=oracle.cost - cost_before,
        levels=levels,
        sigma_error=float(sigma_error),
        trace=trace,
    )
