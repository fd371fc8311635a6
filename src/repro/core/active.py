"""Active monotone classification in ``R^d`` (paper Section 4, Theorems 2-3).

Pipeline:

1. Compute a chain decomposition of ``P`` with exactly ``w`` chains
   (Lemma 6; ``O(d n^2 + n^{2.5})``).
2. For each chain ``C_i``, sort it by dominance and treat it as a 1-D
   instance: every monotone classifier maps a prefix of the sorted chain to
   0 and the remaining suffix to 1, so it behaves like a threshold on the
   position.  Run the Section 3 recursion with per-chain failure budget
   ``delta / w``, producing a fully-labeled weighted sample ``Σ_i``
   (eq. (29)).
3. Let ``Σ = ∪_i Σ_i`` (eq. (30)).  Lemma 14 guarantees that for any two
   monotone classifiers, ``w-err_Σ(h) <= w-err_Σ(h')`` implies
   ``err_P(h) <= (1+eps) err_P(h')``.
4. Find the classifier minimizing ``w-err_Σ`` — an instance of Problem 2 on
   ``Σ`` solved exactly by the Theorem 4 min-cut solver (Theorem 3's
   connection), then extend monotonically to all of ``R^d``.

Passing a :class:`~repro.resilience.runtime.ResilienceConfig` threads the
resilience layer through the run: the oracle is wrapped in the configured
stack (fault injection / retries / crash-safe journal), completed chains
are checkpointed so an interrupted run resumes without re-paying probes,
and — with ``degrade`` — halting oracle failures yield a best-effort
classifier plus a :class:`~repro.resilience.runtime.RunReport` instead of
an exception.  See ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from .._util import RngLike, as_generator
from ..obs import recorder
from ..parallel.chains import ChainTask, run_chain_task
from ..parallel.pool import pool_map
from ..parallel.seeds import spawn_seed_sequences
from ..poset.chains import greedy_chain_decomposition, minimum_chain_decomposition
from ..stats.estimation import SamplingPlan
from .active_1d import WeightedSample, build_weighted_sample_1d
from .classifier import MonotoneClassifier
from .oracle import LabelOracle
from .passive import solve_passive
from .points import PointSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> core)
    from ..resilience.runtime import ResilienceConfig, RunReport

__all__ = ["ActiveResult", "active_classify"]


@dataclass(frozen=True)
class ActiveResult:
    """Output of the Theorem 2/3 active algorithm.

    Attributes
    ----------
    classifier:
        The ``(1+eps)``-approximate monotone classifier over ``R^d``.
    sigma:
        The combined weighted sample ``Σ`` (probed points with weights).
    sigma_points:
        ``Σ`` materialized as a fully-labeled weighted :class:`PointSet`.
    probing_cost:
        Distinct points probed (newly charged) by this run; probes
        restored from a resume journal are not re-counted.
    sigma_error:
        Minimum ``w-err_Σ`` achieved (the optimized surrogate objective).
    num_chains:
        Number of chains used (equals the width ``w`` for the exact
        decomposition method).
    chain_sizes:
        Sizes of the chains, descending.
    decomposition_method:
        ``"matching"`` (exact, Lemma 6) or ``"greedy"`` (heuristic ablation).
    epsilon, delta:
        The parameters the run was configured with.
    report:
        The resilience :class:`~repro.resilience.runtime.RunReport` when a
        :class:`~repro.resilience.runtime.ResilienceConfig` was passed;
        ``None`` otherwise.  A degraded run is signaled here
        (``report.degraded``), not by an exception.
    """

    classifier: MonotoneClassifier
    sigma: WeightedSample
    sigma_points: PointSet
    probing_cost: int
    sigma_error: float
    num_chains: int
    chain_sizes: List[int]
    decomposition_method: str
    epsilon: float
    delta: float
    report: Optional["RunReport"] = None


def active_classify(points: PointSet, oracle: LabelOracle, epsilon: float,
                    delta: Optional[float] = None,
                    decomposition: str = "exact",
                    plan: Optional[SamplingPlan] = None,
                    rng: RngLike = None,
                    workers: int = 1,
                    resilience: Optional["ResilienceConfig"] = None
                    ) -> ActiveResult:
    """Solve Problem 1: probe few labels, return a ``(1+eps)``-approximation.

    Parameters
    ----------
    points:
        Input point set; labels may (and normally should) be hidden.  Only
        coordinates are read directly — labels flow through ``oracle``.
    oracle:
        Label oracle sharing the index space of ``points``.
    epsilon:
        Approximation slack in ``(0, 1]`` (Theorem 2).
    delta:
        Failure probability; defaults to ``1/n^2``.
    decomposition:
        ``"exact"`` (default) picks the exact method for the
        dimensionality (patience for ``d <= 2``, the Lemma 6 matching
        reduction otherwise); ``"greedy"`` uses the fast heuristic that
        may exceed ``w`` chains (ablation A2).
    plan:
        Sampling plan controlling per-level sample sizes.
    workers:
        Number of processes for the chain-sampling phase.  Each chain's
        1-D recursion is independent (disjoint probes, its own spawned
        seed), so any value produces bit-for-bit identical output —
        ``workers=1`` (default) runs inline, larger values dispatch chains
        to a process pool.  Requires an oracle that supports sharding
        (:class:`LabelOracle` or
        :class:`~repro.core.callback_oracle.CallbackOracle` with a
        picklable labeler) when greater than 1.
    resilience:
        Optional :class:`~repro.resilience.runtime.ResilienceConfig`
        enabling fault injection, retries, checkpoint/resume, and graceful
        degradation for this run.  ``None`` (default) runs the plain
        pipeline with zero overhead.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1]; got {epsilon}")
    n = points.n
    if n == 0:
        raise ValueError("cannot classify an empty point set")
    if delta is None:
        delta = 1.0 / max(4, n * n)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1); got {delta}")
    rng = as_generator(rng)
    plan = plan or SamplingPlan()
    rec = recorder()

    with rec.span("active") as active_span:
        with rec.span("chain_decompose"):
            if decomposition == "exact":
                decomp = minimum_chain_decomposition(points)
            elif decomposition == "greedy":
                decomp = greedy_chain_decomposition(points)
            else:
                raise ValueError(
                    "decomposition must be 'exact' or 'greedy'; "
                    f"got {decomposition!r}"
                )

        w = decomp.num_chains
        per_chain_delta = delta / max(1, w)
        if rec.enabled:
            rec.gauge("active.n", n)
            rec.gauge("active.epsilon", epsilon)
            rec.gauge("active.chain_width", w)
            for size in decomp.sizes():
                rec.observe("active.chain_size", size)
            active_span.set_attr("n", n)
            active_span.set_attr("epsilon", epsilon)
            active_span.set_attr("width", w)

        state = _ResilienceState.build(
            oracle, resilience, n=n, epsilon=epsilon, delta=delta,
            num_chains=w, method=decomp.method,
        )
        effective = state.effective
        # Taken after journal replay, so restored probes are not re-counted.
        cost_before = effective.cost

        # Every chain draws from its own spawned seed, so the sampling is a
        # pure function of (rng, chain index) — the same randomness flows
        # whether chains run inline or on a process pool, which is what
        # makes `workers` invisible in the output.
        chain_seeds = spawn_seed_sequences(rng, w)
        sigma = WeightedSample()
        try:
            with rec.span("sample_chains"):
                if workers <= 1 or w <= 1:
                    for i, chain in enumerate(decomp.chains):
                        resumed = state.merge_resumed(i, sigma)
                        if resumed:
                            continue
                        # Positions along the chain act as the 1-D values:
                        # index 0 is the most dominated point, so every
                        # monotone classifier is a threshold on the position.
                        positions = np.arange(len(chain), dtype=float)
                        with rec.span(f"chain[{i}]") as chain_span, \
                                rec.timer("active.chain_seconds"):
                            chain_span.set_attr("size", len(chain))
                            chain_sigma, _levels, trace = build_weighted_sample_1d(
                                positions, np.asarray(chain, dtype=int),
                                effective, epsilon, per_chain_delta, plan,
                                np.random.default_rng(chain_seeds[i]),
                                degrade=state.degrade,
                            )
                        sigma.merge(chain_sigma)
                        halted = None
                        if trace and trace[-1].kind == "halted":
                            halted = trace[-1].note or "halted"
                        state.finish_chain(i, chain_sigma, halted)
                else:
                    if not hasattr(oracle, "shard") or not hasattr(oracle, "absorb"):
                        raise ValueError(
                            f"workers={workers} requires an oracle supporting "
                            "shard()/absorb() (LabelOracle or CallbackOracle); "
                            f"got {type(oracle).__name__} — use workers=1"
                        )
                    tasks = []
                    for i, chain in enumerate(decomp.chains):
                        if state.merge_resumed(i, sigma):
                            continue
                        tasks.append(ChainTask(
                            chain_id=i,
                            global_indices=tuple(int(p) for p in chain),
                            shard=effective.shard(chain,
                                                  budget=state.shard_budget())
                            if state.active
                            else oracle.shard(chain),
                            epsilon=epsilon,
                            delta=per_chain_delta,
                            plan=plan,
                            seed=chain_seeds[i],
                            degrade=state.degrade,
                        ))
                    results = pool_map(
                        run_chain_task, tasks, workers=workers,
                        gauge_merge="max",
                        return_exceptions=state.degrade,
                    )
                    # Chains partition P, so their probe sets are disjoint:
                    # absorbing in chain order reproduces the serial probe
                    # log and cost exactly.
                    for task, result in zip(tasks, results):
                        if isinstance(result, Exception):
                            state.chain_failed(task.chain_id, result)
                            continue
                        sigma.merge(result.sigma)
                        try:
                            effective.absorb(result.probe_log, result.revealed)
                        except Exception as exc:  # noqa: BLE001
                            # Re-raises unless configured to degrade and the
                            # failure is a legitimate halt (budget overflow).
                            state.chain_failed(task.chain_id, exc)
                            continue
                        state.finish_chain(task.chain_id, result.sigma,
                                           result.halted)

            indices, weights, labels = sigma.arrays()
            sigma_points = PointSet(points.coords[indices], labels, weights)
            if rec.enabled:
                rec.gauge("active.sigma_size", sigma.size)
                rec.gauge("active.sigma_weight", sigma.total_weight)
            with rec.span("passive_solve"):
                passive = solve_passive(sigma_points)

            probing_cost = effective.cost - cost_before
            report = state.report(w, probing_cost)
        finally:
            state.close()

    return ActiveResult(
        classifier=passive.classifier,
        sigma=sigma,
        sigma_points=sigma_points,
        probing_cost=probing_cost,
        sigma_error=passive.optimal_error,
        num_chains=w,
        chain_sizes=decomp.sizes(),
        decomposition_method=decomp.method,
        epsilon=epsilon,
        delta=delta,
        report=report,
    )


class _ResilienceState:
    """Per-run resilience bookkeeping for :func:`active_classify`.

    Inert when built without a config (``active`` is false): every hook is
    a cheap no-op and the run is byte-for-byte the plain pipeline.  All
    resilience modules are imported lazily here, keeping ``repro.core``
    importable without ``repro.resilience`` (which imports it back).
    """

    def __init__(self, oracle: Any) -> None:
        self.active = False
        self.degrade = False
        self.effective = oracle
        self.config: Optional["ResilienceConfig"] = None
        self.stack: Any = None
        self.meta: Dict[str, Any] = {}
        self.done: Dict[int, WeightedSample] = {}
        self.completed: List[int] = []
        self.incomplete: List[int] = []
        self.resumed: List[int] = []
        self.halt_reason: Optional[str] = None
        self.checkpoints_written = 0

    @classmethod
    def build(cls, oracle: Any, config: Optional["ResilienceConfig"],
              **meta: Any) -> "_ResilienceState":
        state = cls(oracle)
        if config is None:
            return state
        from ..resilience.checkpoint import load_active_checkpoint
        from ..resilience.runtime import build_oracle_stack, sample_from_doc

        state.active = True
        state.config = config
        state.degrade = config.degrade
        state.meta = dict(meta)
        # Validate compatibility BEFORE the journal replays into the
        # oracle: a checkpoint from a different run must fail cleanly,
        # not as a label contradiction halfway through the replay.
        checkpoint = None
        if config.resume and config.checkpoint is not None:
            checkpoint = load_active_checkpoint(config.checkpoint)
            if checkpoint is not None and not checkpoint.compatible_with(
                    state.meta):
                raise ValueError(
                    f"checkpoint {config.checkpoint} belongs to a "
                    f"different run: {checkpoint.meta} vs {state.meta}"
                )
        state.stack = build_oracle_stack(oracle, config, journal_meta=state.meta)
        state.effective = state.stack.oracle
        if checkpoint is not None:
            state.done = {
                chain_id: sample_from_doc(doc)
                for chain_id, doc in checkpoint.done_chains.items()
            }
        return state

    # ------------------------------------------------------------------

    def merge_resumed(self, chain_id: int, sigma: WeightedSample) -> bool:
        """Merge a checkpointed chain's ``Σ_i``; true if it was resumed."""
        chain_sigma = self.done.get(chain_id)
        if chain_sigma is None:
            return False
        sigma.merge(chain_sigma)
        self.resumed.append(chain_id)
        self.completed.append(chain_id)
        rec = recorder()
        if rec.enabled:
            rec.incr("resilience.chains_resumed")
        return True

    def shard_budget(self) -> Optional[int]:
        """The shard-local cap to ship with worker shards, if configured."""
        if self.config is None or not self.config.shard_budgets:
            return None
        return self.effective.remaining_budget()

    def finish_chain(self, chain_id: int, chain_sigma: WeightedSample,
                     halted: Optional[str]) -> None:
        """Record one chain's outcome; checkpoint it when configured."""
        if halted is not None:
            self.incomplete.append(chain_id)
            if self.halt_reason is None:
                self.halt_reason = halted
            return
        self.completed.append(chain_id)
        if not self.active or self.config.checkpoint is None:
            return
        from ..resilience.checkpoint import save_active_checkpoint
        from ..resilience.runtime import sample_to_doc

        self.done[chain_id] = chain_sigma
        save_active_checkpoint(
            self.config.checkpoint, self.meta,
            {cid: sample_to_doc(s) for cid, s in self.done.items()},
        )
        self.checkpoints_written += 1

    def chain_failed(self, chain_id: int, error: Exception) -> None:
        """Handle a chain task that came back as an exception."""
        from ..resilience.errors import HALT_ERRORS

        if not self.degrade or not isinstance(error, HALT_ERRORS):
            raise error
        self.incomplete.append(chain_id)
        if self.halt_reason is None:
            self.halt_reason = f"{type(error).__name__}: {error}"

    def report(self, num_chains: int,
               probing_cost: int) -> Optional["RunReport"]:
        if not self.active:
            return None
        from ..resilience.runtime import RunReport

        stack = self.stack
        breaker = stack.resilient.breaker if stack.resilient else None
        return RunReport(
            completed=not self.incomplete,
            degraded=bool(self.incomplete),
            halt_reason=self.halt_reason,
            probes_charged=probing_cost,
            restored_probes=stack.restored,
            faults_injected=(stack.faulty.faults_injected
                             if stack.faulty else 0),
            retries=stack.resilient.retries if stack.resilient else 0,
            reconciliations=(stack.resilient.reconciliations
                             if stack.resilient else 0),
            breaker_trips=breaker.trips if breaker else 0,
            checkpoints_written=self.checkpoints_written,
            journal_appends=stack.journal.appends if stack.journal else 0,
            chains_total=num_chains,
            chains_completed=sorted(self.completed),
            chains_incomplete=sorted(self.incomplete),
            chains_resumed=sorted(self.resumed),
        )

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
