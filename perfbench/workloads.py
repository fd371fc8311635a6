"""The three benchmark workloads: seeded inputs, timed phases, checks.

Each workload drives the production entry points only:

* ``fit_artifact`` + ``save_artifact`` (+ ``load_artifact`` for the
  digest round trip) — the ``repro fit`` path;
* ``ModelFleet.dispatch`` / ``ModelFleet.poll`` — the
  ``repro serve --fleet`` path.

Every call into a layer sits inside a span taken from
``obs.recorder()``.  Outside a metrics session that is the no-op
recorder, so the end-to-end runs pay nothing for it; inside
``obs.metrics_session(trace=True)`` the spans become the benchmark's own
layer boundaries and the program's spans (``passive``, ``matching``,
``max_flow`` ...) nest beneath them.  Timers sit inside the spans, so a
span never adds to the time it brackets.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import LabelOracle, active_classify, obs
from repro.core.points import PointSet
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.experiments._common import chainwise_optimum
from repro.serve import ModelArtifact, ModelFleet, read_serve_journal
from repro.serve.artifact import fit_artifact, load_artifact, save_artifact

import layers

#: Label noise of the passive instances and of the served models.
PASSIVE_NOISE = 0.1
#: Label noise of the active instance.
ACTIVE_NOISE = 0.05
#: Approximation slack of the active fit (Theorem 2).
EPSILON = 1.0
#: Share of requests that are batches rather than single points.
P_BATCH = 0.05
#: Relative tolerance of the optimum checks.
REL_TOL = 1e-9
#: Requests between two calibrations of an untraced serve phase.
CALIBRATE_EVERY = 500


@dataclass(frozen=True)
class Scale:
    """Input sizes and phase lengths of one benchmark scale."""

    passive_n: int
    active_n: int
    active_width: int
    serve_n: int
    serve_models: int
    batch: int
    pool: int
    instances: int
    tail_seconds: float
    journal_seconds: float


SCALES = {
    "full": Scale(
        passive_n=8192, active_n=200_000, active_width=16, serve_n=4096,
        serve_models=4, batch=512, pool=4096, instances=4,
        tail_seconds=8.0, journal_seconds=2.0,
    ),
    "tiny": Scale(
        passive_n=300, active_n=4000, active_width=4, serve_n=300,
        serve_models=4, batch=64, pool=512, instances=2,
        tail_seconds=0.2, journal_seconds=0.2,
    ),
}


@dataclass(frozen=True)
class Mix:
    """A serve phase's request mix and the samples it must collect."""

    #: Share of requests sent to the model that is not resident.
    p_cold: float
    #: Requests between two artifact rewrites + ``poll()``.
    swap_every: int
    min_singles: int
    min_batches: int
    min_colds: int
    min_swaps: int


#: ``serve_fleet``'s client.
FLEET_MIX = Mix(p_cold=0.01, swap_every=500, min_singles=1000, min_batches=20,
                min_colds=10, min_swaps=5)
#: The serve phase that ends a fit workload.  Its artifacts are large
#: (the active one holds 200k chain indices), so it sends fewer requests
#: to the cold model and needs a fixed number of samples rather than time
#: to give steady medians.
TAIL_MIX = Mix(p_cold=0.0005, swap_every=2000, min_singles=20_000, min_batches=40,
               min_colds=20, min_swaps=10)


@dataclass
class Tally:
    """Operations attempted and failed (a failed check counts as failed)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Calibration:
    """Host speed, from a fixed kernel timed between the operations.

    On a shared VM the host's speed drifts by 30% and more over minutes,
    and every timing of a run moves with it.  The kernel mixes what the
    workloads spend their time on: interpreter loops (matching, flow),
    numpy broadcast compares (``classify_matrix``) and JSON + SHA-256
    (artifact write and verify).  A host-speed factor is a median kernel
    time over :data:`NOMINAL_S`.  Every timing is divided by the factor
    measured next to it — around each fit, during each serve phase,
    right after each set-up — which reports it as seconds on a host where
    the kernel takes :data:`NOMINAL_S`.
    """

    #: Median kernel time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).
    NOMINAL_S = 0.0105

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._coords = rng.random((256, 3))
        self._anchors = rng.random((64, 3))
        self._doc = {"rows": rng.random((150, 3)).tolist(), "ids": list(range(1000))}
        self.samples: List[float] = []

    def _kernel(self) -> None:
        total, table = 0, {}
        for i in range(10_000):
            table[i & 1023] = total
            total += i * 3 % 7
        for _ in range(10):
            np.any(np.all(self._coords[:, None, :] >= self._anchors[None, :, :],
                          axis=2), axis=1)
        text = json.dumps(self._doc, sort_keys=True)
        hashlib.sha256(text.encode()).hexdigest()
        json.loads(text)

    def sample(self, times: int = 1) -> float:
        """Time the kernel ``times`` times; the host-speed factor now."""
        new = []
        for _ in range(times):
            started = perf_counter()
            self._kernel()
            new.append(perf_counter() - started)
        self.samples.extend(new)
        return median(new) / self.NOMINAL_S

    @property
    def factor(self) -> float:
        """The host-speed factor over the whole run."""
        return median(self.samples) / self.NOMINAL_S if self.samples else 1.0


@dataclass
class Context:
    """What every workload needs: sizes, seed, scratch space, tallies."""

    scale: Scale
    seed: int
    work: Path
    expected: Dict[str, float]
    tally: Tally = field(default_factory=Tally)
    calibration: Calibration = field(default_factory=Calibration)


def instance_rng(seed: int, instance: int) -> np.random.Generator:
    """The generator of input instance ``instance`` under ``seed``."""
    return np.random.default_rng([seed, instance])


def passive_instance(scale: Scale, seed: int, instance: int) -> PointSet:
    """Input ``instance`` of ``fit_passive_d3`` under ``seed``."""
    return planted_monotone(scale.passive_n, 3, noise=PASSIVE_NOISE,
                            weights="random", rng=instance_rng(seed, instance))


def active_instance(scale: Scale, seed: int, instance: int) -> PointSet:
    """Input ``instance`` of ``fit_active_2d`` under ``seed``."""
    return width_controlled(scale.active_n, scale.active_width,
                            noise=ACTIVE_NOISE, rng=instance_rng(seed, instance))


def served_instance(scale: Scale, k: int) -> PointSet:
    """Training set of model ``k`` of ``serve_fleet``.

    The served models do not depend on the seed: their anchor counts set
    the cost of every query, and four random models per seed would spread
    the serve metrics across seeds by more than their bounds.  The seed
    drives the query pools, the request stream and the swap schedule.
    """
    return planted_monotone(scale.serve_n, 3, noise=PASSIVE_NOISE,
                            weights="random", rng=instance_rng(1000, k))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def span(name: str) -> Any:
    return obs.recorder().span(name)


# ----------------------------------------------------------------------
# Fit + save + verified load, and the checks on its outputs
# ----------------------------------------------------------------------


@dataclass
class FitOutcome:
    artifact: ModelArtifact
    digest: str
    loaded: ModelArtifact
    fit_s: float
    nbytes: int


def fit_save_load(points: PointSet, path: Path, mode: str, seed: int) -> FitOutcome:
    """One user fit: ``fit_artifact`` then ``save_artifact``; then reload.

    ``fit_s`` covers fit and save, the cost of ``repro fit``.  The verified
    reload that follows is the digest round-trip check.
    """
    t0 = perf_counter()
    with span("fit"):
        if mode == "passive":
            artifact = fit_artifact(points, mode="passive")
        else:
            artifact = fit_artifact(points, mode="active", epsilon=EPSILON, seed=seed)
    with span("save"):
        digest = save_artifact(artifact, path)
    fit_s = perf_counter() - t0
    with span("load_verify"):
        loaded = load_artifact(path)
    return FitOutcome(artifact, digest, loaded, fit_s, path.stat().st_size)


def weighted_error(classifier: Any, points: PointSet) -> float:
    predictions = classifier.classify_matrix(points.coords)
    return float(np.sum(points.weights[predictions != points.labels]))


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def check_passive(points: PointSet, out: FitOutcome,
                  expected: Optional[float]) -> tuple:
    """Certificate optimum == served error (== recorded optimum, if any).

    Returns ``(ok, served error / certificate optimum, detail)``.
    """
    with span("check"):
        optimum = float(out.artifact.certificate["optimal_error"])
        served = weighted_error(out.loaded.classifier, points)
    ok = out.loaded.digest == out.digest and rel_close(optimum, served)
    if expected is not None:
        ok = ok and rel_close(optimum, expected)
    ratio = served / optimum if optimum > 0 else (1.0 if served == 0 else float("inf"))
    detail = (f"passive check: certificate {optimum!r}, served {served!r}, "
              f"recorded {expected!r}, digest round trip "
              f"{out.loaded.digest == out.digest}")
    return ok, ratio, detail


def check_active(points: PointSet, out: FitOutcome, optimum: float) -> tuple:
    """Achieved error / chainwise optimum must be <= 1 + epsilon."""
    with span("check"):
        served = weighted_error(out.loaded.classifier, points)
    ratio = served / optimum if optimum > 0 else (1.0 if served == 0 else float("inf"))
    ok = out.loaded.digest == out.digest and ratio <= 1.0 + EPSILON
    detail = (f"active check: served {served!r} / optimum {optimum!r} = "
              f"{ratio!r}, digest round trip {out.loaded.digest == out.digest}")
    return ok, ratio, detail


# ----------------------------------------------------------------------
# Serving: deployed models, the closed-loop client, hot swaps
# ----------------------------------------------------------------------


@dataclass
class Deployed:
    """A model the benchmark deployed, with its query pool and answers."""

    name: str
    path: Path
    artifact: ModelArtifact
    pool: np.ndarray
    ref: np.ndarray = field(init=False)
    revision: int = 0

    def __post_init__(self) -> None:
        self.ref = self.artifact.classifier.classify_matrix(self.pool)

    def redeploy(self) -> None:
        """Rewrite the artifact: same classifier, changed fit metadata."""
        self.revision += 1
        old = self.artifact
        self.artifact = ModelArtifact(
            classifier=old.classifier,
            fallback=old.fallback,
            fit={**old.fit, "revision": self.revision},
            chains=old.chains,
            certificate=old.certificate,
        )
        save_artifact(self.artifact, self.path)
        self.ref = self.artifact.classifier.classify_matrix(self.pool)


def query_pool(points: PointSet, size: int, rng: np.random.Generator) -> np.ndarray:
    """Queries of a served model: ``size`` random training points."""
    return np.ascontiguousarray(points.coords[rng.integers(0, points.n, size=size)])


def deploy(name: str, artifact: ModelArtifact, directory: Path,
           pool: np.ndarray) -> Deployed:
    """Save ``artifact`` under ``directory`` as model ``name``."""
    path = directory / f"{name}.json"
    with span("save"):
        save_artifact(artifact, path)
    return Deployed(name, path, artifact, pool)


@dataclass
class ServeSamples:
    """Latency samples of one serve phase, in seconds."""

    single: List[float] = field(default_factory=list)
    batch: List[float] = field(default_factory=list)
    cold: List[float] = field(default_factory=list)
    swap: List[float] = field(default_factory=list)
    replay: List[float] = field(default_factory=list)
    classify_s: float = 0.0
    classify_points: int = 0
    requests: int = 0

    def quotas_met(self, mix: Mix) -> bool:
        return (len(self.single) >= mix.min_singles
                and len(self.batch) >= mix.min_batches
                and len(self.cold) >= mix.min_colds
                and len(self.swap) >= mix.min_swaps)

    def p99_single(self) -> float:
        """p99 per window of >= 1000 consecutive single-point requests,
        median over the windows, so one burst of host noise moves at most
        one window."""
        windows = np.array_split(np.asarray(self.single),
                                 max(1, len(self.single) // 1000))
        return median([percentile(list(w), 99) for w in windows if len(w)])

    def absorb(self, segment: "ServeSamples", factor: float) -> None:
        """Add a segment's latencies, divided by its host-speed factor."""
        for mine, theirs in ((self.single, segment.single), (self.batch, segment.batch),
                             (self.cold, segment.cold), (self.swap, segment.swap)):
            mine.extend(x / factor for x in theirs)

    def metrics(self, batch_size: int) -> Dict[str, float]:
        busy = sum(self.batch)
        return {
            "serve_p50_us": median(self.single) * 1e6,
            "serve_p99_us": self.p99_single() * 1e6,
            "serve_points_per_s": batch_size * len(self.batch) / busy if busy else 0.0,
            "serve_cold_load_ms": median(self.cold) * 1e3,
            "serve_swap_ms": median(self.swap) * 1e3,
        }


def open_fleet(models: List[Deployed], ctx: Context,
               journal_dir: Optional[Path] = None) -> ModelFleet:
    """A fleet holding all but one model resident; every model loaded once."""
    fleet = ModelFleet(
        {m.name: m.path for m in models},
        resident_limit=len(models) - 1,
        journal_dir=journal_dir,
    )
    for model in models:
        with span("dispatch_cold"):
            result = fleet.dispatch(model.name, model.pool[:1])
        ctx.tally.add(result.ok and result.labels is not None
                      and bool(result.labels[0] == model.ref[0]),
                      f"first load of {model.name}: {result.status}")
    return fleet


def _swap(fleet: ModelFleet, models: Dict[str, Deployed], ctx: Context,
          samples: ServeSamples) -> None:
    """Rewrite the most recently used model's artifact, then ``poll()``."""
    model = models[fleet.resident[-1]]
    with span("rewrite"):
        model.redeploy()
    with span("poll_swap"):
        started = perf_counter()
        events = fleet.poll()
        elapsed = perf_counter() - started
    promoted = any(e.get("model") == model.name and e.get("action") == "promote"
                   for e in events)
    if ctx.tally.add(promoted, f"swap of {model.name}: {events}"):
        samples.swap.append(elapsed)


def serve_loop(fleet: ModelFleet, models: List[Deployed], seconds: float,
               ctx: Context, traced: bool, mix: Mix = FLEET_MIX,
               journal_dir: Optional[Path] = None) -> ServeSamples:
    """One closed-loop client against ``fleet`` for ``seconds``.

    The last model receives ``mix.p_cold`` of the requests, so it is
    evicted and cold-loaded over and over, and the model it evicts misses
    later too.  ``P_BATCH`` of the requests are ``scale.batch``-point
    batches, the rest single points.  Every ``mix.swap_every`` requests
    one resident model's artifact is rewritten and the fleet polled, which
    runs the verified hot swap.  The loop runs until ``seconds`` have
    passed and every sample quota of ``mix`` is met (or ``seconds + 60``
    at most).

    Untraced, the loop times the calibration kernel at its start and every
    ``CALIBRATE_EVERY`` requests, and divides the latencies of each segment
    in between by the mean of the factors at its two ends.
    With ``journal_dir`` (the fleet's journal directory), the journal a
    cold load replays is first read and timed on its own.
    """
    scale = ctx.scale
    samples, segment = ServeSamples(), ServeSamples()
    by_name = {m.name: m for m in models}
    hot, cold = models[:-1], models[-1]
    rng = instance_rng(ctx.seed, 7)

    def calibrate() -> float:
        return 1.0 if traced else ctx.calibration.sample(2)

    factor = calibrate()
    with span("serve_loop"):
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and samples.quotas_met(mix)) or elapsed >= seconds + 60:
                break
            if samples.requests and samples.requests % CALIBRATE_EVERY == 0:
                next_factor = calibrate()
                samples.absorb(segment, (factor + next_factor) / 2)
                segment, factor = ServeSamples(), next_factor
            if samples.requests and samples.requests % mix.swap_every == 0:
                _swap(fleet, by_name, ctx, segment)
            model = cold if rng.random() < mix.p_cold else hot[int(rng.integers(len(hot)))]
            size = scale.batch if rng.random() < P_BATCH else 1
            first = int(rng.integers(0, len(model.pool) - size + 1))
            coords = model.pool[first:first + size]
            resident = model.name in fleet.resident
            if not resident and journal_dir is not None:
                with span("journal_replay"):
                    started = perf_counter()
                    read_serve_journal(journal_dir / f"{model.name}.journal.jsonl")
                    samples.replay.append(perf_counter() - started)
            kind = "single" if size == 1 else "batch"
            with span("dispatch_" + (kind if resident else "cold")):
                started = perf_counter_ns()
                result = fleet.dispatch(model.name, coords)
                latency = (perf_counter_ns() - started) / 1e9
            samples.requests += 1
            ok = (result.ok and result.labels is not None
                  and np.array_equal(result.labels, model.ref[first:first + size]))
            if ctx.tally.add(ok, f"request to {model.name}: {result.status}"):
                if not resident:
                    segment.cold.append(latency)
                elif size == 1:
                    segment.single.append(latency)
                else:
                    segment.batch.append(latency)
            if traced and size > 1:
                with span("classify_matrix"):
                    started = perf_counter()
                    model.artifact.classifier.classify_matrix(coords)
                    samples.classify_s += perf_counter() - started
                    samples.classify_points += size
    samples.absorb(segment, (factor + calibrate()) / 2)
    return samples


def journaled_phase(models: List[Deployed], ctx: Context, seconds: float,
                    journal_dir: Path, mix: Mix = FLEET_MIX) -> Dict[str, float]:
    """Per-layer only: the same client against a fleet with request journals.

    The end-to-end serve phases run without journals: the benchmark may
    write only inside its checkout, and on an ordinary disk the ``fsync``
    after every answered request spread ``serve_p99_us`` across runs by
    more than any usable bound.  The traced pass measures the journal here
    instead: what it adds to a single-point dispatch, how large it grows
    and how long a cold load spends replaying it.
    """
    with span("journaled"):
        with open_fleet(models, ctx, journal_dir) as fleet:
            samples = serve_loop(fleet, models, seconds, ctx, traced=True, mix=mix,
                                 journal_dir=journal_dir)
    size = sum(p.stat().st_size for p in journal_dir.glob("*") if p.is_file())
    return {
        "engine.journal_bytes": float(size),
        "engine.journaled_p50_us": median(samples.single) * 1e6,
        "fleet.journal_replay_ms": median(samples.replay) * 1e3,
    }


def serve_layer_extras(models: List[Deployed],
                       samples: ServeSamples) -> Dict[str, float]:
    per_point = (samples.classify_s / samples.classify_points * 1e6
                 if samples.classify_points else 0.0)
    anchors = [getattr(m.artifact.classifier, "num_anchors", 0) for m in models]
    return {
        "classifier.anchors": float(np.mean(anchors)),
        "classifier.classify_us_per_point": per_point,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class FitWorkload:
    """``fit_passive_d3`` / ``fit_active_2d``: repeated fit + save.

    Repetition ``r`` fits input instance ``r mod scale.instances`` — a
    fresh ``PointSet`` every time, so order caches are paid as a user
    pays them.  After the timed fits, a short serve phase deploys every
    fitted instance (plus a twin copy, the non-resident model) so the
    serve metrics are defined on this workload too.
    """

    def __init__(self, name: str, ctx: Context) -> None:
        self.name = name
        self.ctx = ctx
        self.mode = "passive" if name == "fit_passive_d3" else "active"
        self.first: Optional[PointSet] = None
        self.setup_fits: List[float] = []
        self._optima: Dict[int, float] = {}
        self._tails = 0

    def points(self, instance: int) -> PointSet:
        build = passive_instance if self.mode == "passive" else active_instance
        with span("generate"):
            return build(self.ctx.scale, self.ctx.seed, instance)

    def setup(self) -> None:
        self.first = self.points(0)

    def close(self) -> None:
        """Nothing outlives a call: each serve phase closes its own fleet."""

    def _optimum(self, instance: int, points: PointSet) -> float:
        if instance not in self._optima:
            with span("check"):
                self._optima[instance] = chainwise_optimum(points)
        return self._optima[instance]

    def fit_once(self, instance: int, points: PointSet) -> Optional[tuple]:
        """Fit, save, reload and check one instance; ``None`` if it raised."""
        ctx = self.ctx
        path = ctx.work / f"{self.name}-{instance}.json"
        try:
            out = fit_save_load(points, path, self.mode, ctx.seed)
            if self.mode == "passive":
                key = f"{self.name}/{ctx.seed}/{instance}"
                ok, ratio, detail = check_passive(points, out, ctx.expected.get(key))
                labels_read = points.n
            else:
                ok, ratio, detail = check_active(points, out,
                                                 self._optimum(instance, points))
                labels_read = int(out.artifact.fit["probes"])
        except Exception as exc:  # a fit that raises counts as failed
            ctx.tally.add(False, f"{self.name} instance {instance}: {exc!r}")
            return None
        ctx.tally.add(ok, detail)
        return out, ratio, labels_read

    def _serve_tail(self, fitted: Dict[int, tuple], seconds: float,
                    traced: bool) -> tuple:
        """Serve every fitted instance, plus a twin copy as the cold model."""
        ctx = self.ctx
        self._tails += 1
        directory = ctx.work / f"{self.name}-serve-{self._tails}"
        directory.mkdir()
        models = [deploy(f"instance{k}", artifact, directory, pool)
                  for k, (artifact, pool) in sorted(fitted.items())]
        artifact, pool = fitted[min(fitted)]
        models.append(deploy("twin", artifact, directory, pool))
        with open_fleet(models, ctx) as fleet:
            samples = serve_loop(fleet, models, seconds, ctx, traced, mix=TAIL_MIX)
        if traced:
            return samples.metrics(ctx.scale.batch), {
                **serve_layer_extras(models, samples),
                **journaled_phase(models, ctx, ctx.scale.journal_seconds,
                                  directory / "journals", mix=TAIL_MIX),
            }
        return samples.metrics(ctx.scale.batch), {}

    def measure(self, seconds: float, setup_fits: List[float]) -> Dict[str, float]:
        """End-to-end metrics; ``setup_fits`` is unused (no set-up fits)."""
        scale = self.ctx.scale
        calibration = self.ctx.calibration
        fit_s: List[float] = []
        ratios: List[float] = []
        labels: List[float] = []
        fitted: Dict[int, tuple] = {}
        pool_rng = instance_rng(self.ctx.seed, 5)
        rep = 0
        start = perf_counter()
        while rep < scale.instances or perf_counter() - start < seconds:
            instance = rep % scale.instances
            points = self.first if rep == 0 else self.points(instance)
            before = calibration.sample(3)
            done = self.fit_once(instance, points)
            after = calibration.sample(3)
            rep += 1
            if done is None:
                continue
            out, ratio, labels_read = done
            fit_s.append(out.fit_s * 2 / (before + after))
            ratios.append(ratio)
            labels.append(labels_read)
            if instance not in fitted:
                fitted[instance] = (out.loaded, query_pool(points, scale.pool, pool_rng))
        self.first = None
        metrics = {
            "fit_s": median(fit_s),
            "probes": median(labels),
            "error_ratio": median(ratios),
        }
        if fitted:
            metrics.update(self._serve_tail(fitted, scale.tail_seconds, traced=False)[0])
        return metrics

    def trace(self, seconds: float) -> Dict[str, Any]:
        """Untraced reps of instance 0, then one traced pass, per layer."""
        base: List[float] = []
        start = perf_counter()
        while len(base) < 2 or perf_counter() - start < seconds / 2:
            self.ctx.calibration.sample(3)
            done = self.fit_once(0, self.first if not base else self.points(0))
            if done is None:
                break
            base.append(done[0].fit_s)
        with obs.metrics_session(trace=True) as registry:
            started = perf_counter()
            points = self.points(0)
            done = self.fit_once(0, points)
            if done is not None:
                pool = query_pool(points, self.ctx.scale.pool,
                                  instance_rng(self.ctx.seed, 5))
                _metrics, extras = self._serve_tail(
                    {0: (done[0].loaded, pool)}, self.ctx.scale.tail_seconds,
                    traced=True)
            wall = perf_counter() - started
        if done is None:
            return {"registry": registry, "wall_s": wall, "extras": {}}
        out = done[0]
        extras.update({
            "artifact.bytes": float(out.nbytes),
            "obs.trace_overhead_frac": out.fit_s / median(base) - 1.0 if base else 0.0,
            "parallel.sample_chains_s_w2": 0.0,
            "parallel.speedup": 0.0,
        })
        if self.mode == "active":
            extras.update(self._parallel_pass(points, out, registry))
        return {"registry": registry, "wall_s": wall, "extras": extras}

    def _parallel_pass(self, points: PointSet, out: FitOutcome,
                       registry: Any) -> Dict[str, float]:
        """The chain-sampling phase again at ``workers=2``, traced apart."""
        ctx = self.ctx
        with obs.metrics_session(trace=True) as parallel:
            result = active_classify(points.with_hidden_labels(), LabelOracle(points),
                                     epsilon=EPSILON, rng=ctx.seed, workers=2)
        same = (result.probing_cost == int(out.artifact.fit["probes"])
                and np.array_equal(result.classifier.classify_matrix(points.coords),
                                   out.artifact.classifier.classify_matrix(points.coords)))
        ctx.tally.add(same, "workers=2 fit differs from the workers=1 fit")
        w1 = layers.cum_time(obs.profile_events(registry), "sample_chains")
        w2 = layers.cum_time(obs.profile_events(parallel), "sample_chains")
        return {"parallel.sample_chains_s_w2": w2,
                "parallel.speedup": w1 / w2 if w2 else 0.0}


class ServeWorkload:
    """``serve_fleet``: four fitted models behind one ``ModelFleet``."""

    name = "serve_fleet"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: Fit + save seconds of every set-up fit (``run.py`` adds those
        #: of its set-up child processes).
        self.setup_fits: List[float] = []
        self.ratios: List[float] = []
        self.labels_read = 0
        self.fleet: Optional[ModelFleet] = None
        self.models: List[Deployed] = []
        self._round = 0

    def _build(self) -> None:
        """Fit and save every model, open the fleet, load every model once."""
        ctx, scale = self.ctx, self.ctx.scale
        self._round += 1
        directory = ctx.work / f"models-{self._round}"
        directory.mkdir()
        pool_rng = instance_rng(ctx.seed, 6)
        self.models = []
        for k in range(scale.serve_models):
            with span("generate"):
                points = served_instance(scale, k)
            path = directory / f"fit-{k}.json"
            try:
                out = fit_save_load(points, path, "passive", ctx.seed)
                ok, ratio, detail = check_passive(
                    points, out, ctx.expected.get(f"{self.name}/{k}"))
            except Exception as exc:  # a fit that raises counts as failed
                ctx.tally.add(False, f"model {k}: {exc!r}")
                continue
            ctx.tally.add(ok, detail)
            self.setup_fits.append(out.fit_s)
            self.ratios.append(ratio)
            self.labels_read += points.n
            self.models.append(deploy(f"model{k}", out.loaded, directory,
                                      query_pool(points, scale.pool, pool_rng)))
        if len(self.models) < 2:
            raise RuntimeError("serve_fleet needs at least two fitted models")
        self.fleet = open_fleet(self.models, ctx)

    def setup(self) -> None:
        self._build()

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None

    def measure(self, seconds: float, setup_fits: List[float]) -> Dict[str, float]:
        """End-to-end metrics; ``fit_s`` is the median of ``setup_fits``,
        the normalised set-up fits of this and the set-up child processes."""
        samples = serve_loop(self.fleet, self.models, seconds, self.ctx, traced=False)
        metrics = {
            "fit_s": median(setup_fits),
            "probes": float(self.labels_read),
            "error_ratio": max(self.ratios) if self.ratios else 0.0,
        }
        metrics.update(samples.metrics(self.ctx.scale.batch))
        return metrics

    def trace(self, seconds: float) -> Dict[str, Any]:
        """Half the time untraced, then a traced set-up and serve phase."""
        base = serve_loop(self.fleet, self.models, seconds / 2, self.ctx, traced=False)
        self.close()
        with obs.metrics_session(trace=True) as registry:
            started = perf_counter()
            self._build()
            samples = serve_loop(self.fleet, self.models, seconds / 2, self.ctx,
                                 traced=True)
            self.close()
            journal = journaled_phase(self.models, self.ctx, self.ctx.scale.journal_seconds,
                                      self.ctx.work / f"journals-{self._round}")
            wall = perf_counter() - started
        extras = {**serve_layer_extras(self.models, samples), **journal}
        sizes = [m.path.stat().st_size for m in self.models]
        # The untraced latencies are normalised segment by segment; the
        # traced loop does not calibrate, so it takes the run's factor.
        base_p50 = median(base.single)
        traced_p50 = median(samples.single) / self.ctx.calibration.factor
        extras.update({
            "artifact.bytes": float(np.mean(sizes)),
            "obs.trace_overhead_frac": traced_p50 / base_p50 - 1.0 if base_p50 else 0.0,
            "parallel.sample_chains_s_w2": 0.0,
            "parallel.speedup": 0.0,
        })
        return {"registry": registry, "wall_s": wall, "extras": extras}


def make_workload(name: str, ctx: Context) -> Any:
    if name == "serve_fleet":
        return ServeWorkload(ctx)
    return FitWorkload(name, ctx)
