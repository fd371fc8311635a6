"""Label oracles for the active setting (Problem 1).

In the paper's model every label starts hidden and an algorithm pays one
unit of *probing cost* per point whose label it asks the oracle to reveal.
:class:`LabelOracle` implements exactly this accounting:

* a probe of a point charges one unit the *first* time that point is probed
  and is free afterwards (the label is already known — re-asking gains
  nothing, so the paper's with-replacement sampling never pays more than
  ``n`` in total);
* an optional hard budget turns over-spending into an exception, which the
  lower-bound experiments use to certify probe counts;
* the full probe log is kept for auditing and for the experiment harness.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..obs import recorder
from .points import HIDDEN, PointSet

__all__ = ["LabelOracle", "OracleShard", "ProbeOracle", "ProbeBudgetExceeded"]


class ProbeOracle(Protocol):
    """Structural type of everything the active algorithms probe against.

    Satisfied by :class:`LabelOracle`,
    :class:`~repro.core.callback_oracle.CallbackOracle`, and
    :class:`OracleShard`.  The 1-D recursion needs only :meth:`probe`; it
    probes each sample with one ``probe_many`` call when the oracle has
    one.
    """

    def probe(self, index: int) -> int:
        """Reveal and return the label of point ``index``."""
        ...

    @property
    def cost(self) -> int:
        """Distinct points charged so far."""
        ...


class ProbeBudgetExceeded(RuntimeError):
    """Raised when an algorithm attempts to exceed its probe budget."""


class OracleShard:
    """Picklable worker-side oracle restricted to a subset of point indices.

    A shard is what a parallel worker probes against: it carries either the
    ground-truth labels of its indices (sharded from a
    :class:`LabelOracle`) or a labeling callable plus the relevant
    coordinates (sharded from a
    :class:`~repro.core.callback_oracle.CallbackOracle`).  It mirrors the
    parent oracle's accounting exactly — one charge per distinct probe,
    repeats free, the same ``oracle.*`` instrumentation counters.

    By default budgets are *not* enforced shard-side: the parent enforces
    its budget when the shard's probes are absorbed back
    (:meth:`LabelOracle.absorb`), keeping the global distinct-probe count
    exact even when chains run in separate processes.  Passing ``budget=``
    adds a shard-local cap on *newly charged* probes on top of that, so a
    runaway worker fails fast inside its own process (with
    :class:`ProbeBudgetExceeded`) instead of over-spending and only being
    caught at absorb time.

    Labels already revealed by the parent before sharding are pre-seeded,
    so re-probing them is free shard-side just as it would have been in the
    parent (they count as dedup hits, not charges, and never against the
    shard budget).
    """

    __slots__ = ("_labels", "_labeler", "_coords", "_preknown", "_revealed",
                 "_log", "budget")

    def __init__(
        self,
        labels: Optional[Dict[int, int]] = None,
        labeler: Optional[Callable[[Sequence[float]], int]] = None,
        coords: Optional[Dict[int, Tuple[float, ...]]] = None,
        preknown: Optional[Dict[int, int]] = None,
        budget: Optional[int] = None,
    ) -> None:
        if (labels is None) == (labeler is None):
            raise ValueError("provide exactly one of labels= or labeler=")
        if labeler is not None and coords is None:
            raise ValueError("labeler= requires coords=")
        if budget is not None and budget < 0:
            raise ValueError(f"shard budget must be >= 0; got {budget}")
        self._labels = labels
        self._labeler = labeler
        self._coords = coords
        self._preknown = dict(preknown or {})
        self._revealed: Dict[int, int] = dict(self._preknown)
        self._log: List[int] = []
        self.budget = budget

    def probe(self, index: int) -> int:
        """Reveal the label of ``index``; first reveal charges one unit."""
        index = int(index)
        self._log.append(index)
        rec = recorder()
        if rec.enabled:
            rec.incr("oracle.requests")
        if index in self._revealed:
            if rec.enabled:
                rec.incr("oracle.dedup_hits")
            return self._revealed[index]
        if self.budget is not None and self.cost >= self.budget:
            if rec.enabled:
                rec.incr("oracle.budget_exceeded")
            raise ProbeBudgetExceeded(
                f"shard probe budget of {self.budget} distinct points exhausted"
            )
        # Only *charged* probes are timed: dedup hits are dictionary reads
        # and timing them would drown the latency distribution in noise.
        start = perf_counter() if rec.enabled else 0.0
        if self._labels is not None:
            if index not in self._labels:
                raise IndexError(f"point index {index} is not in this shard")
            label = int(self._labels[index])
        else:
            assert self._labeler is not None and self._coords is not None
            if index not in self._coords:
                raise IndexError(f"point index {index} is not in this shard")
            label = int(self._labeler(self._coords[index]))
            if label not in (0, 1):
                raise ValueError(
                    f"labeler returned {label!r} for point {index}; expected 0 or 1"
                )
        self._revealed[index] = label
        if rec.enabled:
            rec.incr("oracle.probes")
            rec.record_time("oracle.probe_seconds", perf_counter() - start)
        return label

    def probe_many(self, indices: Iterable[int]) -> List[int]:
        """Probe a sequence of points, returning their labels in order."""
        return [self.probe(i) for i in indices]

    def peek(self, index: int) -> Optional[int]:
        """Return the label of ``index`` if already revealed, else ``None``."""
        return self._revealed.get(int(index))

    @property
    def cost(self) -> int:
        """Distinct points newly charged by this shard."""
        return len(self._revealed) - len(self._preknown)

    @property
    def log(self) -> List[int]:
        """Every probe call issued against this shard, in order."""
        return list(self._log)

    @property
    def new_revealed(self) -> Dict[int, int]:
        """Labels first revealed by this shard (insertion order), for absorb."""
        return {
            index: label
            for index, label in self._revealed.items()
            if index not in self._preknown
        }

    def remaining_budget(self) -> Optional[int]:
        """Shard-local charges still allowed, or ``None`` if uncapped."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.cost)

    def __repr__(self) -> str:
        universe = self._labels if self._labels is not None else self._coords
        size = len(universe) if universe is not None else 0
        return f"OracleShard(size={size}, cost={self.cost}, budget={self.budget})"


def _absorb_probes(
    revealed: Dict[int, int],
    log: List[int],
    budget: Optional[int],
    shard_log: Sequence[int],
    shard_revealed: Dict[int, int],
    verify: Optional[Callable[[int, int], None]] = None,
) -> None:
    """Fold a shard's probe log and reveals into a parent oracle's state.

    Deliberately does *not* touch the metrics recorder: the worker already
    recorded ``oracle.requests`` / ``oracle.probes`` / ``oracle.dedup_hits``
    into its own registry, which the pool merges back separately —
    incrementing here would double-count.  Budget is enforced entry by
    entry so an overflow raises with the budget exactly exhausted, the same
    terminal state a serial run reaches.
    """
    log.extend(int(i) for i in shard_log)
    for index, label in shard_revealed.items():
        index = int(index)
        if index in revealed:
            continue
        if budget is not None and len(revealed) >= budget:
            rec = recorder()
            if rec.enabled:
                rec.incr("oracle.budget_exceeded")
            raise ProbeBudgetExceeded(
                f"probe budget of {budget} distinct points exhausted"
            )
        if verify is not None:
            verify(index, int(label))
        revealed[index] = int(label)


class LabelOracle:
    """Reveals hidden labels of a ground-truth point set, charging per point.

    Parameters
    ----------
    ground_truth:
        Fully labeled point set.  Algorithms under test must only see it
        through :meth:`probe`.
    budget:
        Optional maximum number of *distinct* points that may be probed.
    """

    def __init__(self, ground_truth: PointSet, budget: Optional[int] = None) -> None:
        ground_truth.require_full_labels()
        self._labels = ground_truth.labels
        self.budget = budget
        self._revealed: Dict[int, int] = {}
        # Boolean mirror of ``_revealed``'s keys for :meth:`probe_many`;
        # every method that reveals or forgets a label updates both.
        self._revealed_mask = np.zeros(len(self._labels), dtype=bool)
        self._log: List[int] = []

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe(self, index: int) -> int:
        """Reveal and return the label of point ``index``.

        Charges one unit of probing cost on the first call for ``index``.
        """
        index = int(index)
        if not 0 <= index < len(self._labels):
            raise IndexError(f"point index {index} out of range")
        self._log.append(index)
        rec = recorder()
        if rec.enabled:
            rec.incr("oracle.requests")
        if index in self._revealed:
            if rec.enabled:
                rec.incr("oracle.dedup_hits")
            return self._revealed[index]
        if self.budget is not None and len(self._revealed) >= self.budget:
            if rec.enabled:
                rec.incr("oracle.budget_exceeded")
            raise ProbeBudgetExceeded(
                f"probe budget of {self.budget} distinct points exhausted"
            )
        label = int(self._labels[index])
        self._revealed[index] = label
        self._revealed_mask[index] = True
        if rec.enabled:
            rec.incr("oracle.probes")
            if self.budget is not None:
                rec.gauge("oracle.budget_remaining",
                          self.budget - len(self._revealed))
        return label

    def probe_many(self, indices: Iterable[int]) -> List[int]:
        """Probe a sequence of points, returning their labels in order.

        Same outcome as ``[self.probe(i) for i in indices]`` — labels, log,
        cost, reveal order, ``oracle.*`` counters, and on failure the same
        exception raised with the same state — computed in a few array
        passes.  Index sequences that are not integer arrays take the loop.
        """
        idx = np.asarray(indices if isinstance(indices, np.ndarray)
                         else list(indices))
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            return [self.probe(i) for i in idx.tolist()]
        n = len(self._labels)
        out_of_range = np.flatnonzero((idx < 0) | (idx >= n))
        stop = int(out_of_range[0]) if len(out_of_range) else len(idx)
        valid = idx[:stop]
        # Positions of first reveals, in request order.
        fresh = np.flatnonzero(~self._revealed_mask[valid])
        _, first = np.unique(valid[fresh], return_index=True)
        fresh = np.sort(fresh[first])
        error: Optional[Exception] = None
        allowed = len(fresh) if self.budget is None else \
            max(0, self.budget - len(self._revealed))
        refused = len(fresh) > allowed
        if refused:
            # The first reveal past the budget is logged, then refused.
            stop = int(fresh[allowed])
            fresh = fresh[fresh < stop]
            error = ProbeBudgetExceeded(
                f"probe budget of {self.budget} distinct points exhausted"
            )
            self._log.extend(idx[:stop + 1].tolist())
        else:
            self._log.extend(valid.tolist())
            if stop < len(idx):
                error = IndexError(f"point index {int(idx[stop])} out of range")
        charged = valid[fresh]
        self._revealed.update(zip(charged.tolist(),
                                  self._labels[charged].tolist()))
        self._revealed_mask[charged] = True
        rec = recorder()
        if rec.enabled:
            if stop + refused:
                rec.incr("oracle.requests", stop + int(refused))
            if stop > len(charged):
                rec.incr("oracle.dedup_hits", stop - len(charged))
            if refused:
                rec.incr("oracle.budget_exceeded")
            if len(charged):
                rec.incr("oracle.probes", len(charged))
                if self.budget is not None:
                    rec.gauge("oracle.budget_remaining",
                              self.budget - len(self._revealed))
        if error is not None:
            raise error
        return self._labels[idx].tolist()

    def peek(self, index: int) -> Optional[int]:
        """Return the label of ``index`` if already revealed, else ``None``.

        Never charges cost; algorithms use this to avoid double-probing.
        """
        return self._revealed.get(int(index))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def cost(self) -> int:
        """Probing cost so far: number of distinct points revealed."""
        return len(self._revealed)

    @property
    def probes_used(self) -> int:
        """Alias of :attr:`cost` — distinct points charged so far.

        The ``oracle.probes`` counter in a metrics session equals this
        exactly; ``tests/test_obs.py`` pins the invariant.
        """
        return len(self._revealed)

    @property
    def total_requests(self) -> int:
        """Number of probe calls including free repeats."""
        return len(self._log)

    @property
    def revealed_indices(self) -> List[int]:
        """Indices of all points revealed so far (insertion order)."""
        return list(self._revealed.keys())

    @property
    def log(self) -> List[int]:
        """The full probe log (every call, including repeats)."""
        return list(self._log)

    def revealed_labels(self, n: int) -> np.ndarray:
        """Label vector of length ``n`` with un-probed entries = ``HIDDEN``."""
        out = np.full(n, HIDDEN, dtype=np.int8)
        for idx, label in self._revealed.items():
            out[idx] = label
        return out

    def remaining_budget(self) -> Optional[int]:
        """Distinct probes still allowed, or ``None`` if unbudgeted."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.cost)

    def reset(self) -> None:
        """Forget all revealed labels and reset the cost to zero."""
        self._revealed.clear()
        self._revealed_mask[:] = False
        self._log.clear()

    def restore(self, revealed: Dict[int, int]) -> int:
        """Re-seed already-paid reveals from a crash-safe probe journal.

        Each entry is validated against the ground truth and inserted as a
        revealed (charged) label *without* appending to the probe log —
        the probes were issued and logged by the interrupted run; the
        resumed run merely inherits their labels so re-asking is free.
        Entries already revealed are skipped.  Returns the number of
        labels newly restored.
        """
        restored = 0
        for index, label in revealed.items():
            index, label = int(index), int(label)
            if not 0 <= index < len(self._labels):
                raise IndexError(f"point index {index} out of range")
            truth = int(self._labels[index])
            if label != truth:
                raise ValueError(
                    f"journaled label {label} for point {index} contradicts "
                    f"ground truth {truth}"
                )
            if index in self._revealed:
                continue
            self._revealed[index] = label
            self._revealed_mask[index] = True
            restored += 1
        return restored

    # ------------------------------------------------------------------
    # Parallel sharding
    # ------------------------------------------------------------------

    def shard(self, indices: Sequence[int],
              budget: Optional[int] = None) -> OracleShard:
        """A picklable shard serving only ``indices`` (for worker processes).

        The shard carries the ground-truth labels of its indices plus any
        already-revealed labels among them (re-probing those stays free in
        the worker).  By default no budget travels with the shard; the
        parent enforces its budget when the shard's probes come back via
        :meth:`absorb`.  Pass ``budget=`` (typically the parent's remaining
        budget) to additionally cap the shard's own new charges in-process.
        """
        labels: Dict[int, int] = {}
        preknown: Dict[int, int] = {}
        for index in indices:
            index = int(index)
            if not 0 <= index < len(self._labels):
                raise IndexError(f"point index {index} out of range")
            labels[index] = int(self._labels[index])
            if index in self._revealed:
                preknown[index] = self._revealed[index]
        return OracleShard(labels=labels, preknown=preknown, budget=budget)

    def absorb(self, shard_log: Sequence[int], shard_revealed: Dict[int, int]) -> None:
        """Merge a shard's probes back, keeping accounting exact.

        Extends the probe log, charges each newly revealed point against
        the budget (raising :class:`ProbeBudgetExceeded` with the budget
        exactly exhausted on overflow), and validates every label against
        the ground truth.  Metrics counters are *not* incremented here —
        the worker's registry already holds them.
        """

        def verify(index: int, label: int) -> None:
            truth = int(self._labels[index])
            if label != truth:
                raise ValueError(
                    f"shard label {label} for point {index} contradicts "
                    f"ground truth {truth}"
                )
            # Called just before the reveal is stored; nothing in between
            # can fail, so marking it here keeps the mask in sync.
            self._revealed_mask[index] = True

        _absorb_probes(self._revealed, self._log, self.budget,
                       shard_log, shard_revealed, verify)
        rec = recorder()
        if rec.enabled and self.budget is not None:
            rec.gauge("oracle.budget_remaining",
                      self.budget - len(self._revealed))

    def __repr__(self) -> str:
        return (f"LabelOracle(n={len(self._labels)}, cost={self.cost}, "
                f"budget={self.budget})")
