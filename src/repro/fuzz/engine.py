"""The differential engine: one instance, every independent check.

Differential testing in the query-engine-fuzzer style: run the same
instance through interchangeable implementations and treat *any*
divergence as a finding.  The passive solver's optimum is checked
against brute force for small ``n``.  For max-flow alone, the production
engine (array Dinic) is checked against the loop-Dinic reference, whose
per-arc flows it must reproduce bit for bit.  For the active problem,
``workers=1`` versus ``workers=2`` must be bit-for-bit identical and the
Theorem 2/3 accounting must audit clean.
Every result is additionally cross-checked against the machine-checkable
certificates in :mod:`repro.core.validation` and the flow-feasibility
check of :class:`~repro.flow.FlowNetwork`, and the greedy preflow the
passive solver starts from must be feasible and lead to the source side
loop Dinic finds from zero flow (:func:`check_preflow`).

A solve that *raises* is also a finding (kind ``"error"``) unless it
raises ``ValueError``: the strict validation boundary means hostile
instances either solve or are cleanly rejected with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..core.passive import (
    SINK,
    SOURCE,
    brute_force_passive,
    greedy_preflow,
    passive_network,
    solve_passive,
)
from ..core.points import PointSet
from ..core.validation import audit_active_result, audit_passive_result
from ..flow import (
    FlowNetwork,
    dinic_array_max_flow,
    dinic_max_flow,
    min_cut_from_residual,
    solve_min_cut,
)
from ..obs import recorder

if TYPE_CHECKING:
    from ..poset import ChainDecomposition

__all__ = [
    "Disagreement",
    "run_passive_differential",
    "check_preflow",
    "run_active_differential",
    "run_flow_differential",
    "check_poset_structure",
]

#: Relative tolerance for cross-implementation value agreement.
VALUE_RTOL = 1e-6

#: Ceiling for including the exponential brute-force oracle.
BRUTE_FORCE_MAX_N = 12

#: Ceiling for the poset structure checks, which build the dense order.
STRUCTURE_MAX_N = 1024

#: Label of the loop-Dinic reference in flow findings.
FLOW_REFERENCE = "loop_dinic"

#: Label of the production max-flow engine, and of the passive solver
#: that runs it, in findings.
ENGINE_LABEL = "dinic"


@dataclass(frozen=True)
class Disagreement:
    """One differential finding on one instance.

    Attributes
    ----------
    kind:
        ``"value_mismatch"`` (the solver and brute force, or two active
        worker counts, report different optima),
        ``"certificate"`` (an optimality/accounting audit failed),
        ``"error"`` (a solver raised something other than a clean
        ``ValueError`` rejection),
        ``"structure"`` (the Lemma 6 matching or chains are off), or
        ``"flow"`` (max-flow engines diverge or produced infeasible flow).
    config:
        Label of the configuration(s) involved.
    detail:
        Human-readable description with the observed values.
    """

    kind: str
    config: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.config}: {self.detail}"


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def run_passive_differential(points: PointSet) -> List[Disagreement]:
    """Solve one instance passively and cross-check everything.

    The solve is audited, compared with brute force for ``n <=
    BRUTE_FORCE_MAX_N``, and its greedy preflow checked
    (:func:`check_preflow`); the poset structure checks run for ``n <=
    STRUCTURE_MAX_N``.  Returns the (possibly empty) list of findings.  A
    ``ValueError`` from the solver is a clean rejection by the validation
    boundary, not a finding; any other exception is.
    """
    rec = recorder()
    findings: List[Disagreement] = []

    if rec.enabled:
        rec.incr("fuzz.configs_run")
    try:
        result = solve_passive(points)
    except ValueError:
        return findings  # clean rejection by the validation boundary
    except Exception as exc:  # noqa: BLE001 - every escape is data here
        findings.append(Disagreement(
            kind="error", config=ENGINE_LABEL,
            detail=f"raised {type(exc).__name__}: {exc} where a clean "
                   "solve or ValueError was expected",
        ))
    else:
        audit = audit_passive_result(points, result)
        if not audit.ok:
            findings.append(Disagreement(
                kind="certificate",
                config=ENGINE_LABEL,
                detail=f"audit failed: {', '.join(audit.failures)}",
            ))
        value = float(result.optimal_error)
        if points.n <= BRUTE_FORCE_MAX_N:
            brute = brute_force_passive(points, max_n=BRUTE_FORCE_MAX_N)
            if _relative_gap(brute, value) > VALUE_RTOL:
                findings.append(Disagreement(
                    kind="value_mismatch",
                    config=f"brute_force vs {ENGINE_LABEL}",
                    detail=f"brute force {brute!r} != solver {value!r}",
                ))
        findings.extend(check_preflow(points))

    if points.n <= STRUCTURE_MAX_N:
        findings.extend(check_poset_structure(points))

    if rec.enabled and findings:
        rec.incr("fuzz.disagreements", len(findings))
    return findings


def check_preflow(points: PointSet) -> List[Disagreement]:
    """Check the greedy preflow ``solve_passive`` seeds its network with.

    * the seed must be a feasible flow (capacity and conservation, to a
      tolerance relative to the total weight in the network);
    * max flow finished from the seed must leave the residual source side
      loop Dinic leaves from zero flow: the minimal minimum cut, from
      which the assignment is read.
    """
    label = "greedy_preflow"
    try:
        passive = passive_network(points)
        if passive.num_contending == 0:
            return []
        network = passive.network
        greedy_preflow(passive)
        scale = max(1.0, float(points.weights.sum()))
        if not network.check_flow_conservation(SOURCE, SINK, tol=1e-9 * scale):
            return [Disagreement(
                kind="flow", config=label,
                detail="produced an infeasible flow (conservation/capacity)",
            )]
        warm = solve_min_cut(network, SOURCE, SINK).source_side
        network.reset_flow()
        value = dinic_max_flow(network, SOURCE, SINK)
        cold = min_cut_from_residual(network, SOURCE, SINK, value).source_side
    except Exception as exc:  # noqa: BLE001 - every escape is data here
        return [Disagreement(
            kind="error", config=label,
            detail=f"raised {type(exc).__name__}: {exc}",
        )]
    if warm != cold:
        return [Disagreement(
            kind="flow", config=f"{FLOW_REFERENCE} vs {label}",
            detail=(f"warm-started source side ({len(warm)} vertices) differs "
                    f"from loop Dinic's from zero flow ({len(cold)})"),
        )]
    return []


def check_poset_structure(points: PointSet) -> List[Disagreement]:
    """Verify the Lemma 6 chain decompositions against the order.

    Checks the matching decomposition (see :func:`_check_matching`) and,
    for ``d <= 2``, the patience decomposition (see
    :func:`_check_patience`).
    """
    findings: List[Disagreement] = []
    if points.n == 0:
        return findings
    order = points.order_matrix()
    findings.extend(_check_matching(points, order))
    if points.dim <= 2:
        findings.extend(_check_patience(points, order))
    return findings


def _check_matching(points: PointSet, order: np.ndarray) -> List[Disagreement]:
    """Check the Lemma 6 matching against its reference and Dilworth.

    * bitset Hopcroft–Karp over the packed ``above`` rows must equal loop
      Hopcroft–Karp on the order adjacency vertex for vertex (the chains
      are read off ``left_match``, so equal sizes are not enough);
    * the matching chain decomposition must be valid, with as many chains
      as the König maximum antichain has points.
    """
    from ..poset import (
        hopcroft_karp,
        hopcroft_karp_bitset,
        matching_chain_decomposition,
        packed_order,
    )

    findings: List[Disagreement] = []
    n = points.n
    adjacency = [np.flatnonzero(order[:, u]).tolist() for u in range(n)]
    reference = hopcroft_karp(adjacency, n).left_match
    bitset = hopcroft_karp_bitset(packed_order(points).above, n).left_match
    if bitset != reference:
        u = next(u for u in range(n) if bitset[u] != reference[u])
        findings.append(Disagreement(
            kind="structure", config="hopcroft_karp_bitset",
            detail=(f"left vertex {u} matched to {bitset[u]}, loop "
                    f"Hopcroft-Karp matches it to {reference[u]}"),
        ))
    findings.extend(_check_dilworth(points, order,
                                    matching_chain_decomposition(points)))
    return findings


def _check_dilworth(points: PointSet, order: np.ndarray,
                    chains: ChainDecomposition) -> List[Disagreement]:
    """A valid decomposition with as many chains as a König antichain."""
    from ..poset import is_valid_chain_decomposition, maximum_antichain

    antichain = maximum_antichain(points)
    if (is_valid_chain_decomposition(points, chains)
            and not order[np.ix_(antichain, antichain)].any()
            and chains.num_chains == len(antichain)):
        return []
    return [Disagreement(
        kind="structure", config=f"{chains.method}_chain_decomposition",
        detail=(f"{chains.num_chains} chain(s) against a König "
                f"antichain of {len(antichain)} point(s)"),
    )]


def _check_patience(points: PointSet, order: np.ndarray) -> List[Disagreement]:
    """Check the ``d <= 2`` peel + first-fit decomposition.

    * its chains must equal first fit run over the whole ``(x, y)`` order
      with no peeling (listed newest chain first), chain for chain;
    * it must be valid, with as many chains as the König maximum
      antichain has points.
    """
    from ..poset.chains import _first_fit_chains, patience_chain_decomposition

    findings: List[Disagreement] = []
    chains = patience_chain_decomposition(points)
    if points.dim == 2:
        xs, ys = points.coords[:, 0], points.coords[:, 1]
        lex = np.lexsort((ys, xs))
        reference = _first_fit_chains(ys[lex].tolist(), lex.tolist())[::-1]
        if chains.chains != reference:
            findings.append(Disagreement(
                kind="structure", config="patience_chain_decomposition",
                detail=(f"{chains.num_chains} chain(s) differ from first fit "
                        f"without peeling ({len(reference)} chain(s))"),
            ))
    findings.extend(_check_dilworth(points, order, chains))
    return findings


def run_flow_differential(network: FlowNetwork, source: int,
                          sink: int) -> List[Disagreement]:
    """Array Dinic against loop Dinic on one network.

    Each engine must produce a feasible flow whose reported value is its
    net source flow.  Array Dinic's value must match the reference's, and
    its per-arc flows must reproduce the reference's exactly.
    """
    rec = recorder()
    findings: List[Disagreement] = []
    values: Dict[str, float] = {}
    flows: Dict[str, List[float]] = {}
    engines = [(FLOW_REFERENCE, dinic_max_flow),
               (ENGINE_LABEL, dinic_array_max_flow)]
    for label, solver in engines:
        network.reset_flow()
        if rec.enabled:
            rec.incr("fuzz.flow_solves")
        try:
            value = solver(network, source, sink)
        except Exception as exc:  # noqa: BLE001
            findings.append(Disagreement(
                kind="flow", config=label,
                detail=f"raised {type(exc).__name__}: {exc}",
            ))
            continue
        values[label] = float(value)
        flows[label] = network.flows.tolist()
        if not network.check_flow_conservation(source, sink):
            findings.append(Disagreement(
                kind="flow", config=label,
                detail="produced an infeasible flow (conservation/capacity)",
            ))
        recomputed = network.flow_value(source)
        if _relative_gap(recomputed, value) > VALUE_RTOL:
            findings.append(Disagreement(
                kind="flow", config=label,
                detail=f"reported value {value!r} != net source flow "
                       f"{recomputed!r}",
            ))
    if FLOW_REFERENCE in values:
        ref_value = values[FLOW_REFERENCE]
        for label, value in values.items():
            if _relative_gap(value, ref_value) > VALUE_RTOL:
                findings.append(Disagreement(
                    kind="flow", config=f"{FLOW_REFERENCE} vs {label}",
                    detail=f"max-flow {ref_value!r} != {value!r}",
                ))
        if (ENGINE_LABEL in flows
                and flows[ENGINE_LABEL] != flows[FLOW_REFERENCE]):
            findings.append(Disagreement(
                kind="flow", config=f"{FLOW_REFERENCE} vs {ENGINE_LABEL}",
                detail="per-arc flows are not bit-identical",
            ))
    network.reset_flow()
    if rec.enabled and findings:
        rec.incr("fuzz.disagreements", len(findings))
    return findings


def run_active_differential(
    points: PointSet,
    seed: int = 0,
    epsilons: Sequence[float] = (0.5, 0.05),
    worker_counts: Sequence[int] = (1, 2),
    true_optimum: Optional[float] = None,
) -> List[Disagreement]:
    """Active pipeline differential: worker counts must be bit-identical.

    Runs :func:`~repro.core.active.active_classify` on ``points`` (fully
    labeled; labels are hidden for the run and served by a fresh
    :class:`~repro.core.oracle.LabelOracle`) for each ``epsilon`` at every
    worker count, compares probing cost / Σ error / per-point predictions
    across worker counts, and audits the Theorem 2/3 accounting.  Tiny
    epsilons are deliberately in the default grid: sample sizes blow up and
    the recursion windows degenerate, which is where off-by-one sampling
    bugs live.
    """
    from ..core.active import active_classify
    from ..core.oracle import LabelOracle

    rec = recorder()
    findings: List[Disagreement] = []
    points.require_full_labels()
    hidden = points.with_hidden_labels()

    for epsilon in epsilons:
        reference = None
        reference_label = ""
        for workers in worker_counts:
            label = f"active(eps={epsilon}, workers={workers})"
            if rec.enabled:
                rec.incr("fuzz.configs_run")
            oracle = LabelOracle(points)
            try:
                result = active_classify(hidden, oracle, epsilon=epsilon,
                                         rng=seed, workers=workers)
            except Exception as exc:  # noqa: BLE001
                findings.append(Disagreement(
                    kind="error", config=label,
                    detail=f"raised {type(exc).__name__}: {exc}",
                ))
                continue
            audit = audit_active_result(points, result, oracle,
                                        true_optimum=true_optimum)
            if not audit.ok:
                findings.append(Disagreement(
                    kind="certificate", config=label,
                    detail=f"audit failed: {', '.join(audit.failures)}",
                ))
            observation = (
                result.probing_cost,
                float(result.sigma_error),
                result.classifier.classify_set(points).tobytes(),
            )
            if reference is None:
                reference = observation
                reference_label = label
            elif observation[:2] != reference[:2] or observation[2] != reference[2]:
                findings.append(Disagreement(
                    kind="value_mismatch",
                    config=f"{reference_label} vs {label}",
                    detail=(f"probes/Σ-error/predictions diverge: "
                            f"{reference[:2]} vs {observation[:2]}"),
                ))
    if rec.enabled and findings:
        rec.incr("fuzz.disagreements", len(findings))
    return findings
