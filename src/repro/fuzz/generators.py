"""Hostile instance families for the differential fuzzer.

Random point sets almost never stress the solvers where they can actually
break: the paper's own lower-bound construction (Theorem 1), duplicate
coordinate vectors with opposing labels, degenerate posets (one maximal
chain, one maximal antichain), and weight/coordinate scales at the edge of
float64 are where dominance tie-breaks, effective-infinity capacities, and
transitive reductions earn their keep.  Each family here is a deterministic
function of a ``numpy`` Generator and a target size, registered in
:data:`FAMILIES` so campaigns (:mod:`repro.fuzz.runner`) and the CLI can
select them by name.

Byte-level corruption of serialized datasets lives here too
(:func:`mutate_bytes`): the loaders in :mod:`repro.io` must answer every
mutated file with either a valid :class:`~repro.core.points.PointSet` or a
clean ``ValueError`` — never a ``TypeError`` traceback or a silently
corrupt set.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..core.lowerbound import adversarial_input
from ..core.points import PointSet

__all__ = [
    "FAMILIES",
    "theorem1_hard",
    "duplicate_flood",
    "max_chain",
    "antichain",
    "near_equal_weights",
    "extreme_weights",
    "near_float_limit_coords",
    "random_mixed",
    "generate",
    "mutate_bytes",
    "serialized_corpus_texts",
]

GeneratorFn = Callable[[np.random.Generator, int], PointSet]


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive weights with occasional ties, the common case for families."""
    weights = rng.random(n) + 0.25
    # Force some exact ties so min-cut tie-breaking gets exercised.
    if n >= 4:
        weights[rng.integers(0, n, size=n // 4)] = 1.0
    return weights


def theorem1_hard(rng: np.random.Generator, size: int) -> PointSet:
    """The paper's Section 6 adversarial 1-D family (Theorem 1 hard inputs).

    Picks a uniformly random member ``P_00(i)`` / ``P_11(i)``: alternating
    labels on ``{1..n}`` with one anomalous pair.  Optimal error is exactly
    ``n/2 - 1`` — maximal conflict density, the worst regime for the
    min-cut construction.
    """
    n = max(4, size - size % 2)
    kind = "00" if rng.integers(0, 2) == 0 else "11"
    anomaly_pair = int(rng.integers(1, n // 2 + 1))
    points = adversarial_input(n, anomaly_pair=anomaly_pair, kind=kind)
    # Re-weight: the family is unit-weight by construction; half the time
    # keep it (König tightness is only audited for uniform weights), half
    # the time randomize to stress the weighted path.
    if rng.integers(0, 2) == 1:
        return points.replace(weights=_random_weights(rng, points.n))
    return points


def duplicate_flood(rng: np.random.Generator, size: int) -> PointSet:
    """Few distinct coordinate vectors, many copies, clashing labels.

    Duplicate coordinates with opposing labels are the sharpest test of the
    label-aware tie-breaks: a classifier is a function of coordinates, so
    opposing duplicates *must* contend, and the cut network must keep the
    infinite edge that forbids the free assignment.
    """
    n = max(2, size)
    num_distinct = max(1, n // 8)
    dim = int(rng.integers(1, 4))
    distinct = rng.integers(0, 4, size=(num_distinct, dim)).astype(float)
    idx = rng.integers(0, num_distinct, size=n)
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    return PointSet(distinct[idx], labels, _random_weights(rng, n))


def max_chain(rng: np.random.Generator, size: int) -> PointSet:
    """A single maximal chain (totally ordered set) with noisy labels.

    Width 1, Hasse diagram of ``n - 1`` edges, and the deepest possible
    transitive closure — the regime where the uint8 reduction bug of
    PR 3 lived (spurious covering pairs at 256-multiple depths).
    """
    n = max(2, size)
    dim = int(rng.integers(1, 4))
    base = np.sort(rng.random(n))
    coords = np.repeat(base[:, None], dim, axis=1)
    labels = (rng.random(n) < 0.5).astype(np.int8)
    return PointSet(coords, labels, _random_weights(rng, n))


def antichain(rng: np.random.Generator, size: int) -> PointSet:
    """A maximal antichain: no two points comparable, nothing contends.

    The optimal error must be exactly 0 with every label kept — any flip
    is a solver bug, and the contending reduction must produce an empty
    instance.
    """
    n = max(1, size)
    x = np.arange(n, dtype=float)
    coords = np.stack([x, -x], axis=1)
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    return PointSet(coords, labels, _random_weights(rng, n))


def near_equal_weights(rng: np.random.Generator, size: int) -> PointSet:
    """Weights separated by a few ulps — cut comparisons on a knife edge.

    Near-ties between alternative minimum cuts expose any backend whose
    cut extraction depends on accumulated floating-point error.
    """
    n = max(2, size)
    dim = int(rng.integers(1, 3))
    coords = rng.random((n, dim))
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    base = 1.0
    ulps = rng.integers(0, 3, size=n)
    weights = np.full(n, base)
    for _ in range(3):
        weights = np.where(ulps > 0, np.nextafter(weights, 2.0), weights)
        ulps = ulps - 1
    return PointSet(coords, labels, weights)


def extreme_weights(rng: np.random.Generator, size: int) -> PointSet:
    """Weight magnitudes spanning ~30 orders, up near the float64 edge.

    The effective-infinity capacity of the passive network is derived from
    the total weight; mixing 1e-12 and 1e15 weights checks that "infinite"
    edges stay uncuttable and small weights are not absorbed.
    """
    n = max(2, size)
    dim = int(rng.integers(1, 3))
    coords = rng.random((n, dim))
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    exponents = rng.integers(-12, 16, size=n).astype(float)
    weights = 10.0 ** exponents
    return PointSet(coords, labels, weights)


def near_float_limit_coords(rng: np.random.Generator, size: int) -> PointSet:
    """Coordinates at ±1e300 scale and separations of a single ulp.

    Dominance is pure comparison so huge magnitudes must be harmless, and
    one-ulp separations must still order points strictly (no accidental
    equality from intermediate arithmetic).
    """
    n = max(2, size)
    dim = int(rng.integers(1, 3))
    magnitude = 1e300
    coords = rng.integers(-2, 3, size=(n, dim)).astype(float) * magnitude
    # Nudge some coordinates by one ulp to create barely-distinct vectors.
    nudge = rng.integers(0, 2, size=(n, dim)) == 1
    coords = np.where(nudge, np.nextafter(coords, np.inf), coords)
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    return PointSet(coords, labels)


def random_mixed(rng: np.random.Generator, size: int) -> PointSet:
    """Baseline random instances (dims 1-4, arbitrary labels, mixed weights)."""
    n = max(1, size)
    dim = int(rng.integers(1, 5))
    coords = rng.random((n, dim))
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    return PointSet(coords, labels, _random_weights(rng, n))


#: Registry of hostile instance families, by name.  Every entry is a pure
#: function of (Generator, size) so campaigns replay deterministically.
FAMILIES: Dict[str, GeneratorFn] = {
    "theorem1": theorem1_hard,
    "duplicates": duplicate_flood,
    "chain": max_chain,
    "antichain": antichain,
    "near_equal_weights": near_equal_weights,
    "extreme_weights": extreme_weights,
    "float_limit_coords": near_float_limit_coords,
    "random": random_mixed,
}


def generate(family: str, rng: np.random.Generator, size: int) -> PointSet:
    """Generate one instance of a named family."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown fuzz family {family!r}; available: {sorted(FAMILIES)}"
        ) from None
    return fn(rng, size)


def mutate_bytes(text: str, rng: np.random.Generator,
                 mutations: int = 4) -> bytes:
    """Corrupt a serialized dataset at the byte level.

    Applies ``mutations`` random edits — overwrite, insert, delete, or
    truncate — to the UTF-8 encoding of ``text``.  Output is raw bytes (it
    need not decode cleanly); the loader under test must respond with a
    valid parse or a clean ``ValueError``.
    """
    data = bytearray(text.encode("utf-8"))
    for _ in range(max(1, mutations)):
        if not data:
            break
        op = int(rng.integers(0, 4))
        pos = int(rng.integers(0, len(data)))
        if op == 0:  # overwrite with a random byte
            data[pos] = int(rng.integers(0, 256))
        elif op == 1:  # insert a random byte
            data.insert(pos, int(rng.integers(0, 256)))
        elif op == 2:  # delete one byte
            del data[pos]
        else:  # truncate
            del data[pos:]
    return bytes(data)


def serialized_corpus_texts(points: PointSet) -> List[str]:
    """Both serialized forms of ``points``, as mutation seeds."""
    import tempfile
    from pathlib import Path

    from ..io import save_csv, save_json

    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "seed.csv"
        json_path = Path(tmp) / "seed.json"
        save_csv(points, csv_path)
        save_json(points, json_path)
        texts.append(csv_path.read_text())
        texts.append(json_path.read_text())
    return texts
