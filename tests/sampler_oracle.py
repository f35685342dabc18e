"""The per-candidate loop ``negative_sample`` that the vectorised sampler
replaced, kept verbatim as the reference the differential tests compare
against."""

from __future__ import annotations

import numpy as np

from graph_helpers import has_edge
from nohgnn.data import DynamicGraph, LabeledPairSet
from nohgnn.errors import ParameterError, SamplingError


def negative_sample(
    g: DynamicGraph,
    positives: LabeledPairSet,
    ratio: int = 1,
    seed: int | list[int] = 0,
) -> LabeledPairSet:
    """Draw ``ratio`` label-0 pairs per positive by corrupting the tail node.

    A candidate (i, j', t) is accepted when j' != i, the pair is not an edge
    of ``g`` at slot t, and it was not already sampled in this call. Anchors
    whose non-neighbors are exhausted fall back to a uniform non-edge of the
    slot; a fully connected slot raises a sampling error.
    """
    if ratio < 1:
        raise ParameterError(f"negative ratio must be >= 1, got {ratio}")
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    anchors = np.repeat(positives.pairs[:, 0], ratio)
    slots = np.repeat(positives.pairs[:, 2], ratio)
    total = len(anchors)
    out = np.empty((total, 3), dtype=np.int64)
    out[:, 0] = anchors
    out[:, 2] = slots
    taken: dict[int, set[int]] = {}
    pending = np.arange(total)
    rounds = 0
    while len(pending) and rounds < 32:
        rounds += 1
        draws = rng.integers(0, n, size=len(pending))
        still = []
        for k, j in zip(pending, draws):
            i, t = int(out[k, 0]), int(out[k, 2])
            j = int(j)
            a, b = (i, j) if (i < j or not g.undirected) else (j, i)
            key = a * n + b
            slot_taken = taken.setdefault(t, set())
            if j == i or has_edge(g, a, b, t) or key in slot_taken:
                still.append(k)
                continue
            out[k, 0], out[k, 1] = a, b
            slot_taken.add(key)
        pending = np.asarray(still, dtype=np.int64)
    for k in pending:
        i, t = int(out[k, 0]), int(out[k, 2])
        slot_taken = taken.setdefault(t, set())
        choice = _fallback_non_edge(g, i, t, slot_taken, rng)
        a, b = choice
        out[k, 0], out[k, 1] = a, b
        slot_taken.add(a * n + b)
    return LabeledPairSet(out, np.zeros(total), positives.role)


def _candidate_tails(g: DynamicGraph, i: int, t: int, taken: set[int]) -> np.ndarray:
    n = g.n_nodes
    blocked = set(g.neighbors(i, t).tolist())
    blocked.add(i)
    tails = []
    for j in range(n):
        if j in blocked:
            continue
        a, b = (i, j) if (i < j or not g.undirected) else (j, i)
        if a * n + b in taken:
            continue
        tails.append(j)
    return np.asarray(tails, dtype=np.int64)


def _fallback_non_edge(
    g: DynamicGraph, i: int, t: int, taken: set[int], rng: np.random.Generator
) -> tuple[int, int]:
    tails = _candidate_tails(g, i, t, taken)
    if len(tails):
        j = int(tails[rng.integers(0, len(tails))])
        return (i, j) if (i < j or not g.undirected) else (j, i)
    n = g.n_nodes
    free = []
    for a in range(n):
        row = set(g.neighbors(a, t).tolist())
        for b in range(a + 1, n) if g.undirected else range(n):
            if b == a or b in row or a * n + b in taken:
                continue
            free.append((a, b))
    if not free:
        raise SamplingError(f"slot {t} has no remaining non-edges to sample")
    return free[rng.integers(0, len(free))]
