"""Output checks computed apart from the program.

Every check takes the program's outputs and compares them with a
computation of the benchmark's own (binning, walk counts, a dense forward
pass) or with a property the method must have. None compares against a
stored copy of an earlier output. Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# exp(-UNDERFLOW_GAP) is still a normal float64 (about 1e-304)
UNDERFLOW_GAP = 700.0


def slot_keys_from_events(src, dst, ts, t_slots: int, n_nodes: int) -> list[np.ndarray]:
    """Sorted undirected keys min*N+max per slot, binned as
    floor(T*(ts-min)/(max-min+1)) with self-loops dropped."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    lo, hi = int(ts.min()), int(ts.max())
    # Python integers keep the product exact for any timestamp range
    slot = np.asarray([(t_slots * (int(t) - lo)) // (hi - lo + 1) for t in ts.tolist()], dtype=np.int64)
    keep = src != dst
    a = np.minimum(src, dst)[keep]
    b = np.maximum(src, dst)[keep]
    slot = slot[keep]
    return [np.unique(a[slot == t] * n_nodes + b[slot == t]) for t in range(t_slots)]


def pair_keys(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    """Integer keys i*N+j of (i, j, ...) rows."""
    return pairs[:, 0].astype(np.int64) * n_nodes + pairs[:, 1]


def check_binning(graph, expected: list[np.ndarray]) -> list[str]:
    errors = []
    if graph.t_slots != len(expected):
        return [f"binning: {graph.t_slots} slots, expected {len(expected)}"]
    for t, keys in enumerate(expected):
        got = pair_keys(graph.slot_edges[t], graph.n_nodes)
        if not np.array_equal(np.sort(got), keys):
            errors.append(f"binning: slot {t} holds {len(got)} edges, the independent binning {len(keys)}")
    return errors


def check_split(graph, masked, splits, expected: list[np.ndarray]) -> list[str]:
    """Train/val/test partition every slot's edges; the masked graph is the
    train edges and holds no val/test edge in either direction."""
    n = graph.n_nodes
    errors = []
    for t, keys in enumerate(expected):
        parts = {role: pair_keys(s.pairs[s.pairs[:, 2] == t], n) for role, s in splits.items()}
        joined = np.concatenate(list(parts.values()))
        if len(np.unique(joined)) != len(joined) or not np.array_equal(np.sort(joined), keys):
            errors.append(f"split: slot {t} train/val/test do not partition its {len(keys)} edges")
        adj = masked.adjacency.slices[t].tocoo()
        stored = adj.row.astype(np.int64) * n + adj.col
        held = np.concatenate([parts["val"], parts["test"]])
        held = np.concatenate([held, (held % n) * n + held // n])
        if np.isin(stored, held).any():
            errors.append(f"split: masked slot {t} holds a val/test edge")
        if not np.array_equal(np.sort(pair_keys(masked.slot_edges[t], n)), np.sort(parts["train"])):
            errors.append(f"split: masked slot {t} edges differ from its train edges")
    return errors


def _neighbors(keys: np.ndarray, n_nodes: int) -> list[np.ndarray]:
    a, b = keys // n_nodes, keys % n_nodes
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(n_nodes + 1))
    cols = cols[order]
    return [cols[bounds[i] : bounds[i + 1]] for i in range(n_nodes)]


def walk_row(nbrs: list[np.ndarray], i: int, n_nodes: int) -> np.ndarray:
    """Row i of A + A^2 from neighbour lists: A^2[i, j] counts the middle
    nodes k with i-k and k-j edges."""
    row = np.zeros(n_nodes)
    row[nbrs[i]] += 1.0
    if len(nbrs[i]):
        row += np.bincount(np.concatenate([nbrs[k] for k in nbrs[i]]), minlength=n_nodes)
    return row


def check_walk_counts(overlap, pattern, train_keys: list[np.ndarray], rows_per_slot: int, rng) -> list[str]:
    """Sampled rows of the program's overlap tensor equal A + A^2 of the
    train edges, and the aggregation pattern row is that support plus i."""
    n = overlap.shape2d[0]
    errors = []
    for t, keys in enumerate(train_keys):
        nbrs = _neighbors(keys, n)
        s = overlap.slices[t]
        for i in rng.choice(n, size=min(rows_per_slot, n), replace=False).tolist():
            want = walk_row(nbrs, i, n)
            got = np.zeros(n)
            got[s.indices[s.indptr[i] : s.indptr[i + 1]]] = s.data[s.indptr[i] : s.indptr[i + 1]]
            if not np.array_equal(got, want):
                errors.append(f"walk counts: slot {t} row {i} differs from A+A^2")
            support = np.union1d(np.flatnonzero(want), [i])
            cols = pattern.indices[t][pattern.indptrs[t][i] : pattern.indptrs[t][i + 1]]
            if not np.array_equal(cols, support):
                errors.append(f"pattern: slot {t} row {i} is not supp(A+A^2) plus the diagonal")
    return errors


def union_size(pattern) -> int:
    """Distinct (row, col) positions over all slices of a pattern."""
    keys = [pattern.rows[t] * pattern.n_cols + pattern.indices[t] for t in range(pattern.t_slots)]
    return len(np.unique(np.concatenate(keys)))


def check_aggregation_weights(weights: np.ndarray, scores: np.ndarray, pattern) -> tuple[list[str], int]:
    """Every (slot, row) segment sums to 1 within 1e-12 and holds no negative
    weight. A weight whose score trails its row maximum by less than
    UNDERFLOW_GAP must be positive; past that gap exp() underflows in float64,
    so those weights are counted (second return value), not failed."""
    errors = []
    if np.any(weights < 0.0):
        errors.append("aggregation weights: a weight is negative")
    starts = np.asarray(pattern.row_splits[:-1])
    lengths = np.diff(pattern.row_splits)
    gap = np.repeat(np.maximum.reduceat(scores, starts), lengths) - scores
    if np.any((weights <= 0.0) & (gap < UNDERFLOW_GAP)):
        errors.append(f"aggregation weights: a weight within {UNDERFLOW_GAP} of its row's top score is not positive")
    worst = float(np.max(np.abs(np.add.reduceat(weights, starts) - 1.0)))
    if worst > 1e-12:
        errors.append(f"aggregation weights: a row sum is off by {worst:.3e}")
    return errors, int(np.sum(weights == 0.0))


def check_negatives(neg, positives, full_keys: list[np.ndarray], ratio: int, n_nodes: int, label: str) -> list[str]:
    """Negatives are non-edges of the full graph, not self-loops, unique per
    slot, and ratio times the positives in number."""
    errors = []
    if neg.size != ratio * positives.size:
        errors.append(f"{label}: {neg.size} negatives for {positives.size} positives at ratio {ratio}")
    if np.any(neg.labels != 0.0):
        errors.append(f"{label}: a negative has a nonzero label")
    p = neg.pairs
    if np.any(p[:, 0] == p[:, 1]):
        errors.append(f"{label}: a negative is a self-loop")
    keys = np.minimum(p[:, 0], p[:, 1]) * n_nodes + np.maximum(p[:, 0], p[:, 1])
    for t, edges in enumerate(full_keys):
        k = keys[p[:, 2] == t]
        if len(np.unique(k)) != len(k):
            errors.append(f"{label}: slot {t} repeats a negative")
        if np.isin(k, edges).any():
            errors.append(f"{label}: slot {t} negative is an edge of the full graph")
    return errors


def check_metric_log(path: str, epochs: int) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    errors = []
    if [r["epoch"] for r in rows] != list(range(1, epochs + 1)):
        errors.append(f"metric log: {len(rows)} rows for {epochs} epochs")
    if not all(math.isfinite(r["loss"]) for r in rows):
        errors.append("metric log: a logged loss is not finite")
    return errors


def check_params_equal(loaded, trained) -> list[str]:
    if loaded.names() != trained.names():
        return ["checkpoint: parameter names differ after load"]
    return [
        f"checkpoint: parameter {name!r} not byte-equal after load"
        for name in trained.names()
        if loaded.value(name).tobytes() != trained.value(name).tobytes()
        or loaded.value(name).shape != trained.value(name).shape
    ]


def check_confusion(metrics, size: int) -> list[str]:
    errors = []
    if metrics.tp + metrics.fp + metrics.tn + metrics.fn != size:
        errors.append(f"eval: confusion counts do not sum to the {size} test pairs")
    denom = 2 * metrics.tp + metrics.fp + metrics.fn
    if metrics.f1 != (2 * metrics.tp / denom if denom else 0.0):
        errors.append("eval: F1 is not 2tp/(2tp+fp+fn)")
    return errors


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT, one cosine at a time."""
    m = np.empty((n, n))
    for k in range(n):
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        for j in range(n):
            m[k, j] = scale * math.cos(math.pi * (2 * j + 1) * k / (2 * n))
    return m


def dense_forward(params: dict[str, np.ndarray], train_keys: list[np.ndarray], n_nodes: int,
                  transform: str, layers: int, pairs: np.ndarray) -> np.ndarray:
    """Link probabilities from a dense, loop-based pass over the method:
    walk counts, perceptron features, row softmax over supp(B) plus the
    diagonal, mode-3 products, and the MLP decoder."""
    t_slots = len(train_keys)
    n = n_nodes
    m = dct_matrix(t_slots) if transform == "dct" else np.eye(t_slots)
    minv = m.T  # both transforms are orthonormal

    def mode3(x, mat):
        out = np.zeros_like(x)
        for k in range(t_slots):
            for t in range(t_slots):
                out[k] += mat[k, t] * x[t]
        return out

    agg = np.zeros((t_slots, n, n))
    for t, keys in enumerate(train_keys):
        nbrs = _neighbors(keys, n)
        walks = np.stack([walk_row(nbrs, i, n) for i in range(n)])
        feats = np.empty((n, params["gen.theta.b2"].shape[0]))
        for i in range(n):
            summed = np.zeros(params["gen.edge.b2"].shape)
            for value in walks[i][walks[i] != 0]:
                hidden = relu(value * params["gen.edge.w1"][0] + params["gen.edge.b1"])
                summed += hidden @ params["gen.edge.w2"] + params["gen.edge.b2"]
            hidden = relu(summed @ params["gen.theta.w1"] + params["gen.theta.b1"])
            feats[i] = hidden @ params["gen.theta.w2"] + params["gen.theta.b2"]
        for i in range(n):
            support = np.union1d(np.flatnonzero(walks[i]), [i])
            scores = np.array([feats[i] @ feats[j] for j in support])
            e = np.exp(scores - scores.max())
            agg[t, i, support] = e / e.sum()

    h = np.stack([params["embed.e"]] * t_slots)
    agg_hat = mode3(agg, m)
    for layer in range(1, layers + 1):
        h_hat = mode3(h, m)
        spread = mode3(np.stack([agg_hat[t] @ h_hat[t] for t in range(t_slots)]), minv)
        w_hat = mode3(params[f"layer{layer}.w"], m)
        s_hat = mode3(spread, m)
        h = mode3(np.stack([s_hat[t] @ w_hat[t] for t in range(t_slots)]), minv)
        if layer < layers:
            h = relu(h)
    probs = np.empty(len(pairs))
    for k, (i, j, t) in enumerate(pairs.tolist()):
        x = np.concatenate([h[t, i], h[t, j]])
        hidden = relu(x @ params["dec.w1"] + params["dec.b1"])
        logit = float(hidden @ params["dec.w2"][:, 0] + params["dec.b2"][0])
        probs[k] = 1.0 / (1.0 + math.exp(-logit)) if logit >= 0 else math.exp(logit) / (1.0 + math.exp(logit))
    return probs
