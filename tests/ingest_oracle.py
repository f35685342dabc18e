"""The per-event and per-slice set-up code that the columnar ingest and the
sort-based assemble replaced, and the per-row feature generator that the
per-class one replaced, kept as the reference the differential tests in
``test_ingest.py`` and ``test_structural.py`` compare against.

``load_edge_list`` built one ``EdgeEvent`` per line, ``bin_snapshots``
appended every event to per-slot Python lists, ``split_edges`` masked each
slot with ``np.isin`` and a COO round trip, ``build_feature_context`` took
``np.unique(..., return_inverse=True)`` and a COO ``sum_duplicates``, and
``sparse_matpower_sum`` ran a scipy call chain per slice.
``generate_features`` ran the node perceptron on all T*N rows of the full
(T*N, U) walk-count histogram that this ``FeatureContext`` holds. They are
copied verbatim; the one edit is that ``split_edges`` derives the slot edges
with the copied ``edges_of_slice`` instead of reading
``DynamicGraph.slot_edges``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nohgnn.data import (
    MIN_SPLITTABLE_EDGES,
    SPLIT_FRACTIONS,
    DynamicGraph,
    LabeledPairSet,
    _apportion,
    utf8_lines,
)
from nohgnn.errors import ParameterError, ParseError, ShapeError
from nohgnn.tape import Node, Tape
from nohgnn.tensor3 import SliceSparse3
from pattern_helpers import slice_stack
from tape_helpers import add, matmul

log = logging.getLogger("nohgnn.data")


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped interaction, with endpoints already densely remapped."""

    src: int
    dst: int
    timestamp: int
    weight: float = 1.0


def load_edge_list(path: str) -> tuple[list[EdgeEvent], dict[str, int]]:
    """Parse an edge-list file into events plus the id remapping.

    Returns (events, id_map) where id_map sends the external id token to its
    dense index, assigned by first appearance in file order.
    """
    events: list[EdgeEvent] = []
    id_map: dict[str, int] = {}

    def dense(token: str) -> int:
        if token not in id_map:
            id_map[token] = len(id_map)
        return id_map[token]

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(utf8_lines(fh, path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) not in (3, 4):
                raise ParseError(f"{path}:{line_no}: expected 'src dst timestamp [weight]', got {line!r}")
            try:
                src = dense(parts[0])
                dst = dense(parts[1])
                ts = _parse_timestamp(parts[2])
                weight = float(parts[3]) if len(parts) == 4 else 1.0
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from None
            events.append(EdgeEvent(src, dst, ts, weight))
    if not events:
        raise ParseError(f"{path}: no edge events found")
    return events, id_map


def _parse_timestamp(token: str) -> int:
    """Integer tokens exactly; other numeric tokens truncated through float."""
    try:
        return int(token)
    except ValueError:
        return int(float(token))


def edges_of_slice(s: sp.csr_matrix, undirected: bool) -> np.ndarray:
    """Distinct (i, j) edge rows of one adjacency slice, sorted lexicographically."""
    half = sp.triu(s, k=1).tocoo() if undirected else s.tocoo()
    pairs = np.column_stack([half.row, half.col]).astype(np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def bin_snapshots(
    events: list[EdgeEvent],
    t_slots: int,
    undirected: bool = True,
    id_map: dict[str, int] | None = None,
) -> DynamicGraph:
    """Bin events into T uniform timestamp ranges and build the adjacency.

    Slot index is floor(T*(ts-ts_min)/(ts_max-ts_min+1)), computed in exact
    integer arithmetic. Self-loops are dropped; duplicate edges within a slot
    collapse to a single unit entry.
    """
    if t_slots < 1:
        raise ParameterError(f"t_slots must be >= 1, got {t_slots}")
    if not events:
        raise ParameterError("cannot bin an empty event list")
    stamps = [e.timestamp for e in events]
    ts_min, ts_max = min(stamps), max(stamps)
    span = ts_max - ts_min + 1
    if ts_min == ts_max and t_slots > 1:
        log.warning("all %d events share one timestamp; every event lands in slot 0", len(events))
    n_nodes = 1 + max(max(e.src for e in events), max(e.dst for e in events))

    rows: list[list[int]] = [[] for _ in range(t_slots)]
    cols: list[list[int]] = [[] for _ in range(t_slots)]
    for e in events:
        if e.src == e.dst:
            continue
        t = (t_slots * (e.timestamp - ts_min)) // span
        rows[t].append(e.src)
        cols[t].append(e.dst)
        if undirected:
            rows[t].append(e.dst)
            cols[t].append(e.src)

    slices = []
    for t in range(t_slots):
        # distinct row-major keys are the slot's entries in CSR order
        keys = np.unique(np.asarray(rows[t], dtype=np.int64) * n_nodes + np.asarray(cols[t], dtype=np.int64))
        indptr = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=np.int64) * n_nodes)
        slices.append(sp.csr_matrix((np.ones(len(keys)), keys % n_nodes, indptr), shape=(n_nodes, n_nodes)))
    adjacency = slice_stack(slices, shape=(n_nodes, n_nodes))
    return DynamicGraph(n_nodes, adjacency, dict(id_map or {}), undirected)


def split_edges(
    g: DynamicGraph,
    fractions: tuple[float, float, float] = SPLIT_FRACTIONS,
    seed: int = 0,
) -> tuple[LabeledPairSet, LabeledPairSet, LabeledPairSet, DynamicGraph]:
    """Partition each slot's edges into train/val/test positives.

    Validation and test positives are removed from the returned masked graph
    so message passing never sees them. Slots with fewer than three edges send
    everything to train.
    """
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"fractions must be positive and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    removed_keys: list[np.ndarray] = []
    for t, edges in enumerate(edges_of_slice(s, g.undirected) for s in g.adjacency.slices):
        n_edges = len(edges)
        if n_edges == 0:
            removed_keys.append(np.zeros(0, dtype=np.int64))
            continue
        if n_edges < MIN_SPLITTABLE_EDGES:
            log.warning("slot %d has only %d edge(s); assigning all to train", t, n_edges)
            counts = [n_edges, 0, 0]
        else:
            counts = _apportion(n_edges, fractions)
        shuffled = edges[rng.permutation(n_edges)]
        lo = 0
        parts = []
        for c in counts:
            parts.append(shuffled[lo : lo + c])
            lo += c
        for bucket, part in zip(buckets, parts):
            if len(part):
                bucket.append(np.column_stack([part, np.full(len(part), t, dtype=np.int64)]))
        held_out = np.concatenate([parts[1], parts[2]]) if len(parts[1]) + len(parts[2]) else np.zeros((0, 2), dtype=np.int64)
        keys = held_out[:, 0] * g.n_nodes + held_out[:, 1]
        if g.undirected:
            keys = np.concatenate([keys, held_out[:, 1] * g.n_nodes + held_out[:, 0]])
        removed_keys.append(keys)

    def build(role_idx: int, role: str) -> LabeledPairSet:
        if buckets[role_idx]:
            pairs = np.concatenate(buckets[role_idx])
            order = np.lexsort((pairs[:, 1], pairs[:, 0], pairs[:, 2]))
            pairs = pairs[order]
        else:
            pairs = np.zeros((0, 3), dtype=np.int64)
        return LabeledPairSet(pairs, np.ones(len(pairs)), role)

    masked_slices = []
    for t, s in enumerate(g.adjacency.slices):
        coo = s.tocoo()
        keep = ~np.isin(coo.row.astype(np.int64) * g.n_nodes + coo.col, removed_keys[t])
        masked_slices.append(sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=s.shape))
    masked_graph = DynamicGraph(
        g.n_nodes, slice_stack(masked_slices, shape=(g.n_nodes, g.n_nodes)), g.id_map, g.undirected
    )
    return build(0, "train"), build(1, "val"), build(2, "test"), masked_graph


def sparse_matpower_sum(a: SliceSparse3, k_hops: int) -> SliceSparse3:
    """Per-slice sum of the first ``k_hops`` matrix powers of ``a``.

    On a 0/1 adjacency stack the result counts walks of length 1..k_hops,
    so entries are exact nonnegative integers.
    """
    if k_hops < 1:
        raise ParameterError(f"k_hops must be >= 1, got {k_hops}")
    d1, d2, _ = a.dims
    if d1 != d2:
        raise ShapeError(f"slices must be square, got {d1}x{d2}")
    out = []
    for s in a.slices:
        acc = s.copy()
        cur = s
        for _ in range(k_hops - 1):
            cur = cur @ s
            acc = acc + cur
        out.append(acc)
    return slice_stack(out, shape=a.shape2d)


@dataclass(frozen=True)
class FeatureContext:
    """Constant quantities for feature generation over one overlap tensor.

    ``unique_values`` holds the distinct b values; ``counts`` is a
    (T*N, U) matrix whose (t*N+i, u) entry counts occurrences of the u-th
    value in row i of slot t.
    """

    unique_values: np.ndarray
    counts: sp.csr_matrix
    n_nodes: int
    t_slots: int


def build_feature_context(b: SliceSparse3) -> FeatureContext:
    n = b.shape2d[0]
    t_slots = len(b.slices)
    all_vals = np.concatenate([s.data for s in b.slices]) if b.nnz else np.zeros(0)
    unique, inverse = np.unique(all_vals, return_inverse=True)
    rows = np.concatenate(
        [
            t * n + np.repeat(np.arange(n, dtype=np.int64), np.diff(s.indptr))
            for t, s in enumerate(b.slices)
        ]
    ) if b.nnz else np.zeros(0, dtype=np.int64)
    counts = sp.csr_matrix(
        (np.ones(len(rows)), (rows, inverse)), shape=(t_slots * n, len(unique))
    )
    counts.sum_duplicates()
    return FeatureContext(unique, counts, n, t_slots)


def _perceptron(tape: Tape, x: Node, leaves: dict[str, Node], prefix: str) -> Node:
    h = tape.relu(add(tape, matmul(tape, x, leaves[f"{prefix}.w1"]), leaves[f"{prefix}.b1"]))
    return add(tape, matmul(tape, h, leaves[f"{prefix}.w2"]), leaves[f"{prefix}.b2"])


def generate_features(tape: Tape, ctx: FeatureContext, leaves: dict[str, Node]) -> Node:
    """Structural features as a (T, N, F) node.

    Row (t, i) is g_theta applied to the support-sum of g_edge over row i of
    the overlap slice t; empty rows feed the zero vector into g_theta.
    """
    col = tape.constant(ctx.unique_values.reshape(-1, 1))
    edge_out = _perceptron(tape, col, leaves, "gen.edge")
    summed = tape.csr_const_matmul(ctx.counts, edge_out)
    node_out = _perceptron(tape, summed, leaves, "gen.theta")
    dim = node_out.value.shape[1]
    return tape.reshape(node_out, (ctx.t_slots, ctx.n_nodes, dim))
