"""Temporal edge-list ingestion, snapshot binning, and label-set construction.

An edge list is plain text, one event per line: ``src dst timestamp [weight]``
with whitespace or comma separators and ``#`` comments. Node ids are remapped
to dense 0..N-1 in order of first appearance. Events are binned into T
snapshots by uniform timestamp ranges, and per-slot edges are split into
train/validation/test positives with the validation and test edges masked out
of the adjacency used for message passing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nohgnn.errors import ParameterError, ParseError, SamplingError, ShapeError
from nohgnn.tensor3 import SliceSparse3

log = logging.getLogger(__name__)

SPLIT_FRACTIONS = (0.7, 0.2, 0.1)
MIN_SPLITTABLE_EDGES = 3
SAMPLE_ROUNDS = 32


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


def utf8_lines(fh, path: str):
    """The lines of a text file opened as UTF-8; a byte sequence that is not
    UTF-8 raises ``ParseError`` naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_timestamp(token: str) -> int:
    """Integer tokens exactly; other numeric tokens truncated through float."""
    try:
        return int(token)
    except ValueError:
        return int(float(token))


class DynamicGraph:
    """A sequence of graph snapshots over one shared node set.

    The adjacency is a per-slice sparse stack and the only record of the
    edges; ``slot_edges[t]`` lists the distinct edges of slot t as (i, j)
    rows, canonicalized i < j when the graph is undirected and sorted
    lexicographically, derived from it on first use.
    """

    def __init__(self, n_nodes: int, adjacency: SliceSparse3, id_map: dict[str, int], undirected: bool = True):
        if adjacency.shape2d != (n_nodes, n_nodes):
            raise ShapeError(f"adjacency {adjacency.shape2d} does not match n_nodes={n_nodes}")
        if undirected:
            for t, s in enumerate(adjacency.slices):
                if (s - s.T).nnz != 0:
                    raise ShapeError(f"slot {t} adjacency is not symmetric")
        self.n_nodes = n_nodes
        self.adjacency = adjacency
        self.id_map = id_map
        self.undirected = undirected
        self.overlap_cache: dict[int, SliceSparse3] = {}
        self._slot_edges: list[np.ndarray] | None = None
        self._edge_keys: list[np.ndarray | None] = [None] * len(adjacency.slices)

    @property
    def t_slots(self) -> int:
        return len(self.adjacency.slices)

    @property
    def slot_edges(self) -> list[np.ndarray]:
        if self._slot_edges is None:
            self._slot_edges = [edges_of_slice(s, self.undirected) for s in self.adjacency.slices]
        return self._slot_edges

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self.slot_edges)

    def neighbors(self, i: int, t: int) -> np.ndarray:
        s = self.adjacency.slices[t]
        return s.indices[s.indptr[i] : s.indptr[i + 1]]

    def edge_keys(self, t: int) -> np.ndarray:
        """Sorted int64 keys i*N+j of every stored adjacency entry at slot t."""
        if self._edge_keys[t] is None:
            s = self.adjacency.slices[t]
            rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(s.indptr))
            self._edge_keys[t] = np.sort(rows * self.n_nodes + s.indices)
        return self._edge_keys[t]

    def slot_keys(self) -> np.ndarray:
        """Sorted int64 keys t*N^2 + i*N + j of the stored entries of every
        slot: slot t's keys lie in [t*N^2, (t+1)*N^2), so the slots' sorted
        keys concatenate into one sorted array."""
        span = self.n_nodes * self.n_nodes
        return np.concatenate([self.edge_keys(t) + t * span for t in range(self.t_slots)])


@dataclass
class LabeledPairSet:
    """Labeled node pairs (i, j, t) for one role; y=1 rows are observed edges."""

    pairs: np.ndarray
    labels: np.ndarray
    role: str

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if len(self.pairs) != len(self.labels):
            raise ShapeError("pairs and labels lengths differ")

    @property
    def size(self) -> int:
        return len(self.labels)


def merge_pair_sets(a: LabeledPairSet, b: LabeledPairSet, role: str | None = None) -> LabeledPairSet:
    return LabeledPairSet(
        np.concatenate([a.pairs, b.pairs]),
        np.concatenate([a.labels, b.labels]),
        role or a.role,
    )


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
    adjacency = SliceSparse3(slices, shape=(n_nodes, n_nodes))
    return DynamicGraph(n_nodes, adjacency, dict(id_map or {}), undirected)


def _apportion(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment of n items into the given fractions."""
    exact = [n * f for f in fractions]
    base = [math.floor(x) for x in exact]
    remainders = np.asarray([x - b for x, b in zip(exact, base)])
    for idx in np.argsort(-remainders, kind="stable")[: n - sum(base)]:
        base[idx] += 1
    return base


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
    for t, edges in enumerate(g.slot_edges):
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
        g.n_nodes, SliceSparse3(masked_slices, shape=(g.n_nodes, g.n_nodes)), g.id_map, g.undirected
    )
    return build(0, "train"), build(1, "val"), build(2, "test"), masked_graph


def negative_sample(
    g: DynamicGraph,
    positives: LabeledPairSet,
    ratio: int = 1,
    seed: int | list[int] = 0,
) -> LabeledPairSet:
    """Draw ``ratio`` label-0 pairs per positive by corrupting the tail node.

    A candidate (i, j', t) is accepted when j' != i, the pair is not an edge
    of ``g`` at slot t, and it was not already sampled in this call. Each of
    at most ``SAMPLE_ROUNDS`` rounds draws one tail per pending candidate and
    judges the whole round at once against int64 keys t*N^2 + a*N + b of the
    canonical pair (a, b): edge and already-taken membership by binary search
    in sorted keys, and among candidates of the round sharing a key only the
    first is accepted. Validity depends on the key alone, so this accepts
    exactly what a loop over the candidates in order would. Anchors still
    pending after the rounds fall back to a uniform non-edge of the slot; a
    fully connected slot raises a sampling error.
    """
    if ratio < 1:
        raise ParameterError(f"negative ratio must be >= 1, got {ratio}")
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    slot_span = n * n
    anchors = np.repeat(positives.pairs[:, 0], ratio)
    slots = np.repeat(positives.pairs[:, 2], ratio)
    total = len(anchors)
    out = np.empty((total, 3), dtype=np.int64)
    out[:, 0] = anchors
    out[:, 2] = slots
    edges = g.slot_keys()
    taken = np.zeros(0, dtype=np.int64)
    pending = np.arange(total)
    rounds = 0
    while len(pending) and rounds < SAMPLE_ROUNDS:
        rounds += 1
        a, b = anchors[pending], rng.integers(0, n, size=len(pending))
        if g.undirected:
            a, b = np.minimum(a, b), np.maximum(a, b)
        keys = slots[pending] * slot_span + a * n + b
        order = np.argsort(keys, kind="stable")
        lead = np.ones(len(keys), dtype=bool)
        lead[1:] = keys[order[1:]] != keys[order[:-1]]
        first = np.empty(len(keys), dtype=bool)
        first[order] = lead
        accept = first & (a != b) & ~_contains(edges, keys) & ~_contains(taken, keys)
        out[pending[accept], 0] = a[accept]
        out[pending[accept], 1] = b[accept]
        taken = np.sort(np.concatenate([taken, keys[accept]]))
        pending = pending[~accept]
    for k in pending:
        i, t = int(anchors[k]), int(slots[k])
        lo, hi = np.searchsorted(taken, [t * slot_span, (t + 1) * slot_span])
        a, b = _fallback_non_edge(g, i, t, taken[lo:hi] - t * slot_span, rng)
        out[k, 0], out[k, 1] = a, b
        key = t * slot_span + a * n + b
        taken = np.insert(taken, np.searchsorted(taken, key), key)
    return LabeledPairSet(out, np.zeros(total), positives.role)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key occurs in the ascending array ``sorted_keys``."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _candidate_tails(g: DynamicGraph, i: int, t: int, taken: np.ndarray) -> np.ndarray:
    """Ascending tails j whose pair with anchor i is a free non-edge at slot t.

    ``taken`` holds the sorted slot-local keys a*N+b already sampled.
    """
    n = g.n_nodes
    free = np.ones(n, dtype=bool)
    free[g.neighbors(i, t)] = False
    free[i] = False
    tails = np.flatnonzero(free)
    keys = np.where(tails > i, i * n + tails, tails * n + i) if g.undirected else i * n + tails
    return tails[~_contains(taken, keys)]


def _fallback_non_edge(
    g: DynamicGraph, i: int, t: int, taken: np.ndarray, rng: np.random.Generator
) -> tuple[int, int]:
    """A uniform free non-edge for anchor i at slot t, else of the whole slot.

    One draw indexes the free tails of i in ascending order or, when i has
    none, the free pairs of the slot in ascending (a, b) order; the second
    is located row by row from per-row free counts.
    """
    tails = _candidate_tails(g, i, t, taken)
    if len(tails):
        j = int(tails[rng.integers(0, len(tails))])
        return (i, j) if (i < j or not g.undirected) else (j, i)
    n = g.n_nodes
    keys = g.edge_keys(t)
    heads, ends = np.divmod(keys, n)
    in_domain = ends > heads if g.undirected else ends != heads
    blocked = np.union1d(keys[in_domain], taken)
    domain_per_row = n - 1 - np.arange(n) if g.undirected else np.full(n, n - 1)
    free_per_row = domain_per_row - np.bincount(blocked // n, minlength=n)
    total = int(free_per_row.sum())
    if total == 0:
        raise SamplingError(f"slot {t} has no remaining non-edges to sample")
    pick = int(rng.integers(0, total))
    row_ends = np.cumsum(free_per_row)
    a = int(np.searchsorted(row_ends, pick, side="right"))
    cols = np.arange(a + 1, n) if g.undirected else np.delete(np.arange(n), a)
    cols = cols[~_contains(blocked, a * n + cols)]
    return a, int(cols[pick - (row_ends[a] - free_per_row[a])])
